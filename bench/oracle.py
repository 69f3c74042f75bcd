"""Expected answers, computed without the package's code paths.

Nothing here imports ``torusknot`` or the test suite's oracles.  Each
function is a direct, small implementation from the definitions (numerical
semigroups, Kauffman state circles, brute-force alternation), or a linear
formula quoted from the paper's tables.  The checks run outside the timed
requests.
"""

from __future__ import annotations

import itertools
import math
import random


# ----------------------------------------------------------------------
# coprime pairs and widths


def coprime_pairs_below(bound: int) -> int:
    """Number of pairs 1 < p < q < bound with gcd(p, q) = 1, by a totient sieve."""
    phi = list(range(bound))
    for n in range(2, bound):
        if phi[n] == n:  # n is prime
            for m in range(n, bound, n):
                phi[m] -= phi[m] // n
    return sum(phi[q] - 1 for q in range(3, bound))


def alexander_terms(p: int, q: int) -> list[tuple[int, int]]:
    """Alexander polynomial of T(p, q) as ascending (exponent, coefficient).

    From the semigroup S = <p, q>: with 2g = (p-1)(q-1), the unnormalised
    coefficient of t^k is [k in S] - [k-1 in S] for 0 <= k <= 2g.  The
    result is shifted by -g to the symmetric normalisation.
    """
    p, q = min(p, q), max(p, q)
    if p == 1:
        return [(0, 1)]
    top = (p - 1) * (q - 1)
    member = [False] * (top + 1)
    member[0] = True
    for x in range(1, top + 1):
        member[x] = (x >= p and member[x - p]) or (x >= q and member[x - q])
    terms = []
    for k in range(top + 1):
        c = member[k] - (k >= 1 and member[k - 1])
        if c:
            terms.append((k - top // 2, c))
    return terms


def width(p: int, q: int) -> tuple[int, int, int]:
    """(delta_max, delta_min, width) of the staircase of T(p, q).

    The steps 0 = s_0 < ... < s_k are the nonnegative exponents; the top
    generator has Maslov grading 0, and descending one step costs
    2(s_{l+1} - s_l) - 1 when k - l is odd and 1 when it is even.
    """
    s = [e for e, _ in alexander_terms(p, q) if e >= 0]
    k = len(s) - 1
    maslov = [0] * (k + 1)
    for l in range(k - 1, -1, -1):
        if (k - l) % 2:
            maslov[l] = maslov[l + 1] - 2 * (s[l + 1] - s[l]) + 1
        else:
            maslov[l] = maslov[l + 1] - 1
    deltas = [s[l] - maslov[l] for l in range(k + 1)]
    return max(deltas), min(deltas), max(deltas) - min(deltas) + 1


def alexander_text(p: int, q: int) -> str:
    """The typeset text of the Alexander polynomial, as the CLI prints it."""
    out = []
    for e, c in alexander_terms(p, q):
        if e == 0:
            body = str(abs(c))
        else:
            power = "t" if e == 1 else (f"t^{e}" if 0 <= e <= 9 else "t^{%d}" % e)
            body = power if abs(c) == 1 else f"{abs(c)}{power}"
        sign = "-" if c < 0 else ("+" if out else "")
        out.append(sign + body)
    return "".join(out)


# ----------------------------------------------------------------------
# paper's linear formulas for the tabulated families, q = p*n + r


TABULATED_RESIDUES = {4: (0, 1, 2, 3), 5: (0, 1, 2, 3, 4), 6: (0, 1)}
_TURAEV_UPPER = {4: (2, (0, 0, 1, 1)), 5: (4, (0, 0, 1, 2, 3)), 6: (6, (0, 0))}
_DALT_UPPER = {4: (4, (0, 0, 2, 2)), 5: (4, (2, 2, 3, 4, 7)), 6: (6, (2, 2))}


def is_tabulated(p: int, q: int) -> bool:
    n, r = divmod(q, p)
    return p in TABULATED_RESIDUES and n >= 1 and r in TABULATED_RESIDUES[p]


def tabulated_uppers(p: int, q: int) -> tuple[int, int]:
    """(Turaev genus, dealternating number) of the tabulated diagram of T(p, q)."""
    n, r = divmod(q, p)
    (a, b), (c, d) = _TURAEV_UPPER[p], _DALT_UPPER[p]
    return a * n + b[r], c * n + d[r]


# ----------------------------------------------------------------------
# closed-braid diagrams: ends are 4*c + slot, slots counterclockwise from the
# incoming under-strand; for a positive letter the corners bottom-right,
# top-right, top-left, bottom-left carry slots 0, 1, 2, 3.


def closure_arcs(strands: int, letters: list[int]) -> list[tuple[int, int]]:
    """Arcs (pairs of crossing ends) of the closure of a positive braid word."""
    below: list[int | None] = [None] * strands  # lowest end met in each column
    above: list[int | None] = [None] * strands  # end the column currently leaves
    arcs = []
    for c, g in enumerate(letters):
        for column, end in ((g - 1, 4 * c + 3), (g, 4 * c)):
            if above[column] is None:
                below[column] = end
            else:
                arcs.append((above[column], end))
        above[g - 1], above[g] = 4 * c + 2, 4 * c + 1
    for column in range(strands):
        if above[column] is not None:
            arcs.append((above[column], below[column]))
    return arcs


def pd_document(strands: int, letters: list[int]) -> dict:
    """PD-code JSON object (the format ``turaev-genus --pd`` reads)."""
    label = {}
    for i, (u, v) in enumerate(closure_arcs(strands, letters)):
        label[u] = label[v] = i + 1
    rows = [[label[4 * c + s] for s in range(4)] + ["+"] for c in range(len(letters))]
    return {"strands": strands, "crossings": rows}


def _circles(n_ends: int, joins: list[tuple[int, int]]) -> int:
    parent = list(range(n_ends))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = n_ends
    for u, v in joins:
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


def state_circles(strands: int, letters: list[int], smoothing: str) -> int:
    """Circles of the all-A or all-B state of the closure.

    A joins slots 0-1 and 2-3 at each crossing, B joins 0-3 and 1-2.
    Columns no letter touches are free circles.
    """
    pairs = ((0, 1), (2, 3)) if smoothing == "A" else ((0, 3), (1, 2))
    joins = list(closure_arcs(strands, letters))
    joins += [(4 * c + a, 4 * c + b) for c in range(len(letters)) for a, b in pairs]
    touched = {g - 1 for g in letters} | {g for g in letters}
    return _circles(4 * len(letters), joins) + strands - len(touched)


def turaev_genus(strands: int, letters: list[int]) -> tuple[int, int, int]:
    """(genus, s_A, s_B) of the closure of a word using every generator."""
    s_a = state_circles(strands, letters, "A")
    s_b = state_circles(strands, letters, "B")
    doubled = 2 + len(letters) - s_a - s_b
    if doubled % 2 or doubled < 0:
        raise ArithmeticError(f"odd or negative doubled genus {doubled}")
    return doubled // 2, s_a, s_b


def brute_force_dealternating(strands: int, letters: list[int]) -> int:
    """Fewest crossing changes that make the closure alternate, by trying all."""
    partner = {}
    for u, v in closure_arcs(strands, letters):
        partner[u], partner[v] = v, u
    seen = set()
    cycles = []
    for start in range(4 * len(letters)):
        if start in seen:
            continue
        cycle, end = [], start
        while end not in seen:
            crossing, slot = divmod(end, 4)
            through = 4 * crossing + (slot + 2) % 4
            seen.update((end, through))
            cycle.append((crossing, slot % 2))  # odd slots are over-strand ends
            end = partner[through]
        cycles.append(cycle)
    n = len(letters)
    for size in range(n + 1):
        for chosen in itertools.combinations(range(n), size):
            mask = sum(1 << c for c in chosen)
            if all(
                len(cycle) % 2 == 0
                and all(
                    (over ^ (mask >> c & 1)) != (next_over ^ (mask >> d & 1))
                    for (c, over), (d, next_over) in zip(cycle, cycle[1:] + cycle[:1])
                )
                for cycle in cycles
            ):
                return size
    raise ArithmeticError("no set of crossing changes alternates")


def torus_letters(p: int, q: int) -> list[int]:
    return list(range(1, p)) * q


# ----------------------------------------------------------------------
# braid words with answers known by construction


def artin_rewrite(letters: list[int], rng: random.Random, moves: int) -> list[int]:
    """Apply ``moves`` random far commutations or braid relations.

    Every move replaces a subword by an equal one, so the result presents
    the same braid as the input.
    """
    out = list(letters)
    for _ in range(moves):
        i = rng.randrange(len(out) - 1)
        a, b = out[i], out[i + 1]
        if abs(a - b) >= 2:
            out[i], out[i + 1] = b, a
        elif abs(a - b) == 1 and i + 2 < len(out) and out[i + 2] == a:
            out[i], out[i + 1], out[i + 2] = b, a, b
    return out


def change_one_letter(letters: list[int], strands: int, rng: random.Random) -> list[int]:
    """Copy with one letter replaced: a different braid, since cancelling the
    common prefix and suffix in the (cancellative) positive monoid would
    leave two different generators equal."""
    out = list(letters)
    i = rng.randrange(len(out))
    out[i] = rng.choice([g for g in range(1, strands) if g != out[i]])
    return out


def swap_square(letters: list[int], strands: int, rng: random.Random) -> list[int]:
    """Copy with one square a*a replaced by b*b (b != a).

    Length and permutation are unchanged, so only the normal form tells the
    words apart; they differ because no relation applies to a*a.  The input
    must contain a square.
    """
    squares = [i for i in range(len(letters) - 1) if letters[i] == letters[i + 1]]
    i = rng.choice(squares)
    b = rng.choice([g for g in range(1, strands) if g != letters[i]])
    out = list(letters)
    out[i] = out[i + 1] = b
    return out


def random_word(strands: int, length: int, rng: random.Random) -> list[int]:
    """Random positive word that uses every generator and contains a square."""
    while True:
        letters = [rng.randint(1, strands - 1) for _ in range(length)]
        has_square = any(a == b for a, b in zip(letters, letters[1:]))
        if has_square and len(set(letters)) == strands - 1:
            return letters


def is_knot(p: int, q: int) -> bool:
    return math.gcd(p, q) == 1
