"""Independent cross-check formulas used to compute expected test values.

Nothing here imports the package's own polynomial pipeline logic; these
are deliberately different algorithms so the tests are not circular.
The rational formula divides plain lists of ints itself and only wraps its
quotient in a ``LaurentPolynomial``; the rebuilt crossing change goes
through the validating ``Diagram`` constructor, not the trusted flip; the
column closure lists each strand column's touches and sorts its arcs by
closing time, where the package labels every arc in one pass over the
word; the crossing-graph solver searches one node per crossing, on pass
sequences read off the PD rows, where the package searches one per link
component of its own strand walk; the braid sweep tests generator sets as
Python lists and sets where the package tests bitmasks, and the cyclic
search rebuilds every conjugate as letters where the package moves the
normal form itself.
"""

from __future__ import annotations

import math
from itertools import accumulate

from torusknot.braid import NormalForm, SearchBudgetExceeded
from torusknot.diagram import (
    ConstraintComponent,
    DaltReport,
    Diagram,
    InconsistentConstraints,
)
from torusknot.laurent import LaurentPolynomial
from torusknot.words import BraidWord


def rational_alexander(p: int, q: int) -> LaurentPolynomial:
    """Alexander polynomial of T(p,q), coprime, by exact division:

        t^-g (1 - t^pq)(1 - t) / ((1 - t^p)(1 - t^q)),  g = (p-1)(q-1)/2.

    The four-term numerator is divided by 1 - t^p, then by 1 - t^q, on
    plain lists of ints; only the quotient becomes a LaurentPolynomial.
    """
    if math.gcd(p, q) != 1:
        raise ValueError("coprime parameters required")
    numerator = [0] * (p * q + 2)
    for e, c in ((0, 1), (1, -1), (p * q, -1), (p * q + 1, 1)):  # T(1,1) repeats t
        numerator[e] += c
    quotient = _divide_by_one_minus_t_m(_divide_by_one_minus_t_m(numerator, p), q)
    return LaurentPolynomial(-(p - 1) * (q - 1) // 2, quotient)


def _divide_by_one_minus_t_m(a: list[int], m: int) -> list[int]:
    """Divide a by 1 - t^m; both coefficient lists run lowest first.

    The quotient obeys q_e = q_{e-m} + a_e, so on each residue class mod m
    it is the running sum of a over that class; the division is exact iff
    every class sums to zero.
    """
    quotient = [0] * (len(a) - m)
    for r in range(m):
        column = a[r::m]
        if any(column):
            sums = list(accumulate(column))
            if sums.pop():
                raise ArithmeticError(f"1 - t^{m} does not divide: class {r} sums to nonzero")
            quotient[r::m] = sums
    return quotient


def semigroup_alexander_terms(p: int, q: int) -> dict[int, int]:
    """Alexander polynomial of T(p,q) from the numerical semigroup <p,q>.

    With g = (p-1)(q-1)/2, the polynomial satisfies

        Delta(t) * t^g = (1 - t) * sum_{s in <p,q>, s < 2g} t^s + t^{2g},

    expressing the coefficients through semigroup membership alone --
    no products or division of polynomials anywhere.  Returns a sparse
    {exponent: coefficient} map, centred like the package output.
    """
    if math.gcd(p, q) != 1:
        raise ValueError("coprime parameters required")
    if p > q:
        p, q = q, p
    if p == 1:
        return {0: 1}
    g = (p - 1) * (q - 1) // 2
    members = {
        a * p + b * q
        for a in range(2 * g // p + 1)
        for b in range(2 * g // q + 1)
        if a * p + b * q < 2 * g
    }
    coefficients: dict[int, int] = {}
    for s in members:
        coefficients[s] = coefficients.get(s, 0) + 1
        coefficients[s + 1] = coefficients.get(s + 1, 0) - 1
    coefficients[2 * g] = coefficients.get(2 * g, 0) + 1
    return {e - g: c for e, c in coefficients.items() if c != 0}


def semigroup_count(p: int, q: int, x: int) -> int:
    """#(<p, q> n [0, x)) for coprime p, q, one point at a time.

    Every element of <p, q> is a*p + b*q with one b < p, so the class of
    b*q holds b*q, b*q + p, ..., and ceil((x - b*q)/p) of them lie below x.
    """
    return sum(-((b * q - x) // p) for b in range(p) if b * q < x)


def coprime_pair_count(bound: int) -> int:
    """Number of pairs 1 < p < q < bound with gcd(p, q) = 1, by sieve."""
    count = 0
    for q in range(3, bound):
        for p in range(2, q):
            if math.gcd(p, q) == 1:
                count += 1
    return count


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def roots(self) -> int:
        return sum(1 for i in range(len(self.parent)) if self.find(i) == i)


def union_find_state_circles(
    crossings: int, arcs, assignment: str, free_circles: int = 0
) -> int:
    """Circles of a Kauffman state, by union-find over the string-ends.

    End ``4*c + slot`` of crossing c is joined to its arc partner and, by the
    smoothing, to a neighbouring slot: A joins slots 0-1 and 2-3, B joins
    0-3 and 1-2.  The circles are the classes, plus the free circles.
    """
    uf = _UnionFind(4 * crossings)
    for u, v in arcs:
        uf.union(u, v)
    for c, x in enumerate(assignment):
        for s, t in {"A": ((0, 1), (2, 3)), "B": ((0, 3), (1, 2))}[x]:
            uf.union(4 * c + s, 4 * c + t)
    return uf.roots() + free_circles


def union_find_pieces(crossings: int, arcs) -> int:
    """Connected pieces of the crossings joined by arcs between their ends."""
    uf = _UnionFind(crossings)
    for u, v in arcs:
        uf.union(u // 4, v // 4)
    return uf.roots()


def union_find_faces(crossings: int, arcs) -> int:
    """Faces of the rotation system that orders each crossing's four slots.

    A face runs along an arc from end u to its partner v, then turns to the
    next slot of v's crossing, (slot + 1) mod 4; so each arc joins u to the
    turn after v and v to the turn after u, and the faces are the classes.
    """
    uf = _UnionFind(4 * crossings)
    for u, v in arcs:
        uf.union(u, v - v % 4 + (v + 1) % 4)
        uf.union(v, u - u % 4 + (u + 1) % 4)
    return uf.roots()


def rebuilt_change_crossings(diagram: Diagram, crossings) -> Diagram:
    """Switch over- and under-strand at the given crossings, by rebuilding.

    Slots rotate by +1 at a '+' crossing (which becomes '-') and by -1 at a
    '-' crossing (which becomes '+'), keeping slot 0 on the incoming
    under-strand, so each changed PD row's four labels rotate with them;
    the result is a new ``Diagram`` that re-validates every label.
    """
    chosen = set(crossings)
    signs, labels = [], []
    for c, (*row, sign) in enumerate(diagram.pd_rows()):
        if c in chosen:
            step = 1 if sign == "+" else -1
            row = [row[(slot - step) % 4] for slot in range(4)]
            sign = "-" if sign == "+" else "+"
        signs.append(sign)
        labels += row
    return Diagram(signs, labels, diagram.free_circles, diagram.strands)


def column_closure(word: BraidWord) -> Diagram:
    """The closure of a positive braid word, built one column at a time.

    Letter c = sigma_g meets column g - 1 at its ends 4c + 3 (bottom) and
    4c + 2 (top), and column g at 4c (bottom) and 4c + 1 (top).  Each
    column lists its touches in word order; the top end of each touch is
    joined to the bottom end of the next, and the last touch's top to the
    first touch's bottom.  An arc closes at the letter of its later touch,
    column g - 1 before column g, and the wrapping arcs close last, in
    column order; arcs are numbered 1, 2, ... in that closing order.  Every
    column with no touch is a free circle.
    """
    letters = word.letters
    touches: dict[int, list[tuple[int, int, int]]] = {}  # column -> (c, bottom, top)
    for c, g in enumerate(letters):
        touches.setdefault(g - 1, []).append((c, 4 * c + 3, 4 * c + 2))
        touches.setdefault(g, []).append((c, 4 * c, 4 * c + 1))
    arcs = []  # (closing key, top end, bottom end)
    for col, seq in touches.items():
        for (_, _, top), (c, bottom, _) in zip(seq, seq[1:]):
            arcs.append(((c, col), top, bottom))
        arcs.append(((len(letters), col), seq[-1][2], seq[0][1]))  # wraps round
    labels = [0] * (4 * len(letters))
    for arc, (_, top, bottom) in enumerate(sorted(arcs), 1):
        labels[top] = labels[bottom] = arc
    return Diagram("+" * len(letters), labels, word.strands - len(touches), word.strands)


def pd_pass_cycles(diagram: Diagram) -> list[list[tuple[int, bool]]]:
    """Pass sequences read off the PD rows, one per component of the curve.

    Through crossing c a strand goes from slot s to slot (s + 2) mod 4, then
    along that slot's label to the label's other end.  Each sequence starts
    at the lowest end ``4*c + slot`` on no earlier sequence and lists
    (crossing, goes over) per pass; odd slots carry the over-strand.
    """
    rows = diagram.pd_rows()
    ends: dict[object, list[tuple[int, int]]] = {}
    for c, row in enumerate(rows):
        for slot in range(4):
            ends.setdefault(row[slot], []).append((c, slot))
    seen: set[tuple[int, int]] = set()
    cycles = []
    for start in range(4 * len(rows)):
        c, slot = divmod(start, 4)
        cycle = []
        while (c, slot) not in seen:
            out = (slot + 2) % 4
            seen.update({(c, slot), (c, out)})
            cycle.append((c, slot % 2 == 1))
            far = ends[rows[c][out]]
            c, slot = far[1] if far[0] == (c, out) else far[0]
        if cycle:
            cycles.append(cycle)
    return cycles


def crossing_graph_dealternating(diagram: Diagram) -> DaltReport:
    """Minimum crossing changes to alternation, one graph node per crossing.

    Consecutive passes along a component visit crossings c1, c2 with
    over-bits t1, t2; alternation forces flip variables x with
    x_c1 xor x_c2 = t1 xor t2 xor 1.  Each connected block of these
    constraints has exactly two solutions (a set and its complement); the
    minimum takes the smaller side per block, preferring the side containing
    the block's lowest crossing index on ties.  Raises
    InconsistentConstraints when no flip set alternates.
    """
    n = diagram.n_crossings
    if n == 0:
        return DaltReport(0, (), ())
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for cycle in pd_pass_cycles(diagram):
        for (c1, b1), (c2, b2) in zip(cycle, cycle[1:] + cycle[:1]):
            parity = (b1 != b2) ^ 1
            if c1 == c2:
                if parity:
                    raise InconsistentConstraints(
                        f"crossing {c1} meets itself on consecutive passes"
                    )
                continue
            adjacency[c1].append((c2, parity))
            adjacency[c2].append((c1, parity))
    value = [-1] * n
    blocks: list[ConstraintComponent] = []
    witness: list[int] = []
    for seed in range(n):
        if value[seed] != -1:
            continue
        value[seed] = 0
        stack = [seed]
        members = []
        while stack:
            x = stack.pop()
            members.append(x)
            for y, parity in adjacency[x]:
                want = value[x] ^ parity
                if value[y] == -1:
                    value[y] = want
                    stack.append(y)
                elif value[y] != want:
                    raise InconsistentConstraints(
                        f"crossings {x} and {y} receive contradictory flips"
                    )
        ones = sorted(m for m in members if value[m] == 1)
        zeros = sorted(m for m in members if value[m] == 0)
        # the seed (lowest index in the block) has value 0, so ties pick
        # the side containing it
        chosen = zeros if len(zeros) <= len(ones) else ones
        witness.extend(chosen)
        blocks.append(ConstraintComponent(tuple(sorted(members)), tuple(chosen)))
    return DaltReport(len(witness), tuple(sorted(witness)), tuple(blocks))


def _starting_set(pi) -> list[int]:
    """Generators that can begin a 0-based permutation braid: its descents."""
    return [g for g in range(1, len(pi)) if pi[g - 1] > pi[g]]


def _inverse(pi) -> tuple[int, ...]:
    inv = [0] * len(pi)
    for i, v in enumerate(pi):
        inv[v] = i
    return tuple(inv)


def _swap(pi, i: int, j: int) -> tuple[int, ...]:
    out = list(pi)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def sweep_normal_form(word: BraidWord) -> NormalForm:
    """Left-greedy normal form by sweeping adjacent factors to a fixed point.

    Permutations are 0-based tuples (bottom position j ends at top position
    pi[j]).  Every letter starts as its own factor; while the least generator
    that can start the right factor of a pair does not finish the left one,
    it moves across: appended to the left factor (its values g-1 and g swap)
    and stripped from the right (its entries g-1 and g swap).  The finishing
    set is the starting set of the inverse, rebuilt as a set after each move.
    """
    p = word.strands
    identity = tuple(range(p))
    factors = [_swap(identity, g - 1, g) for g in word.letters]
    changed = True
    while changed:
        changed = False
        factors = [f for f in factors if f != identity]
        for idx in range(len(factors) - 1):
            a, b = factors[idx], factors[idx + 1]
            finishing = set(_starting_set(_inverse(a)))
            while True:
                movable = next((g for g in _starting_set(b) if g not in finishing), None)
                if movable is None:
                    break
                a = _swap(a, a.index(movable - 1), a.index(movable))
                b = _swap(b, movable - 1, movable)
                finishing = set(_starting_set(_inverse(a)))
                changed = True
            factors[idx], factors[idx + 1] = a, b
    factors = [f for f in factors if f != identity]
    half_twist = identity[::-1]
    infimum = 0
    while factors and factors[0] == half_twist:
        infimum += 1
        factors.pop(0)
    return NormalForm(p, infimum, tuple(tuple(v + 1 for v in f) for f in factors))


def _permutation_letters(pi) -> list[int]:
    """A positive word for a 0-based permutation braid: its least descent first."""
    out: list[int] = []
    while descents := _starting_set(pi):
        out.append(descents[0])
        pi = _swap(pi, descents[0] - 1, descents[0])
    return out


def _cycle_type(word: BraidWord) -> list[int]:
    perm = list(range(word.strands))
    for g in word.letters:
        perm[g - 1], perm[g] = perm[g], perm[g - 1]
    lengths, seen = [], set()
    for j in perm:
        size = 0
        while j not in seen:
            seen.add(j)
            j, size = perm[j], size + 1
        if size:
            lengths.append(size)
    return sorted(lengths)


def rebuilt_cyclically_equal(a: BraidWord, b: BraidWord, max_states: int = 200_000) -> bool:
    """Cyclic equality by rotating letters, then a breadth-first conjugation search.

    Every normal form comes from ``sweep_normal_form`` on a word of letters:
    rotations of ``a``, then, for each state x in breadth-first order and
    each generator g starting its first factor (ascending), the letters of
    that factor without g, of the other factors, and g.  Same checks, same
    visiting order and the same ``SearchBudgetExceeded`` as the package.
    """
    if len(a.letters) != len(b.letters):
        return False
    if not a.letters:
        return True
    if _cycle_type(a) != _cycle_type(b):
        return False
    target = sweep_normal_form(b)
    if any(sweep_normal_form(a.rotate(r)) == target for r in range(len(a.letters))):
        return True
    p = a.strands
    start = sweep_normal_form(a)
    seen, frontier = {start}, [start]
    while frontier:  # one breadth-first level at a time
        next_frontier = []
        for x in frontier:
            chain = [tuple(range(p - 1, -1, -1))] * x.infimum
            chain += [tuple(v - 1 for v in f) for f in x.factors]
            rest = [g for f in chain[1:] for g in _permutation_letters(f)]
            for g in _starting_set(chain[0]):
                first = _permutation_letters(_swap(chain[0], g - 1, g))
                y = sweep_normal_form(BraidWord(p, first + rest + [g]))
                if y == target:
                    return True
                if y not in seen:
                    seen.add(y)
                    next_frontier.append(y)
                    if len(seen) > max_states:
                        raise SearchBudgetExceeded(f"exceeded max_states = {max_states}")
        frontier = next_frontier
    return False
