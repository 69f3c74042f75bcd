"""Positive braid words, Garside normal form, and torus-braid identities.

Words live in the positive braid monoid on ``strands`` strands: letters are
generator indices 1..strands-1, composed bottom-to-top, subject to the usual
relations (far commutation and the braid relation).  Word equality is decided
by left-greedy (Garside) normal form: every positive word factors uniquely as

    halftwist^infimum * A_1 * A_2 * ... * A_m

where each A_i is a permutation braid (a positive braid in which each pair of
strands crosses at most once), no A_i is trivial or the half twist, and each
adjacent pair is left-weighted: every generator that can start A_{i+1} must
finish A_i.  Permutation braids are stored as their permutations.

Permutation convention: a permutation is a tuple ``pi`` of length ``strands``
with 1-based entries; the strand entering the braid at bottom position ``j``
(1-based) leaves at top position ``pi[j-1]``.  Composition is bottom-first:
``perm(v * w)[j] = perm(w)[perm(v)[j]]``.

The word grammar accepted by :func:`parse_braid`::

    word   := term+
    term   := digit | '{' name '}' | '(' word ')' | term '^' integer
    digit  := '1'..'9'            (a generator index)

Whitespace is ignored; exponents are nonnegative; named macros expand to
fixed words (see ``DEFAULT_MACROS``), with ``{delta_p}`` expanding to the full
twist on the current strand count.  An exponent takes every digit that
follows it: ``(1)^32`` is 32 letters, while ``(1)^3 2`` is ``1112``.  A word
that would grow past ``MAX_WORD_LETTERS`` letters raises WordTooLong before it
is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence

__all__ = [
    "ParseError",
    "UnknownMacro",
    "IndexOutOfRange",
    "StrandMismatch",
    "UnsupportedTorusFamily",
    "SearchBudgetExceeded",
    "WordTooLong",
    "MAX_WORD_LETTERS",
    "BraidWord",
    "NormalForm",
    "LemmaCheck",
    "DEFAULT_MACROS",
    "parse_braid",
    "underlying_permutation",
    "permutation_cycles",
    "normal_form",
    "words_equal",
    "cyclically_equal",
    "torus_braid_word",
    "lemma_word",
    "verify_lemmas",
]


class ParseError(ValueError):
    """Malformed braid-word text."""


class SearchBudgetExceeded(RuntimeError):
    """A search ran out of its state budget before reaching a decision."""


class UnknownMacro(ParseError):
    """A '{name}' macro not present in the macro table."""


class IndexOutOfRange(ValueError):
    """A generator index that does not exist on this strand count."""


class StrandMismatch(ValueError):
    """Two words on different strand counts were combined or compared."""


class UnsupportedTorusFamily(ValueError):
    """lemma_word was asked for a (p, q) outside the tabulated families."""


class WordTooLong(ValueError):
    """A word of more than MAX_WORD_LETTERS letters, refused before it is built."""


MAX_WORD_LETTERS = 2**16


def _check_length(letters: int) -> None:
    if letters > MAX_WORD_LETTERS:
        raise WordTooLong(
            f"a word of {letters} letters is above the cap of {MAX_WORD_LETTERS}"
        )


@dataclass(frozen=True)
class BraidWord:
    """A positive braid word: generator letters read bottom-to-top."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise ValueError("strand count must be positive")
        for g in self.letters:
            if not 1 <= g <= self.strands - 1:
                raise IndexOutOfRange(
                    f"generator {g} does not exist on {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            return NotImplemented
        if self.strands != other.strands:
            raise StrandMismatch(
                f"cannot concatenate words on {self.strands} and {other.strands} strands"
            )
        return BraidWord(self.strands, self.letters + other.letters)

    def __pow__(self, n: int) -> "BraidWord":
        if n < 0:
            raise ValueError("positive braid words only")
        return BraidWord(self.strands, self.letters * n)

    def rotate(self, k: int) -> "BraidWord":
        """Cyclic rotation: move the first k letters to the end."""
        if not self.letters:
            return self
        k %= len(self.letters)
        return BraidWord(self.strands, self.letters[k:] + self.letters[:k])

    def as_text(self) -> str:
        return "".join(str(g) for g in self.letters)

    def __str__(self) -> str:
        return self.as_text() or "(empty)"


# ----------------------------------------------------------------------
# parsing


_FIXED_MACROS: dict[str, tuple[int, ...]] = {
    "alpha": (3, 2, 3, 3, 1, 1),
    "beta": (3, 1, 1, 2, 3, 1, 1, 2, 3, 3, 4, 3, 1, 1),
    "gamma": (3, 1, 1, 2, 3, 1, 1, 2, 3, 1, 1),
    "zeta": (1, 3, 3, 5, 4, 5, 3, 3, 2, 3, 3, 4, 5, 1, 3),
    "eta": (3, 1, 5, 5, 3, 1, 2, 1, 3),
}


def _full_twist_letters(strands: int) -> tuple[int, ...]:
    _check_length((strands - 1) * strands)
    return tuple(range(1, strands)) * strands


DEFAULT_MACROS: dict[str, "tuple[int, ...] | Callable[[int], tuple[int, ...]]"] = {
    **_FIXED_MACROS,
    "delta_p": _full_twist_letters,
}


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse braid-word text into a BraidWord on ``strands`` strands.

    >>> parse_braid("(123)^2 1^3", 4).as_text()
    '123123111'
    """
    try:
        letters, pos = _parse_word(text, 0, strands)
    except RecursionError:
        raise ParseError("word nested too deeply to parse") from None
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ParseError(f"unexpected {text[pos]!r} at offset {pos}")
    return BraidWord(strands, tuple(letters))


def _skip_ws(s: str, i: int) -> int:
    while i < len(s) and s[i].isspace():
        i += 1
    return i


def _parse_word(s: str, i: int, strands: int) -> tuple[list[int], int]:
    out: list[int] = []
    while True:
        i = _skip_ws(s, i)
        if i >= len(s) or s[i] == ")":
            return out, i
        term, i = _parse_term(s, i, strands)
        _check_length(len(out) + len(term))
        out.extend(term)


def _parse_term(s: str, i: int, strands: int) -> tuple[list[int], int]:
    ch = s[i]
    if ch.isdigit():
        g = int(ch)
        if not 1 <= g <= strands - 1:
            raise IndexOutOfRange(
                f"generator {g} at offset {i} does not exist on {strands} strands"
            )
        base = [g]
        i += 1
    elif ch == "{":
        close = s.find("}", i)
        if close < 0:
            raise ParseError(f"unclosed macro brace at offset {i}")
        name = s[i + 1 : close].strip()
        if name not in DEFAULT_MACROS:
            raise UnknownMacro(f"unknown macro {name!r} at offset {i}")
        expansion = DEFAULT_MACROS[name]
        if callable(expansion):
            expansion = expansion(strands)
        for g in expansion:
            if not 1 <= g <= strands - 1:
                raise IndexOutOfRange(
                    f"macro {name!r} uses generator {g}, absent on {strands} strands"
                )
        base = list(expansion)
        i = close + 1
    elif ch == "(":
        inner, i = _parse_word(s, i + 1, strands)
        i = _skip_ws(s, i)
        if i >= len(s) or s[i] != ")":
            raise ParseError(f"unclosed parenthesis at offset {i}")
        base = inner
        i += 1
    else:
        raise ParseError(f"unexpected {ch!r} at offset {i}")
    while True:
        j = _skip_ws(s, i)
        if j < len(s) and s[j] == "^":
            j += 1
            j = _skip_ws(s, j)
            start = j
            if j < len(s) and s[j] == "-":
                raise ParseError(f"negative exponent at offset {j}: positive words only")
            while j < len(s) and s[j].isdigit():
                j += 1
            if j == start:
                raise ParseError(f"missing exponent at offset {start}")
            count = int(s[start:j])
            _check_length(len(base) * count)
            base = base * count
            i = j
        else:
            return base, i


# ----------------------------------------------------------------------
# permutations (internal arrays are 0-indexed; public tuples are 1-based)


def underlying_permutation(word: BraidWord) -> tuple[int, ...]:
    """Where each strand ends up: bottom position j goes to top position perm[j-1].

    Positions are 1-based.  This is a monoid homomorphism for bottom-first
    composition: ``perm(v*w)[j] = perm(w)[perm(v)[j]]``.

    >>> underlying_permutation(parse_braid("(123)^5", 4))
    (4, 1, 2, 3)
    """
    return tuple(v + 1 for v in _perm0(word.letters, word.strands))


def _cycle_lengths(perm: Sequence[int]) -> list[int]:
    """Cycle lengths of a 1-based permutation tuple, in traversal order."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if not seen[start]:
            size = 0
            j = start
            while not seen[j]:
                seen[j] = True
                size += 1
                j = perm[j] - 1
            lengths.append(size)
    return lengths


def permutation_cycles(perm: Sequence[int]) -> int:
    """Number of cycles of a 1-based permutation tuple.

    The closure of a braid word has exactly this many link components.
    """
    return len(_cycle_lengths(perm))


def _perm0(word_letters: Sequence[int], p: int) -> tuple[int, ...]:
    """0-indexed end-position array of a letter sequence."""
    strand_at = list(range(p))
    for g in word_letters:
        strand_at[g - 1], strand_at[g] = strand_at[g], strand_at[g - 1]
    pi = [0] * p
    for pos, s in enumerate(strand_at):
        pi[s] = pos
    return tuple(pi)


def _starting_set(pi: Sequence[int]) -> list[int]:
    """Generators that can begin the permutation braid: descents of pi."""
    return [g for g in range(1, len(pi)) if pi[g - 1] > pi[g]]


def _inverse(pi: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(pi)
    for i, v in enumerate(pi):
        inv[v] = i
    return tuple(inv)


def _append_letter(pi: Sequence[int], g: int) -> tuple[int, ...]:
    """pi followed by one crossing sigma_g (swap the values g-1, g)."""
    a, b = g - 1, g
    return tuple(b if x == a else (a if x == b else x) for x in pi)


def _strip_leading_letter(pi: Sequence[int], g: int) -> tuple[int, ...]:
    """pi with a bottom crossing sigma_g removed (swap the entries g-1, g)."""
    out = list(pi)
    out[g - 1], out[g] = out[g], out[g - 1]
    return tuple(out)


def _permutation_word(pi: Sequence[int]) -> tuple[int, ...]:
    """Canonical positive word for a permutation braid (smallest-descent-first)."""
    out: list[int] = []
    cur = tuple(pi)
    while True:
        start = _starting_set(cur)
        if not start:
            return tuple(out)
        g = start[0]
        out.append(g)
        cur = _strip_leading_letter(cur, g)


@dataclass(frozen=True)
class NormalForm:
    """Left-greedy normal form: halftwist^infimum followed by the factors.

    ``infimum`` counts leading copies of the positive half twist (the
    permutation-braid square root of the full twist; a full twist contributes
    two).  ``factors`` are the remaining permutation braids as 1-based
    permutation tuples, none trivial, each adjacent pair left-weighted.
    """

    strands: int
    infimum: int
    factors: tuple[tuple[int, ...], ...]

    def canonical_length(self) -> int:
        return len(self.factors)

    def word(self) -> BraidWord:
        """Re-expand the normal form to a concrete positive word."""
        p = self.strands
        half = _permutation_word(tuple(range(p - 1, -1, -1)))
        letters: list[int] = list(half) * self.infimum
        for f in self.factors:
            letters.extend(_permutation_word(tuple(v - 1 for v in f)))
        return BraidWord(p, tuple(letters))


def normal_form(word: BraidWord) -> NormalForm:
    """Compute the left-greedy normal form of a positive word.

    >>> nf = normal_form(parse_braid("(121)", 3))
    >>> nf.infimum, nf.factors
    (1, ())
    """
    p = word.strands
    identity = tuple(range(p))
    factors: list[tuple[int, ...]] = [_perm0((g,), p) for g in word.letters]
    changed = True
    while changed:
        changed = False
        factors = [f for f in factors if f != identity]
        for idx in range(len(factors) - 1):
            a, b = factors[idx], factors[idx + 1]
            finishing = set(_starting_set(_inverse(a)))
            while True:
                movable = next(
                    (g for g in _starting_set(b) if g not in finishing), None
                )
                if movable is None:
                    break
                a = _append_letter(a, movable)
                b = _strip_leading_letter(b, movable)
                finishing = set(_starting_set(_inverse(a)))
                changed = True
            factors[idx], factors[idx + 1] = a, b
    factors = [f for f in factors if f != identity]
    half_twist = tuple(range(p - 1, -1, -1))
    infimum = 0
    while factors and factors[0] == half_twist:
        infimum += 1
        factors.pop(0)
    return NormalForm(
        strands=p,
        infimum=infimum,
        factors=tuple(tuple(v + 1 for v in f) for f in factors),
    )


def words_equal(a: BraidWord, b: BraidWord) -> bool:
    """Whether two positive words present the same braid-group element."""
    if a.strands != b.strands:
        raise StrandMismatch(
            f"cannot compare words on {a.strands} and {b.strands} strands"
        )
    if len(a.letters) != len(b.letters):
        return False  # positive relations preserve length
    if underlying_permutation(a) != underlying_permutation(b):
        return False
    return normal_form(a) == normal_form(b)


def _atom_conjugates(nf: NormalForm) -> Iterator[NormalForm]:
    """Normal forms of g^{-1} x g for each generator g left-dividing x.

    Rotating one letter of a positive word conjugates its braid by that
    letter; modulo the braid relations a word for x can begin with exactly
    the generators in the starting set of its first normal-form factor, and
    conjugating by such a generator keeps the braid positive.
    """
    p = nf.strands
    half = tuple(range(p - 1, -1, -1))
    chain = [half] * nf.infimum + [tuple(v - 1 for v in f) for f in nf.factors]
    if not chain:
        return
    for g in _starting_set(chain[0]):
        letters = list(_permutation_word(_strip_leading_letter(chain[0], g)))
        for f in chain[1:]:
            letters.extend(_permutation_word(f))
        letters.append(g)
        yield normal_form(BraidWord(p, tuple(letters)))


def cyclically_equal(a: BraidWord, b: BraidWord, max_states: int = 200_000) -> bool:
    """Whether ``a`` and ``b`` are related by braid relations and cyclic moves.

    Two positive words are cyclically equal when a chain of braid relations
    and single-letter rotations turns one into the other (so their closures
    are the same diagram up to isotopy).  The chain may interleave the two
    move types, so rotations of the literal input words are not enough;
    after the quick rotation scan this searches the orbit of ``a`` under
    conjugation by left-dividing generators, which generates exactly the
    same equivalence.  ``max_states`` caps the orbit search; a
    :class:`SearchBudgetExceeded` (a RuntimeError) reports an inconclusive
    (too large) search rather than guessing.
    """
    if a.strands != b.strands:
        raise StrandMismatch(
            f"cannot compare words on {a.strands} and {b.strands} strands"
        )
    if len(a.letters) != len(b.letters):
        return False
    if not a.letters:
        return True
    cycle_type = lambda w: sorted(
        _cycle_lengths(underlying_permutation(w))
    )  # conjugation-invariant
    if cycle_type(a) != cycle_type(b):
        return False
    target = normal_form(b)
    start = normal_form(a)
    if start == target:
        return True
    for r in range(1, len(a.letters)):
        if normal_form(a.rotate(r)) == target:
            return True
    seen = {start}
    frontier = [start]
    while frontier:
        next_frontier: list[NormalForm] = []
        for x in frontier:
            for y in _atom_conjugates(x):
                if y == target:
                    return True
                if y not in seen:
                    seen.add(y)
                    next_frontier.append(y)
                    if len(seen) > max_states:
                        raise SearchBudgetExceeded(
                            f"cyclic-equivalence search exceeded max_states = {max_states}; "
                            "the words are too tangled to decide within budget"
                        )
        frontier = next_frontier
    return False


# ----------------------------------------------------------------------
# torus braids and the tabulated rewrite identities


def torus_braid_word(p: int, q: int) -> BraidWord:
    """The standard (p, q) torus word: (sigma_1 ... sigma_{p-1})^q on p strands."""
    if p < 1 or q < 0:
        raise ValueError(f"invalid torus braid parameters ({p}, {q})")
    _check_length((p - 1) * q)
    return BraidWord(p, tuple(range(1, p)) * q)


class _Family(NamedTuple):
    """One row of the family table ``_FAMILIES``; its fields are described there."""

    word: tuple[tuple[str, int, int], ...]
    relation: str
    s_b: tuple[int, int]
    g_t: tuple[int, int]
    dealternating: tuple[int, int]
    known_upper: tuple[int, int]
    needs_pd_import: bool
    note: str


_BY_IMPORT = "attained by a hand-modified closure (import as a PD file)"
_BY_TABLE = "attained by the tabulated diagram"

# The tabulated families T(p, pn + r), n >= 1, keyed by (p, r), in the order
# verify_lemmas checks them.  In each row:
# * word rewrites the torus word as chunks (text, a, b): the letters of text,
#   in the parse_braid grammar, written a*n + b times, chunk after chunk;
# * relation is "equal" when word equals the torus word as a braid, and
#   "cyclic" when it does up to cyclic rotation (the closures still agree);
# * s_b, g_t and dealternating are the all-B circle count, Turaev genus and
#   dealternating number of the closure of word, and known_upper is the best
#   known dealternating upper bound of T(p, q), each a pair (a, b) for a*n + b;
# * needs_pd_import says no diagram built here attains known_upper, and note
#   says what does.
_FAMILIES: dict[tuple[int, int], _Family] = {
    (4, 0): _Family(
        (("1", 2, 0), ("3", 2, 0), ("2132", 2, 0)),
        "equal", (8, -2), (2, 0), (4, 0), (2, 1), True, _BY_IMPORT,
    ),
    (4, 1): _Family(
        (("1", 2, 0), ("3", 2, 0), ("2132", 2, -1), ("2131213", 0, 1)),
        "equal", (8, 1), (2, 0), (4, 0), (2, 1), True, _BY_IMPORT,
    ),
    (4, 2): _Family(
        (("1", 2, 2), ("3", 2, 0), ("2132", 2, 1)),
        "equal", (8, 2), (2, 1), (4, 2), (2, 2), True, _BY_IMPORT,
    ),
    (4, 3): _Family(
        (("1", 2, 2), ("3", 2, 0), ("2132", 2, 0), ("2131213", 0, 1)),
        "equal", (8, 5), (2, 1), (4, 2), (2, 2), True,
        "best known value; the hand-modified closure attains 2n+3, one more than this",
    ),
    (5, 0): _Family(
        (("2311", 0, 1), ("{alpha}", 1, -1), ("234", 0, 1), ("{beta}", 1, -1),
         ("{gamma}43", 0, 1)),
        "equal", (12, -3), (4, 0), (4, 2), (4, 1), True, _BY_IMPORT,
    ),
    (5, 1): _Family(
        (("1323311", 0, 1), ("{alpha}", 1, -1), ("234", 0, 1), ("{beta}", 1, -1),
         ("{gamma}343", 0, 1)),
        "equal", (12, 1), (4, 0), (4, 2), (4, 1), True, _BY_IMPORT,
    ),
    (5, 2): _Family(
        (("1231323311", 0, 1), ("{alpha}", 1, -1), ("234", 0, 1), ("{beta}", 1, -1),
         ("{gamma}3433", 0, 1)),
        "equal", (12, 3), (4, 1), (4, 3), (4, 2), True, _BY_IMPORT,
    ),
    (5, 3): _Family(
        (("12131231323311", 0, 1), ("{alpha}", 1, -1), ("234", 0, 1),
         ("{beta}", 1, -1), ("{gamma}3433", 0, 1)),
        "cyclic", (12, 5), (4, 2), (4, 4), (4, 3), True, _BY_IMPORT,
    ),
    (5, 4): _Family(
        (("2311", 0, 1), ("{alpha}", 1, 0), ("234", 0, 1), ("{beta}", 1, 0),
         ("311231422", 0, 1)),
        "equal", (12, 7), (4, 3), (4, 7), (4, 4), True, _BY_IMPORT,
    ),
    (6, 0): _Family(
        (("2", 0, 1), ("{zeta}323", 1, -1), ("{zeta}234", 0, 1), ("{eta}343", 1, -1),
         ("{eta}43", 0, 1)),
        "equal", (18, -4), (6, 0), (6, 2), (6, 2), False, _BY_TABLE,
    ),
    (6, 1): _Family(
        (("1323", 0, 1), ("{zeta}323", 1, -1), ("{zeta}234", 0, 1),
         ("{eta}343", 1, -1), ("{eta}3435", 0, 1)),
        "equal", (18, 1), (6, 0), (6, 2), (6, 2), False, _BY_TABLE,
    ),
}


def _family(p: int, q: int) -> tuple[_Family | None, int]:
    """The table row of T(p, q) (None outside the table) and its n = q // p."""
    n, r = divmod(q, p) if p >= 1 else (0, 0)
    return (_FAMILIES.get((p, r)) if n >= 1 else None), n


def lemma_word(p: int, q: int) -> BraidWord:
    """The tabulated rewriting of the (p, q) torus word, p in {4, 5, 6}.

    These are the words whose closures have small all-B Kauffman state
    counts; each equals the standard torus word as a braid, or up to cyclic
    rotation where its family's relation is ``"cyclic"``, which
    :func:`verify_lemmas` checks.  Requires q >= p (so n = q // p >= 1) and
    a tabulated residue q % p; raises UnsupportedTorusFamily otherwise.
    """
    family, n = _family(p, q)
    if family is None:
        raise UnsupportedTorusFamily(
            f"no tabulated rewriting for the ({p}, {q}) torus word"
        )
    _check_length((p - 1) * q)  # a rewriting is as long as the torus word
    text = "".join(f"({chunk})^{a * n + b}" for chunk, a, b in family.word)
    return parse_braid(text, p)


@dataclass(frozen=True)
class LemmaCheck:
    """Outcome of one torus-word-vs-rewriting identity check."""

    p: int
    q: int
    n: int
    relation: str  # "equal" or "cyclic"
    crossings: int
    passed: bool


def verify_lemmas(n_max: int = 4) -> list[LemmaCheck]:
    """Check every tabulated rewriting against the torus word for n = 1..n_max.

    A family whose relation is ``"cyclic"`` is checked up to cyclic rotation
    (that is how it holds), all others on the nose; either comparison
    rejects words of different length or permutation before any normal
    form.  ``n_max`` below 1 is a ``ValueError``: it would check nothing;
    one whose longest word is above the cap is a ``WordTooLong``, raised
    before any check runs.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}: no identity to check")
    _check_length(max((p - 1) * (p * n_max + r) for p, r in _FAMILIES))
    results: list[LemmaCheck] = []
    for n in range(1, n_max + 1):
        for (p, r), family in _FAMILIES.items():
            q = p * n + r
            torus = torus_braid_word(p, q)
            same = cyclically_equal if family.relation == "cyclic" else words_equal
            passed = same(lemma_word(p, q), torus)
            results.append(
                LemmaCheck(p, q, n, family.relation, len(torus.letters), passed)
            )
    return results
