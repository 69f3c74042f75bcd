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

The word type, its parser and the torus words live in
:mod:`torusknot.words`.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, NamedTuple, Sequence

from .words import _FAMILIES, BraidWord, StrandMismatch, _check_length
from .words import lemma_word, parse_braid, torus_braid_word

__all__ = [
    "SearchBudgetExceeded", "NormalForm", "LemmaCheck", "underlying_permutation",
    "normal_form", "words_equal", "cyclically_equal", "verify_lemmas",
]


class SearchBudgetExceeded(RuntimeError):
    """A search ran out of its state budget before reaching a decision."""


# ----------------------------------------------------------------------
# permutations (internal arrays are 0-indexed; public tuples are 1-based)


def underlying_permutation(word: BraidWord) -> tuple[int, ...]:
    """Where each strand ends up: bottom position j goes to top position perm[j-1].

    Positions are 1-based.  This is a monoid homomorphism for bottom-first
    composition: ``perm(v*w)[j] = perm(w)[perm(v)[j]]``.

    >>> underlying_permutation(parse_braid("(123)^5", 4))
    (4, 1, 2, 3)
    """
    return tuple(v + 1 for v in _perm0(word._letters, word.strands))


def _cycle_lengths(perm: Sequence[int]) -> list[int]:
    """Cycle lengths of a 0-based permutation array, in traversal order."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if not seen[start]:
            size = 0
            j = start
            while not seen[j]:
                seen[j] = True
                size += 1
                j = perm[j]
            lengths.append(size)
    return lengths


def _perm0(word_letters: Sequence[int], p: int) -> tuple[int, ...]:
    """0-indexed end-position array of a letter sequence."""
    strand_at = list(range(p))
    for g in word_letters:
        strand_at[g - 1], strand_at[g] = strand_at[g], strand_at[g - 1]
    pi = [0] * p
    for pos, s in enumerate(strand_at):
        pi[s] = pos
    return tuple(pi)


def _masks(pi: Sequence[int]) -> tuple[int, int]:
    """The (starting, finishing) generator sets of a permutation braid, as bitmasks.

    Bit g stands for sigma_g.  It is in the starting set when pi has a
    descent at g, and in the finishing set when the inverse of pi has one:
    the strands ending at top positions g-1 and g start out in the other order.
    """
    where = [0] * len(pi)
    for j, v in enumerate(pi):
        where[v] = j
    start = finish = 0
    for g in range(1, len(pi)):
        if pi[g - 1] > pi[g]:
            start |= 1 << g
        if where[g - 1] > where[g]:
            finish |= 1 << g
    return start, finish


class _MaskMemo(dict):
    """Permutation -> ``_masks(permutation)``, each computed on first lookup."""

    def __missing__(self, pi: tuple[int, ...]) -> tuple[int, int]:
        m = self[pi] = _masks(pi)
        return m


def _append_letter(pi: Sequence[int], g: int) -> tuple[int, ...]:
    """pi followed by one crossing sigma_g (swap the values g-1, g)."""
    out = list(pi)
    out[pi.index(g - 1)], out[pi.index(g)] = g, g - 1
    return tuple(out)


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
        start = _masks(cur)[0]
        if not start:
            return tuple(out)
        g = (start & -start).bit_length() - 1  # the lowest set bit
        out.append(g)
        cur = _strip_leading_letter(cur, g)


class NormalForm(NamedTuple):
    """Left-greedy normal form: halftwist^infimum followed by the factors.

    ``infimum`` counts leading copies of the positive half twist (the
    permutation-braid square root of the full twist; a full twist contributes
    two).  ``factors`` are the remaining permutation braids as 1-based
    permutation tuples, none trivial, each adjacent pair left-weighted.
    """

    strands: int
    infimum: int
    factors: tuple[tuple[int, ...], ...]

    def word(self) -> BraidWord:
        """Re-expand the normal form to a concrete positive word."""
        half = tuple(range(self.strands - 1, -1, -1))
        chain = [half] * self.infimum + [tuple(v - 1 for v in f) for f in self.factors]
        return BraidWord(self.strands, [g for f in chain for g in _permutation_word(f)])


def normal_form(word: BraidWord) -> NormalForm:
    """Compute the left-greedy normal form of a positive word.

    The one conversion of a left-weighted chain (see :func:`_left_weight`)
    to a NormalForm: the chain's leading half twists are the infimum.

    >>> nf = normal_form(parse_braid("(121)", 3))
    >>> nf.infimum, nf.factors
    (1, ())
    """
    chain = _word_chain(word, _MaskMemo())
    infimum = chain.count(tuple(range(word.strands - 1, -1, -1)))  # all at the front
    factors = tuple(tuple(v + 1 for v in f) for f in chain[infimum:])
    return NormalForm(strands=word.strands, infimum=infimum, factors=factors)


def _word_chain(word: BraidWord, masks: _MaskMemo) -> tuple:
    """The left-weighted chain of a positive word: every letter starts as
    its own factor, and :func:`_left_weight` sweeps them.  Only the
    generators the word uses get a permutation, so a short word on many
    strands stays cheap."""
    p = word.strands
    letter = {g: _perm0((g,), p) for g in set(word._letters)}
    factors = [letter[g] for g in word._letters]
    start = [1 << g for g in word._letters]
    finish = start[:]  # a crossing starts and finishes with its one generator
    return _left_weight(factors, start, finish, masks)


def _left_weight(factors: list, start: list, finish: list, masks: _MaskMemo) -> tuple:
    """The left-weighted chain of a list of 0-based permutation braids:
    the normal form as one tuple of 0-based permutations, half twists
    included and trivial factors dropped, equal exactly when the braids are.

    ``start`` and ``finish`` hold each factor's starting and finishing sets
    as int bitmasks (bit g for sigma_g), and ``masks`` memoises ``_masks``.
    Sweeps over adjacent pairs run to a fixed point: while some generator
    starts the right factor but does not finish the left one, the least
    such generator moves across.  A left-weighted pair is one test,
    ``start[i+1] & ~finish[i] == 0``.  The three lists are consumed.
    """
    changed = True
    while changed:
        changed = False
        if 0 in start:  # drop the trivial factors: their starting sets are empty
            kept = [i for i, s in enumerate(start) if s]
            factors = [factors[i] for i in kept]
            start = [start[i] for i in kept]
            finish = [finish[i] for i in kept]
        for i in range(len(factors) - 1):
            movable = start[i + 1] & ~finish[i]
            if not movable:
                continue
            a, b = factors[i], factors[i + 1]
            while movable:
                g = (movable & -movable).bit_length() - 1  # the least one
                a = _append_letter(a, g)
                b = _strip_leading_letter(b, g)
                movable = masks[b][0] & ~masks[a][1]
            factors[i], factors[i + 1] = a, b
            start[i], finish[i] = masks[a]
            start[i + 1], finish[i + 1] = masks[b]
            changed = True
    return tuple(f for f, s in zip(factors, start) if s)


def _check_same_strands(a: BraidWord, b: BraidWord) -> None:
    if a.strands != b.strands:
        raise StrandMismatch(f"cannot compare words on {a.strands} and {b.strands} strands")


def words_equal(a: BraidWord, b: BraidWord) -> bool:
    """Whether two positive words present the same braid-group element."""
    _check_same_strands(a, b)
    if len(a) != len(b):
        return False  # positive relations preserve length
    if underlying_permutation(a) != underlying_permutation(b):
        return False
    return normal_form(a) == normal_form(b)


def _conjugate(p: int, chain: tuple, g: int, masks: _MaskMemo) -> tuple:
    """The left-weighted chain of g^{-1} x g, for x the left-weighted ``chain``
    on p strands and a generator g left-dividing x: g leaves the front of
    the chain and sigma_g joins its end."""
    factors = [_strip_leading_letter(chain[0], g), *chain[1:], _perm0((g,), p)]
    start, finish = map(list, zip(*map(masks.__getitem__, factors)))
    return _left_weight(factors, start, finish, masks)


def _atom_conjugates(p: int, chain: tuple, masks: _MaskMemo) -> Iterator[tuple]:
    """Chains of g^{-1} x g for each generator g left-dividing x, g ascending.

    Rotating one letter of a positive word conjugates its braid by that
    letter; modulo the braid relations a word for x can begin with exactly
    the generators in the starting set of its first normal-form factor, and
    conjugating by such a generator keeps the braid positive.
    """
    first = masks[chain[0]][0]  # x is a nonempty word
    for g in range(1, p):
        if first >> g & 1:
            yield _conjugate(p, chain, g, masks)


def cyclically_equal(a: BraidWord, b: BraidWord, max_states: int = 200_000) -> bool:
    """Whether ``a`` and ``b`` are related by braid relations and cyclic moves.

    Two positive words are cyclically equal when a chain of braid relations
    and single-letter rotations turns one into the other (so their closures
    are the same diagram up to isotopy).  The chain may interleave the two
    move types, so rotations of the literal input words are not enough;
    after the quick rotation scan this searches the orbit of ``a`` under
    conjugation by left-dividing generators, which generates exactly the
    same equivalence.  Both are :func:`_conjugate` moves on left-weighted
    chains (normal forms as tuples of 0-based permutations, see
    :func:`_left_weight`): rotation r of ``a`` is rotation r - 1 conjugated
    by its first letter.
    ``max_states`` caps the orbit search; a :class:`SearchBudgetExceeded`
    (a RuntimeError) reports an inconclusive (too large) search, with the
    strand count, word lengths and states expanded, rather than guessing.
    A ``max_states`` that is not an int is a ``TypeError``.
    """
    if type(max_states) is not int:  # bools are ints to isinstance
        raise TypeError(f"max_states {max_states!r} is not an int")
    _check_same_strands(a, b)
    if len(a) != len(b):
        return False
    if not a._letters:
        return True
    # the cycle type of the permutation is a conjugation invariant
    cycle_type = lambda w: sorted(_cycle_lengths(_perm0(w._letters, w.strands)))
    if cycle_type(a) != cycle_type(b):
        return False
    p, masks = a.strands, _MaskMemo()
    target, start = _word_chain(b, masks), _word_chain(a, masks)
    move = lambda x, g: _conjugate(p, x, g, masks)
    if target in accumulate(a._letters[:-1], move, initial=start):
        return True  # the scan is lazy: it stops at the first equal rotation
    seen, queue = {start}, [start]
    # breadth first: the queue grows while it is walked
    for expanded, x in enumerate(queue, 1):
        for y in _atom_conjugates(p, x, masks):
            if y == target:
                return True
            if y not in seen:
                seen.add(y)
                queue.append(y)
                if len(seen) > max_states:
                    raise SearchBudgetExceeded(
                        f"cyclic-equivalence search exceeded max_states = {max_states} "
                        f"on {a.strands} strands (words of {len(a)} and {len(b)} "
                        f"letters, states expanded: {expanded}); "
                        "the words are too tangled to decide within budget"
                    )
    return False



# ----------------------------------------------------------------------
# the tabulated rewrite identities, replayed


class LemmaCheck(NamedTuple):
    """Outcome of one torus-word-vs-rewriting identity check."""

    p: int
    q: int
    n: int
    relation: str  # "equal", or "cyclic" when the family has a conjugator
    crossings: int
    passed: bool


def verify_lemmas(n_max: int = 4) -> list[LemmaCheck]:
    """Check every tabulated rewriting against the torus word for n = 1..n_max.

    Each family is decided alike, with c its conjugator word (often empty):
    ``words_equal(word * c, c * torus)`` rejects words of different length
    or permutation before any normal form, and nothing is searched.  The
    relation reads ``"cyclic"`` where c is not empty.  ``n_max`` below 1 is
    a ``ValueError``: it would check nothing; one whose longest word is
    above the cap is a ``WordTooLong``, raised before any check runs, and
    one that is not an int is a ``TypeError``.
    """
    if type(n_max) is not int:  # bools are ints to isinstance
        raise TypeError(f"n_max {n_max!r} is not an int")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}: no identity to check")
    _check_length(max((p - 1) * (p * n_max + r) for p, r in _FAMILIES))
    results: list[LemmaCheck] = []
    for n in range(1, n_max + 1):
        for (p, r), family in _FAMILIES.items():
            q = p * n + r
            torus = torus_braid_word(p, q)
            c = parse_braid(family.conjugator, p)
            passed = words_equal(lemma_word(p, q) * c, c * torus)
            relation = "cyclic" if c.letters else "equal"
            results.append(LemmaCheck(p, q, n, relation, len(torus.letters), passed))
    return results
