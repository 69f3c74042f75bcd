"""Braid words, Garside normal forms, and the tabulated torus-word identities."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusknot import braid
from torusknot.braid import (
    BraidWord,
    IndexOutOfRange,
    ParseError,
    SearchBudgetExceeded,
    StrandMismatch,
    UnknownMacro,
    UnsupportedTorusFamily,
    WordTooLong,
    cyclically_equal,
    lemma_word,
    normal_form,
    parse_braid,
    permutation_cycles,
    torus_braid_word,
    underlying_permutation,
    verify_lemmas,
    words_equal,
)


# ----------------------------------------------------------------------
# parsing


def test_parse_basic_grammar():
    assert parse_braid("(123)^2 1^3", 4).as_text() == "123123111"
    assert parse_braid("1 2 3", 4).letters == (1, 2, 3)
    assert parse_braid("((12)^2)^2", 3).as_text() == "12121212"
    assert parse_braid("", 5).letters == ()


def test_parse_macros():
    assert parse_braid("{alpha}", 5).letters == (3, 2, 3, 3, 1, 1)
    assert parse_braid("{delta_p}", 4) == torus_braid_word(4, 4)
    assert parse_braid("2 {gamma} 2", 5).as_text() == "2311231123112"


def test_exponent_takes_every_following_digit():
    assert parse_braid("(1)^32", 2).letters == (1,) * 32
    assert parse_braid("(1)^3 2", 3).as_text() == "1112"


def test_parse_macro_power():
    assert parse_braid("{alpha}^2", 5).letters == (3, 2, 3, 3, 1, 1) * 2


@pytest.mark.parametrize(
    "text,err",
    [
        ("{nosuch}", UnknownMacro),
        ("{alpha", ParseError),
        ("4", IndexOutOfRange),
        ("(12", ParseError),
        (")", ParseError),
        ("^2", ParseError),
        ("1^-2", ParseError),
        ("1^", ParseError),
        ("x", ParseError),
    ],
)
def test_parse_errors(text, err):
    with pytest.raises(err):
        parse_braid(text, 4)


def test_deep_nesting_is_a_parse_error():
    assert parse_braid("(" * 200 + "1" + ")" * 200, 3).as_text() == "1"
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_braid("(" * 3000 + "1" + ")" * 3000, 3)


def test_word_length_cap(monkeypatch):
    with pytest.raises(WordTooLong, match="above the cap"):
        parse_braid("(1)^99999999999", 2)
    with pytest.raises(WordTooLong):
        parse_braid("{delta_p}", 100000)
    with pytest.raises(WordTooLong):
        torus_braid_word(100000, 100001)
    with pytest.raises(WordTooLong):
        lemma_word(4, 40000000001)
    monkeypatch.setattr(braid, "MAX_WORD_LETTERS", 4)
    assert parse_braid("1^4", 2).letters == (1,) * 4
    assert torus_braid_word(3, 2).letters == (1, 2, 1, 2)
    for text in ("1^5", "(11)^3", "(11)(11)1", "11 1 1 1", "{delta_p}"):
        with pytest.raises(WordTooLong):
            parse_braid(text, 3)
    with pytest.raises(WordTooLong):
        torus_braid_word(3, 3)


def test_macro_generator_out_of_range():
    with pytest.raises(IndexOutOfRange):
        parse_braid("{alpha}", 3)


def test_braid_word_validation_and_ops():
    with pytest.raises(IndexOutOfRange):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(0, ())
    w = BraidWord(4, (1, 2, 3))
    assert (w * w).letters == (1, 2, 3, 1, 2, 3)
    assert (w**3).letters == w.letters * 3
    assert w.rotate(1).letters == (2, 3, 1)
    assert w.rotate(0) == w
    with pytest.raises(StrandMismatch):
        w * BraidWord(5, (1,))


# ----------------------------------------------------------------------
# permutations


def test_underlying_permutation_generators():
    assert underlying_permutation(BraidWord(2, (1,))) == (2, 1)
    assert underlying_permutation(BraidWord(3, ())) == (1, 2, 3)
    assert underlying_permutation(torus_braid_word(3, 3)) == (1, 2, 3)
    # (sigma_1 sigma_2 ... sigma_{p-1}) cycles the strands.
    assert underlying_permutation(torus_braid_word(4, 1)) in (
        (4, 1, 2, 3),
        (2, 3, 4, 1),
    )


def test_permutation_cycles_counts():
    assert permutation_cycles((1, 2, 3, 4, 5)) == 5
    assert permutation_cycles((2, 1, 3)) == 2
    assert permutation_cycles((2, 3, 4, 1)) == 1


def test_square_of_single_letter_is_pure():
    word = BraidWord(4, (2, 2))
    assert underlying_permutation(word) == (1, 2, 3, 4)


# ----------------------------------------------------------------------
# normal forms and the word problem


words = st.integers(2, 6).flatmap(
    lambda p: st.lists(st.integers(1, p - 1), min_size=1, max_size=24).map(
        lambda letters: BraidWord(p, tuple(letters))
    )
)


def _random_rewrite(rng, letters):
    moves = []
    for i in range(len(letters) - 1):
        if abs(letters[i] - letters[i + 1]) >= 2:
            moves.append(("c", i))
    for i in range(len(letters) - 2):
        if abs(letters[i] - letters[i + 1]) == 1 and letters[i + 2] == letters[i]:
            moves.append(("b", i))
    if not moves:
        return letters
    kind, i = rng.choice(moves)
    out = list(letters)
    if kind == "c":
        out[i], out[i + 1] = out[i + 1], out[i]
    else:
        a, b = out[i], out[i + 1]
        out[i], out[i + 1], out[i + 2] = b, a, b
    return out


@settings(max_examples=150, deadline=None)
@given(words, st.integers(0, 2**32 - 1))
def test_normal_form_invariant_under_rewrites(word, seed):
    rng = random.Random(seed)
    nf = normal_form(word)
    letters = list(word.letters)
    for _ in range(40):
        letters = _random_rewrite(rng, letters)
    assert normal_form(BraidWord(word.strands, tuple(letters))) == nf


@settings(max_examples=150, deadline=None)
@given(words)
def test_normal_form_idempotent_and_word_faithful(word):
    nf = normal_form(word)
    rebuilt = nf.word()
    assert normal_form(rebuilt) == nf
    assert words_equal(rebuilt, word)
    assert underlying_permutation(rebuilt) == underlying_permutation(word)


def test_braid_relations_hold():
    assert words_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))
    assert words_equal(BraidWord(4, (1, 3)), BraidWord(4, (3, 1)))
    assert not words_equal(BraidWord(3, (1, 2)), BraidWord(3, (2, 1)))
    assert not words_equal(BraidWord(3, (1,)), BraidWord(3, (1, 1)))


def test_full_twist_is_central():
    rng = random.Random(7)
    for strands in (3, 4, 5):
        twist = torus_braid_word(strands, strands)
        for _ in range(10):
            letters = tuple(
                rng.randint(1, strands - 1) for _ in range(rng.randint(1, 12))
            )
            w = BraidWord(strands, letters)
            assert words_equal(w * twist, twist * w)


def test_normal_form_counts_half_twists():
    # The half twist on 4 strands.
    half = parse_braid("121321", 4)
    nf = normal_form(half)
    assert nf.infimum == 1
    assert nf.canonical_length() == 0
    full = parse_braid("{delta_p}", 4)
    nf = normal_form(full)
    assert nf.infimum == 2
    assert nf.canonical_length() == 0
    assert normal_form(BraidWord(4, ())).infimum == 0


def test_strand_mismatch_raises():
    with pytest.raises(StrandMismatch):
        words_equal(BraidWord(3, (1,)), BraidWord(4, (1,)))
    with pytest.raises(StrandMismatch):
        cyclically_equal(BraidWord(3, (1,)), BraidWord(4, (1,)))


# ----------------------------------------------------------------------
# cyclic equality


def test_cyclic_equality_by_rotation():
    a = BraidWord(4, (1, 1, 2, 3))
    assert cyclically_equal(a, a.rotate(2))
    assert cyclically_equal(a.rotate(3), a)


def test_cyclic_equality_needs_interleaved_relations():
    """Conjugation seen only after a braid relation, not by pure rotation."""
    torus = torus_braid_word(5, 8)
    word = lemma_word(5, 8)
    assert cyclically_equal(word, torus)
    rotations = any(
        words_equal(word.rotate(r), torus) for r in range(len(word.letters))
    )
    assert not rotations  # rotation scan alone cannot certify this pair


def test_cyclic_inequality():
    assert not cyclically_equal(BraidWord(3, (1,)), BraidWord(3, (2,)))
    assert not cyclically_equal(BraidWord(3, (1, 1, 1)), BraidWord(3, (1, 2, 2)))
    assert not cyclically_equal(BraidWord(3, (1, 1)), BraidWord(3, (1, 1, 1)))
    # Different permutation cycle types are rejected without any search.
    assert not cyclically_equal(
        torus_braid_word(5, 8), BraidWord(5, (1,) * 8 + (2,) * 8 + (3,) * 8 + (4,) * 8)
    )


def test_cyclic_search_budget_is_a_named_runtime_error():
    # Same cycle type and no equal rotation, so the orbit search must run.
    a, b = BraidWord(4, (1, 1, 2)), BraidWord(4, (1, 1, 1))
    assert not cyclically_equal(a, b)
    with pytest.raises(SearchBudgetExceeded, match="max_states = 1"):
        cyclically_equal(a, b, max_states=1)
    assert issubclass(SearchBudgetExceeded, RuntimeError)


def test_cyclic_equality_respects_conjugation_by_letter():
    rng = random.Random(3)
    for _ in range(20):
        strands = rng.randint(3, 5)
        letters = tuple(rng.randint(1, strands - 1) for _ in range(rng.randint(2, 10)))
        w = BraidWord(strands, letters)
        g = BraidWord(strands, (rng.randint(1, strands - 1),))
        assert cyclically_equal(w * g, g * w)


# ----------------------------------------------------------------------
# torus words and the tabulated rewritings


def test_torus_braid_word_shape():
    word = torus_braid_word(4, 5)
    assert word.strands == 4
    assert word.letters == (1, 2, 3) * 5
    assert torus_braid_word(1, 7).letters == ()
    with pytest.raises(ValueError):
        torus_braid_word(0, 3)


def test_lemma_word_crossing_counts():
    assert len(lemma_word(6, 6).letters) == 30
    assert len(lemma_word(6, 7).letters) == 35
    for p, q in ((4, 4), (4, 7), (5, 9), (6, 13)):
        assert len(lemma_word(p, q).letters) == (p - 1) * q


@pytest.mark.parametrize("p,q", [(7, 8), (6, 14), (6, 15), (4, 3), (5, 4), (3, 7)])
def test_lemma_word_unsupported_families(p, q):
    with pytest.raises(UnsupportedTorusFamily):
        lemma_word(p, q)


def test_verify_lemmas_smallest_case():
    checks = verify_lemmas(n_max=1)
    assert len(checks) == 11
    assert all(c.passed for c in checks)
    relations = {(c.p, c.q): c.relation for c in checks}
    assert relations[(5, 8)] == "cyclic"
    assert sum(1 for r in relations.values() if r == "cyclic") == 1
    assert {c.crossings for c in checks} == {
        (p - 1) * q for (p, q) in relations
    }


@pytest.mark.parametrize("n_max", [0, -1])
def test_verify_lemmas_refuses_an_empty_range(n_max):
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        verify_lemmas(n_max=n_max)
