"""Braid words, Garside normal forms, and the tabulated torus-word identities."""

import itertools
import pickle
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import rebuilt_cyclically_equal, sweep_normal_form
from torusknot import braid
from torusknot import words as words_module
from torusknot.braid import (
    SearchBudgetExceeded,
    cyclically_equal,
    normal_form,
    underlying_permutation,
    verify_lemmas,
    words_equal,
)
from torusknot.words import (
    BraidWord,
    IndexOutOfRange,
    ParseError,
    StrandMismatch,
    UnknownMacro,
    UnsupportedTorusFamily,
    WordTooLong,
    lemma_word,
    parse_braid,
    torus_braid_word,
)


def test_braid_exports_no_word_name_but_keeps_the_benchmarks():
    # torusknot.words is the one home of the word layer; the benchmark
    # still reads these three through torusknot.braid
    assert not set(words_module.__all__) & set(braid.__all__)
    for name in ("BraidWord", "lemma_word", "torus_braid_word"):
        assert getattr(braid, name) is getattr(words_module, name), name


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
        ("\uff11\uff12", ParseError),  # fullwidth digits one and two
        ("\u0663", ParseError),  # Arabic-Indic three
        ("1^\u00b2", ParseError),  # superscript two
        ("1^1\uff12", ParseError),
        ("1\u30002 1", ParseError),  # ideographic space
        ("1\u00a02", ParseError),  # no-break space
        ("{\u3000alpha}", UnknownMacro),  # macro names trim ASCII whitespace only
    ],
)
def test_parse_errors(text, err):
    with pytest.raises(err, match="at offset"):
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
    monkeypatch.setattr(words_module, "MAX_WORD_LETTERS", 4)  # the module that reads it
    assert parse_braid("1^4", 2).letters == (1,) * 4
    assert torus_braid_word(3, 2).letters == (1, 2, 1, 2)
    for text in ("1^5", "(11)^3", "(11)(11)1", "11 1 1 1", "{delta_p}"):
        with pytest.raises(WordTooLong):
            parse_braid(text, 3)
    with pytest.raises(WordTooLong):
        torus_braid_word(3, 3)


def test_products_and_powers_respect_the_cap():
    # Refused before the letters are built, as parse_braid refuses them.
    one = BraidWord(2, (1,))
    assert len(one**words_module.MAX_WORD_LETTERS) == words_module.MAX_WORD_LETTERS == 65536
    with pytest.raises(WordTooLong, match="of 65537 letters"):
        one**65537
    half = one**32769
    with pytest.raises(WordTooLong, match="of 65538 letters"):
        half * half
    assert len(one**32767 * half) == 65536
    assert BraidWord(2, ()) ** 10**12 == BraidWord(2, ())


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



@pytest.mark.parametrize(
    "strands,letters,bad",
    [
        (3, (1.0, 2), "generator 1.0"),  # would print as the word '1.02'
        (3, (True, 2), "generator True"),
        (3, (1, "2"), "generator '2'"),
        (True, (), "strand count True"),
        (3.0, (1,), "strand count 3.0"),
    ],
)
def test_braid_word_rejects_non_int_letters_and_strands(strands, letters, bad):
    with pytest.raises(TypeError, match=f"^{bad} is not an int$"):
        BraidWord(strands, letters)


def test_braid_word_stores_a_list_as_a_tuple():
    w = BraidWord(3, [1, 2])
    assert w.letters == (1, 2) and w == BraidWord(3, (1, 2))
    assert hash(w) == hash(BraidWord(3, (1, 2)))
    assert (w * w).as_text() == "1212"


@pytest.mark.parametrize("strands", [256, 257])
def test_braid_word_reads_alike_with_and_without_byte_storage(strands):
    # letters are stored as bytes up to 256 strands and as a tuple above
    letters = (1, strands - 1, 2)
    w = BraidWord(strands, letters)
    assert type(w.letters) is tuple and w.letters == letters and len(w) == 3
    assert w == BraidWord(strands, list(letters))
    assert hash(w) == hash((strands, letters))  # not salted per process
    assert (w * w).letters == letters * 2 and w**2 == w * w
    assert w.rotate(1).letters == (strands - 1, 2, 1)
    assert repr(w) == f"BraidWord(strands={strands}, letters={letters!r})"
    assert pickle.loads(pickle.dumps(w)) == w


def test_braid_word_keeps_a_byte_a_letter():
    tracemalloc.start()
    try:
        words = [BraidWord(5, [1, 2, 3, 4] * 16) for _ in range(1000)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(words) == 1000
    assert held < 300_000  # 609 KB with a 64-letter tuple per word, 154 KB with bytes


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


def test_normal_form_matches_the_sweep_oracle_on_random_words():
    rng = random.Random(11)
    for _ in range(300):
        strands = rng.randint(3, 6)
        letters = [rng.randint(1, strands - 1) for _ in range(rng.randint(0, 60))]
        word = BraidWord(strands, letters)
        assert normal_form(word) == sweep_normal_form(word), word.as_text()


def test_normal_form_matches_the_sweep_oracle_on_tabulated_and_torus_words():
    for n in range(1, 5):
        for p, r in braid._FAMILIES:
            for word in (lemma_word(p, p * n + r), torus_braid_word(p, p * n + r)):
                assert normal_form(word) == sweep_normal_form(word), (p, n, r)


def test_normal_form_builds_only_the_letters_it_uses():
    tracemalloc.start()
    try:
        assert normal_form(BraidWord(2000, (1,))).factors == ((2, 1) + tuple(range(3, 2001)),)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000  # a permutation per generator of the strand count peaks at 130 MB


@pytest.mark.parametrize("strands", range(2, 7))
def test_masks_are_the_descents_of_a_permutation_and_its_inverse(strands):
    for pi in itertools.permutations(range(strands)):
        inverse = tuple(pi.index(v) for v in range(strands))
        start = sum(1 << g for g in range(1, strands) if pi[g - 1] > pi[g])
        finish = sum(1 << g for g in range(1, strands) if inverse[g - 1] > inverse[g])
        assert braid._masks(pi) == (start, finish), pi


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
    assert nf.factors == ()
    full = parse_braid("{delta_p}", 4)
    nf = normal_form(full)
    assert nf.infimum == 2
    assert nf.factors == ()
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
    message = (
        "^cyclic-equivalence search exceeded max_states = 1 on 4 strands "
        r"\(words of 3 and 3 letters, states expanded: 1\); the words are too tangled"
    )
    with pytest.raises(SearchBudgetExceeded, match=message):
        cyclically_equal(a, b, max_states=1)
    assert issubclass(SearchBudgetExceeded, RuntimeError)


def _random_word(rng, strands, length):
    return BraidWord(strands, [rng.randint(1, strands - 1) for _ in range(length)])


def _chain_word(strands, chain):
    """A positive word for a chain of 0-based permutation braids."""
    return BraidWord(strands, [g for f in chain for g in braid._permutation_word(f)])


def test_conjugating_by_the_first_letter_gives_the_next_rotation():
    rng = random.Random(17)
    for _ in range(1000):
        word = _random_word(rng, rng.randint(2, 6), rng.randint(0, 40))
        masks = braid._MaskMemo()
        x = braid._word_chain(word, masks)
        for r, g in enumerate(word.letters, 1):
            x = braid._conjugate(word.strands, x, g, masks)
            assert x == braid._word_chain(word.rotate(r), masks), (word.as_text(), r)


def test_atom_conjugates_are_conjugates_by_each_left_divisor():
    rng = random.Random(19)
    for _ in range(1000):
        strands, masks = rng.randint(2, 6), braid._MaskMemo()
        x = braid._word_chain(_random_word(rng, strands, rng.randint(1, 40)), masks)
        divisors = [g for g in range(1, strands) if x[0][g - 1] > x[0][g]]
        conjugates = list(braid._atom_conjugates(strands, x, masks))
        assert len(conjugates) == len(divisors) >= 1
        word_x = _chain_word(strands, x)
        for g, y in zip(divisors, conjugates):
            sigma = BraidWord(strands, (g,))
            assert words_equal(sigma * _chain_word(strands, y), word_x * sigma), (word_x, g)


def _outcome(search, a, b, max_states):
    try:
        return search(a, b, max_states)
    except SearchBudgetExceeded:
        return "budget"


def test_cyclic_search_matches_the_rebuilt_search_oracle():
    """Same answers and same budget failures as rebuilding every conjugate from letters.

    Small budgets stop the search after its first few states, so a changed
    visiting order changes which of them find the target.
    """
    rng = random.Random(23)
    outcomes = []
    for i in range(320):
        strands = rng.randint(2, 6)
        a = _random_word(rng, strands, rng.randint(1, 12))
        if i % 2:  # cyclically equal: rotations interleaved with braid relations
            letters = list(a.letters)
            for _ in range(rng.randint(1, 30)):
                if rng.random() < 0.3:
                    letters = letters[1:] + letters[:1]
                else:
                    letters = _random_rewrite(rng, letters)
            b = BraidWord(strands, letters)
        else:
            b = _random_word(rng, strands, len(a.letters))
        for max_states in (1, 2, 5, 200_000):
            expected = _outcome(rebuilt_cyclically_equal, a, b, max_states)
            assert _outcome(cyclically_equal, a, b, max_states) == expected, (a, b, max_states)
            outcomes.append((i % 2, max_states, expected))
    assert outcomes.count((1, 200_000, True)) == 160
    assert outcomes.count((0, 200_000, False)) >= 80
    assert {"budget", True, False} <= {o for _, m, o in outcomes if m == 1}


@pytest.mark.parametrize("max_states", [True, 1.5, "2", None])
def test_cyclic_search_refuses_a_max_states_that_is_not_an_int(max_states):
    # True would otherwise run as a budget of 1 state, and 1.5 would be a float cap
    with pytest.raises(TypeError, match=re.escape(f"max_states {max_states!r} is not an int")):
        cyclically_equal(BraidWord(3, (1,)), BraidWord(3, (1,)), max_states=max_states)


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


@pytest.mark.parametrize(
    "build,p,q",
    [
        (torus_braid_word, 3, 2.5),
        (torus_braid_word, 3.0, 2),
        (torus_braid_word, True, 3),
        (torus_braid_word, 3, True),
        (torus_braid_word, "3", 2),
        (lemma_word, 5, 8.0),
        (lemma_word, 5.0, 8),
        (lemma_word, 4, True),
        (lemma_word, True, 4),
    ],
)
def test_torus_words_reject_non_int_parameters(build, p, q):
    with pytest.raises(TypeError, match="torus parameters must be ints"):
        build(p, q)


def test_lemma_word_matches_its_family_table_as_one_text():
    """The chunks written out as '(text)^count' and parsed in one go."""
    for (p, r), family in braid._FAMILIES.items():
        for n in (1, 2, 5):
            text = "".join(f"({chunk})^{a * n + b}" for chunk, a, b in family.word)
            assert lemma_word(p, p * n + r) == parse_braid(text, p)


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


def test_five_three_conjugator_replays():
    """word * sigma_2 == sigma_2 * torus word for T(5, 5n + 3), n = 1..6."""
    c = parse_braid(braid._FAMILIES[(5, 3)].conjugator, 5)
    assert c == BraidWord(5, (2,))
    for n in range(1, 7):
        word, torus = lemma_word(5, 5 * n + 3), torus_braid_word(5, 5 * n + 3)
        assert words_equal(word * c, c * torus)
        assert not words_equal(word, torus)
        # the search agrees, and sigma_2 left-divides the word, so one rotation suffices
        assert cyclically_equal(word, torus)
        masks = braid._MaskMemo()
        conjugates = braid._atom_conjugates(5, braid._word_chain(word, masks), masks)
        assert braid._word_chain(torus, masks) in set(conjugates)


def test_searched_five_eight_word_is_cyclically_equal_to_the_torus_word():
    """The T(5,8) word of g_T = 5 that ROADMAP item 1c wants certified."""
    word = parse_braid("22134331333211332133123341333213", 5)
    assert cyclically_equal(word, torus_braid_word(5, 8))
    assert not words_equal(word, torus_braid_word(5, 8))


def test_verify_lemmas_searches_nothing(monkeypatch):
    def search(a, b, max_states=0):
        raise AssertionError("verify_lemmas ran a cyclic search")

    monkeypatch.setattr(braid, "cyclically_equal", search)
    checks = verify_lemmas(n_max=2)
    assert len(checks) == 22 and all(c.passed for c in checks)


def test_verify_lemmas_fails_without_the_conjugator(monkeypatch):
    row = braid._FAMILIES[(5, 3)]
    monkeypatch.setitem(braid._FAMILIES, (5, 3), row._replace(conjugator=""))
    failed = [(c.p, c.q, c.relation) for c in verify_lemmas(n_max=2) if not c.passed]
    assert failed == [(5, 8, "equal"), (5, 13, "equal")]


@pytest.mark.parametrize("n_max", [0, -1])
def test_verify_lemmas_refuses_an_empty_range(n_max):
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        verify_lemmas(n_max=n_max)


@pytest.mark.parametrize("n_max", [True, 1.5, "2"])
def test_verify_lemmas_refuses_an_n_max_that_is_not_an_int(n_max):
    # True would otherwise run as n_max=1 and report 11 checks
    with pytest.raises(TypeError, match=re.escape(f"n_max {n_max!r} is not an int")):
        verify_lemmas(n_max)
