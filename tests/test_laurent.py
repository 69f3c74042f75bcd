"""Exact Laurent polynomial arithmetic."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusknot.laurent import LaurentPolynomial, NonExactDivision

terms = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(-9, 9)), min_size=0, max_size=8
)
polys = st.builds(LaurentPolynomial.from_terms, terms)


# ----------------------------------------------------------------------
# construction and representation


def test_zero_and_one():
    zero = LaurentPolynomial.zero()
    one = LaurentPolynomial.one()
    assert zero.is_zero()
    assert not one.is_zero()
    assert zero.to_text() == "0"
    assert one.to_text() == "1"
    assert not zero
    assert one


def test_from_terms_accumulates_and_cancels():
    p = LaurentPolynomial.from_terms([(2, 1), (2, -1), (0, 3)])
    assert p == LaurentPolynomial.from_terms({0: 3})
    assert p.support() == [0]


def test_monomial():
    m = LaurentPolynomial.monomial(-3, 5)
    assert list(m.terms()) == [(-3, 5)]
    assert m.to_text() == "5t^{-3}"


def test_text_rendering_matches_typeset_style():
    p = LaurentPolynomial.from_terms(
        {-6: 1, -5: -1, -2: 1, 0: -1, 2: 1, 5: -1, 6: 1}
    )
    assert p.to_text() == "t^{-6}-t^{-5}+t^{-2}-1+t^2-t^5+t^6"
    assert LaurentPolynomial.from_terms({-1: 1, 0: -1, 1: 1}).to_text() == "t^{-1}-1+t"
    assert LaurentPolynomial.from_terms({10: 2, -12: -3}).to_text() == "-3t^{-12}+2t^{10}"


def test_parse_whitespace_and_braces():
    assert LaurentPolynomial.from_text(" t^{-1} - 1 + t ") == LaurentPolynomial.from_terms(
        {-1: 1, 0: -1, 1: 1}
    )
    assert LaurentPolynomial.from_text("0") == LaurentPolynomial.zero()
    assert LaurentPolynomial.from_text("-t^2+t^{11}") == LaurentPolynomial.from_terms(
        {2: -1, 11: 1}
    )
    assert LaurentPolynomial.from_text(" - 2 t ^ { - 12 }\t+ t ^ - 3 + 4 ") == (
        LaurentPolynomial.from_terms({-12: -2, -3: 1, 0: 4})
    )


# The last five once parsed as 2+t, 2t, 3+2t, t^{23} and 12: a term after the
# first needs its sign, and whitespace may not split a number.
@pytest.mark.parametrize(
    "bad",
    ["", "t^", "t^{3", "q+1", "1+", "t^{}", "t^{1 2}", "t2", "tt", "2t3", "t^2 3", "1 2"],
)
def test_parse_rejects_malformed_text(bad):
    with pytest.raises(ValueError):
        LaurentPolynomial.from_text(bad)


def test_parse_error_offset_indexes_the_given_text():
    # the offset once indexed a copy with the whitespace removed, and read 3
    with pytest.raises(ValueError, match=r"^malformed term at offset 8 in '1 \+  t  t'$"):
        LaurentPolynomial.from_text("1 +  t  t")
    with pytest.raises(ValueError, match="at offset 2 in '  \\^'"):
        LaurentPolynomial.from_text("  ^")


def test_immutable():
    p = LaurentPolynomial.one()
    with pytest.raises(AttributeError):
        p.min_exponent = 5
    assert p.coefficients == (1,)
    with pytest.raises(TypeError):
        p.coefficients[0] = 2


@pytest.mark.parametrize(
    "p", [LaurentPolynomial(-1, [1, -1, 1]), LaurentPolynomial.zero()], ids=str
)
def test_survives_pickle_and_copy(p):
    for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
        assert twin == p and type(twin) is LaurentPolynomial
        assert (twin.min_exponent, twin.coefficients) == (p.min_exponent, p.coefficients)


# ----------------------------------------------------------------------
# ring structure


@settings(max_examples=200, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c
    assert a + LaurentPolynomial.zero() == a
    assert a * LaurentPolynomial.one() == a
    assert a * LaurentPolynomial.zero() == LaurentPolynomial.zero()


@settings(max_examples=200, deadline=None)
@given(polys, polys)
def test_addition_subtraction_roundtrip(a, b):
    assert (a + b) - b == a
    assert -(-a) == a
    assert a - a == LaurentPolynomial.zero()


@settings(max_examples=200, deadline=None)
@given(polys)
def test_pow_and_shift(a):
    assert a**0 == LaurentPolynomial.one()
    assert a**3 == a * a * a
    assert a.shift(4) == a * LaurentPolynomial.monomial(4)
    assert a.shift(-2).shift(2) == a


@settings(max_examples=300, deadline=None)
@given(polys, polys)
def test_division_roundtrip(a, b):
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.exact_div(b)
        return
    assert (a * b).exact_div(b) == a


@settings(max_examples=200, deadline=None)
@given(polys, st.integers(1, 9))
def test_division_by_cyclotomic_shape(a, m):
    """The fast path: divisors of the form t^m - 1."""
    divisor = LaurentPolynomial.from_terms({m: 1, 0: -1})
    assert (a * divisor).exact_div(divisor) == a
    with pytest.raises(NonExactDivision):
        (a * divisor + LaurentPolynomial.one()).exact_div(divisor)


big_polys = st.builds(
    LaurentPolynomial.from_terms,
    st.lists(
        st.tuples(st.integers(-8, 8), st.integers(-(2**200), 2**200)), max_size=8
    ),
)


def _at_three(a: LaurentPolynomial) -> Fraction:
    """a(3), summed term by term: a check independent of the arithmetic."""
    return sum((c * Fraction(3) ** e for e, c in a.terms()), Fraction(0))


@settings(max_examples=200, deadline=None)
@given(big_polys, big_polys, big_polys, st.integers(-(2**200), 2**200))
def test_ring_laws_with_big_coefficients(a, b, c, k):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert (a + b) * c == a * c + b * c
    assert (a - b) + b == a and -(-a) == a
    assert a * k == k * a == a * LaurentPolynomial(0, [k])
    assert _at_three(a * b) == _at_three(a) * _at_three(b)
    assert _at_three(a - b * k) == _at_three(a) - _at_three(b) * k
    if not b.is_zero():
        assert (a * b).exact_div(b) == a
    assert LaurentPolynomial.from_text(a.to_text()) == a


@settings(max_examples=300, deadline=None)
@given(polys)
def test_text_roundtrip(a):
    assert LaurentPolynomial.from_text(a.to_text()) == a


@settings(max_examples=200, deadline=None)
@given(polys)
def test_hash_consistent_with_eq(a):
    twin = LaurentPolynomial.from_terms(a.terms())
    assert twin == a
    assert hash(twin) == hash(a)


@pytest.mark.parametrize("c", [0, 1, -1, 5, -7, 2**40])
def test_constants_hash_like_ints(c):
    poly = LaurentPolynomial(0, [c])
    assert poly == c
    assert hash(poly) == hash(c)
    assert {poly} == {c} and len({poly, c}) == 1
    assert {c: "int"}[poly] == "int"
    assert {poly: "poly"}[c] == "poly"


def test_zero_polynomial_hashes_like_zero():
    assert hash(LaurentPolynomial.zero()) == hash(0)
    assert {LaurentPolynomial.zero(): 1}[0] == 1
    # a monomial away from t^0 is not a constant
    assert LaurentPolynomial.monomial(3, 5) != 5


def test_division_type_errors():
    one = LaurentPolynomial.one()
    with pytest.raises(TypeError):
        one.exact_div(3)
    with pytest.raises(NonExactDivision):
        one.exact_div(LaurentPolynomial.from_terms({1: 1, 0: -1}))


def test_negative_pow_rejected():
    with pytest.raises(ValueError):
        LaurentPolynomial.one() ** -1


def test_overflow_guard():
    # Coefficients are Python ints: a product past int64 is exact, not an error.
    big = LaurentPolynomial.from_terms({0: 2**40})
    assert big * big == LaurentPolynomial(0, [2**80])
    assert (big * big).coefficients == (2**80,)


_HUGE = LaurentPolynomial(0, [1, 2**62])
_INT64_MIN = LaurentPolynomial(0, [-(2**63)])


# Each op returns (result, exact expectation).  With int64 coefficients every
# one of these raised OverflowError; with Python ints each is exact.
@pytest.mark.parametrize(
    "op",
    [
        lambda: (_HUGE * 4, [4, 2**64]),
        lambda: (4 * _HUGE, [4, 2**64]),
        lambda: (_HUGE * -2, [-2, -(2**63)]),
        lambda: (_HUGE * 2**70, [2**70, 2**132]),
        lambda: (_HUGE + _HUGE, [2, 2**63]),
        lambda: (_HUGE + _HUGE + _HUGE, [3, 3 * 2**62]),
        lambda: (_HUGE + 2**62, [1 + 2**62, 2**62]),
        lambda: (2**62 + _HUGE, [1 + 2**62, 2**62]),
        lambda: (_HUGE - LaurentPolynomial(1, [-(2**62)]), [1, 2**63]),
        lambda: (_HUGE - (-(2**62)), [1 + 2**62, 2**62]),
        lambda: (-(2**62) - _HUGE - _HUGE, [-(2**62) - 2, -(2**63)]),
        lambda: (-_INT64_MIN, [2**63]),
        lambda: (_INT64_MIN * LaurentPolynomial(0, [2]), [-(2**64)]),
    ],
)
def test_scalar_and_sum_overflow_raise(op):
    result, coefficients = op()
    assert result == LaurentPolynomial(0, coefficients)
    assert result.coefficients == tuple(coefficients)


def test_ops_at_the_int64_edge_stay_exact():
    top = 2**63 - 1
    half = LaurentPolynomial(0, [2**62 - 1])
    assert (half * 2).coefficient(0) == 2**63 - 2
    assert (half + half + 1).coefficient(0) == top
    assert (-LaurentPolynomial(0, [top])).coefficient(0) == -top
    assert LaurentPolynomial.zero() * 2**70 == 0


def test_from_terms_sums_exactly_and_range_checks():
    top = 2**63 - 1
    edge = LaurentPolynomial.from_terms([(0, 2**62), (0, 2**62 - 1), (3, 1), (3, -1)])
    assert edge == LaurentPolynomial(0, [top])
    assert LaurentPolynomial.from_terms([(0, 2**62), (0, 2**62)]) == 2**63
    assert LaurentPolynomial.from_terms({1: -(2**64)}).coefficients == (-(2**64),)
    assert LaurentPolynomial.from_terms([(0, 2**62), (0, 2**62), (0, -(2**63))]) == 0


def test_products_whose_bound_fits_int64_are_exact():
    big = LaurentPolynomial(0, [2**62])
    assert big**1 == big
    assert (big**1).coefficient(0) == 2**62
    x = LaurentPolynomial(-1, [2**63 - 1, 5, -(2**63 - 1)])
    assert LaurentPolynomial.one() * x == x
    assert x * LaurentPolynomial.monomial(2, -1) == -x.shift(2)
    top = 2**63 - 1
    assert x * LaurentPolynomial(0, [1, 1]) == LaurentPolynomial(
        -1, [top, top + 5, 5 - top, -top]
    )


def test_palindromic():
    assert LaurentPolynomial.from_terms({-1: 1, 0: -1, 1: 1}).is_palindromic()
    assert not LaurentPolynomial.from_terms({-1: 1, 0: -1, 2: 1}).is_palindromic()
    assert LaurentPolynomial.zero().is_palindromic()


def test_coefficient_lookup():
    p = LaurentPolynomial.from_terms({-2: 3, 5: -7})
    assert p.coefficient(-2) == 3
    assert p.coefficient(5) == -7
    assert p.coefficient(0) == 0
    assert p.coefficient(99) == 0
    assert p.max_exponent == 5
    assert p.min_exponent == -2
