"""Alexander polynomials of torus knots: the Lam-Leung grid, the rational
formula and closed forms."""

import json
import math
from pathlib import Path

import pytest

from torusknot import _gate, alexander
from torusknot._gate import KnotTooLarge, NotCoprime, normalize_torus_params
from torusknot.alexander import TorusFamily, alexander_closed_form, alexander_torus
from torusknot.hfk import width_formula, width_torus
from torusknot.laurent import LaurentPolynomial

from _oracles import rational_alexander, semigroup_alexander_terms

GOLDEN = {
    (2, 3): "t^{-1}-1+t",
    (2, 5): "t^{-2}-t^{-1}+1-t+t^2",
    (3, 4): "t^{-3}-t^{-2}+1-t^2+t^3",
    (4, 5): "t^{-6}-t^{-5}+t^{-2}-1+t^2-t^5+t^6",
    (5, 7): (
        "t^{-12}-t^{-11}+t^{-7}-t^{-6}+t^{-5}-t^{-4}+t^{-2}-t^{-1}+1"
        "-t+t^2-t^4+t^5-t^6+t^7-t^{11}+t^{12}"
    ),
}


@pytest.mark.parametrize("pq,text", sorted(GOLDEN.items()))
def test_golden_polynomials(pq, text):
    assert alexander_torus(*pq).to_text() == text


def test_size_cap(monkeypatch):
    with pytest.raises(KnotTooLarge, match="above the cap"):
        alexander_torus(100000, 100001)
    monkeypatch.setattr(alexander, "MAX_TORUS_PRODUCT", 20)
    assert alexander_torus(5, 4).to_text() == GOLDEN[4, 5]  # p * q = 20: at the cap
    with pytest.raises(KnotTooLarge):
        alexander_torus(3, 7)


def test_parameter_normalization():
    assert normalize_torus_params(7, 3) == (3, 7)
    assert normalize_torus_params(1, 12) == (1, 12)
    assert alexander_torus(5, 2) == alexander_torus(2, 5)
    for q in (1, 2, 6):
        assert alexander_torus(1, q) == LaurentPolynomial.one()


@pytest.mark.parametrize("p,q", [(4, 6), (6, 9), (2, 2), (10, 15)])
def test_non_coprime_rejected(p, q):
    with pytest.raises(NotCoprime):
        alexander_torus(p, q)


@pytest.mark.parametrize("p,q", [(True, 3), (3, True), (False, 1), (2.0, 3), ("2", 3)])
def test_non_integer_parameters_rejected(p, q):
    # True is an int to Python: it must not pass as 1 and make T(1, 3).
    with pytest.raises(TypeError, match="torus parameters must be ints"):
        normalize_torus_params(p, q)
    with pytest.raises(TypeError, match="torus parameters must be ints"):
        width_torus(p, q)


@pytest.mark.parametrize("p,q", [(0, 3), (-2, 5), (3, 0)])
def test_nonpositive_rejected(p, q):
    with pytest.raises(ValueError):
        alexander_torus(p, q)


def test_matches_semigroup_oracle():
    """Independent cross-check via numerical semigroup membership."""
    for q in range(2, 31):
        for p in range(1, q):
            if math.gcd(p, q) != 1:
                continue
            expected = LaurentPolynomial.from_terms(semigroup_alexander_terms(p, q))
            assert alexander_torus(p, q) == expected, f"T({p},{q})"


def test_grid_matches_rational_formula():
    """The grid against exact division, every coprime 1 <= p < q < 200."""
    for q in range(2, 200):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                assert alexander_torus(p, q) == rational_alexander(p, q), (p, q)


def test_grid_matches_rational_formula_at_the_size_cap():
    assert 2047 * 2048 <= _gate.MAX_TORUS_PRODUCT
    assert alexander_torus(2048, 2047) == rational_alexander(2047, 2048)


def test_symmetry_and_evaluation_properties():
    for p, q in ((3, 5), (4, 7), (5, 8), (6, 11)):
        delta = alexander_torus(p, q)
        assert delta.is_palindromic()
        genus = (p - 1) * (q - 1) // 2
        assert delta.max_exponent == genus
        assert delta.min_exponent == -genus
        # Delta(1) = +-1 for any knot; +1 in this normalization.
        assert sum(c for _, c in delta.terms()) == 1


# ----------------------------------------------------------------------
# closed forms


def _families(n_hi):
    for p in range(2, 11):
        for n in range(0, n_hi + 1):
            for kind in ("pn+1", "pn-1"):
                q = p * n + (1 if kind == "pn+1" else -1)
                if q < 1 or math.gcd(p, q) != 1:
                    continue
                yield TorusFamily(kind, p, n)
    for n in range(0, n_hi + 1):
        yield TorusFamily("5n+2", 5, n)
        yield TorusFamily("5n+3", 5, n)


def test_closed_forms_match_rational_formula():
    count = 0
    for family in _families(12):
        count += 1
        closed = alexander_closed_form(family)
        assert closed == rational_alexander(family.p, family.q), family
        assert closed == alexander_torus(family.p, family.q), family
    assert count > 200


def test_family_q_property():
    assert TorusFamily("pn+1", 4, 3).q == 13
    assert TorusFamily("pn-1", 4, 3).q == 11
    assert TorusFamily("5n+2", 5, 2).q == 12
    assert TorusFamily("5n+3", 5, 2).q == 13


def test_family_validation():
    with pytest.raises(ValueError):
        TorusFamily("qn+1", 4, 1)  # unknown kind
    with pytest.raises(ValueError):
        TorusFamily("5n+2", 4, 1)  # five-strand kinds require p = 5
    with pytest.raises(ValueError):
        TorusFamily("pn-1", 2, 0)  # q = -1
    with pytest.raises(ValueError):
        TorusFamily("pn+1", 1, 3)  # p < 2
    for p, n in ((2.5, 1), (3.0, 1), (3, 1.0), (True, 1), (3, True), (3, False)):
        with pytest.raises(TypeError, match="family parameters must be ints"):
            TorusFamily("pn+1", p, n)


def test_zero_n_closed_forms_need_no_rational_formula(monkeypatch):
    def refuse(p, q):
        raise AssertionError(f"alexander_torus({p}, {q}) called")

    monkeypatch.setattr(alexander, "alexander_torus", refuse)
    members = [TorusFamily("pn+1", p, 0) for p in range(2, 13)]
    members += [TorusFamily("5n+2", 5, 0), TorusFamily("5n+3", 5, 0)]
    assert len(members) == 13  # the n = 0 instances of verify's closed-forms check
    for family in members:
        expected = semigroup_alexander_terms(family.p, family.q)
        assert alexander_closed_form(family) == LaurentPolynomial.from_terms(
            expected
        ), f"{family.kind} p={family.p}"


# ----------------------------------------------------------------------
# golden closed forms: width_formula and TorusFamily.q on a grid

_CLOSED_FORMS_GOLDEN_PATH = Path(__file__).with_name("closed_forms_golden.json")
_WIDTH_GRID = [
    (p, q) for p in range(1, 13) for q in range(p + 1, 121) if math.gcd(p, q) == 1
]
_FAMILY_GRID = [
    (kind, p, n)
    for kind in ("pn+1", "pn-1", "5n+2", "5n+3", "qn+1")
    for p in range(1, 8)
    for n in range(0, 4)
]


def _outcome(compute):
    """compute() as a JSON value, or the ValueError it raises."""
    try:
        return compute()
    except ValueError as err:
        return {"error": type(err).__name__, "message": str(err)}


def _closed_forms_record() -> dict:
    return {
        "width_formula": {
            f"{p},{q}": _outcome(lambda: width_formula(p, q)) for p, q in _WIDTH_GRID
        },
        "family_q": {
            f"{kind},{p},{n}": _outcome(lambda: TorusFamily(kind, p, n).q)
            for kind, p, n in _FAMILY_GRID
        },
    }


def test_closed_forms_match_golden():
    golden = json.loads(_CLOSED_FORMS_GOLDEN_PATH.read_text(encoding="utf-8"))
    assert len(golden["width_formula"]) == len(_WIDTH_GRID)
    assert len(golden["family_q"]) == len(_FAMILY_GRID) == 140
    assert _closed_forms_record() == golden


if __name__ == "__main__":
    # Re-record tests/closed_forms_golden.json from the current code:
    #     PYTHONPATH=src python tests/test_alexander.py
    # Only do this for a deliberate change of a closed-form family.
    _CLOSED_FORMS_GOLDEN_PATH.write_text(
        json.dumps(_closed_forms_record(), indent=1) + "\n", encoding="utf-8"
    )
