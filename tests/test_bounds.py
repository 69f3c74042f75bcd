"""Certified bound brackets for Turaev genus and dealternating number."""

import json
import math
from pathlib import Path

import pytest

from torusknot.bounds import (
    BoundBracket,
    bounds,
    bounds_report,
    known_dealternating_upper,
)
from torusknot.words import UnsupportedTorusFamily, _family, lemma_word
from torusknot.hfk import width_torus


def test_bracket_validation():
    with pytest.raises(AssertionError):
        BoundBracket("turaev_genus", 3, 2, "x", "y")
    b = BoundBracket("turaev_genus", 2, 2, "x", "y")
    assert b.is_sharp()


@pytest.mark.parametrize(
    "p,q,expected",
    [(4, 5, (2, 2)), (5, 7, (4, 5)), (3, 2, (0, 0)), (1, 9, (0, 0))],
)
def test_turaev_bracket_examples(p, q, expected):
    turaev, _ = bounds(p, q)
    assert (turaev.lower, turaev.upper) == expected


def test_knot_lower_bound_is_width_minus_one():
    for p, q in ((4, 5), (5, 7), (6, 7), (4, 11)):
        turaev, dealt = bounds(p, q)
        assert turaev.lower == width_torus(p, q).width - 1
        assert turaev.lower_source == "floer-width"
        assert dealt.lower == turaev.lower


def test_link_lower_bound_is_zero():
    for p, q in ((2, 2), (4, 6), (5, 10), (6, 6)):
        turaev, dealt = bounds(p, q)
        assert math.gcd(p, q) > 1
        assert turaev.lower == 0
        assert turaev.lower_source == "none"
        assert dealt.lower == 0


def test_parameters_normalized():
    assert bounds(7, 4) == bounds(4, 7)
    # known_dealternating_upper once returned None where bounds refused
    for p, q in ((0, 5), (3, -1)):
        with pytest.raises(ValueError) as refused:
            bounds(p, q)
        with pytest.raises(ValueError) as known:
            known_dealternating_upper(p, q)
        assert str(known.value) == str(refused.value)


def test_parameters_must_be_ints():
    # math.gcd once raised first, naming neither parameter, and min compared
    # "4" with 5 before anything was checked
    for call, p, q in (
        (bounds, 4.0, 5), (bounds_report, 2, 4.0), (bounds, True, 5),
        (bounds_report, "4", 5), (bounds_report, 5, None),
        (known_dealternating_upper, "4", 5), (known_dealternating_upper, None, 5),
    ):
        want = rf"^torus parameters must be ints, got \({p!r}, {q!r}\)$"
        with pytest.raises(TypeError, match=want):
            call(p, q)


def test_bracket_ordering_everywhere():
    for q in range(1, 14):
        for p in range(1, q + 1):
            for bracket in bounds(p, q):
                assert bracket.lower <= bracket.upper, (p, q)


def test_six_strand_upper_achieved_without_import():
    _, dealt = bounds(6, 7)
    known = known_dealternating_upper(6, 7)
    assert dealt.upper == 8
    assert known is not None
    assert known.value == 8
    assert not known.needs_pd_import


def test_four_strand_upper_needs_import():
    _, dealt = bounds(4, 5)
    known = known_dealternating_upper(4, 5)
    assert dealt.upper == 4
    assert known is not None
    assert known.value == 3  # 2n+1 at n=1
    assert known.needs_pd_import


def test_known_upper_table_coverage():
    assert known_dealternating_upper(7, 8) is None
    assert known_dealternating_upper(3, 5) is None
    assert known_dealternating_upper(6, 15) is None  # residue 3 not tabulated
    assert known_dealternating_upper(4, 3) is None  # q < p: n = 0
    got = known_dealternating_upper(5, 5)
    assert got is not None and got.value == 5  # 4n+1 at n=1
    assert known_dealternating_upper(5, 12).value == 10  # 4n+2 at n=2
    for p, q in ((5, 8.0), (5.0, 8), (True, 8)):  # 8.0 once gave the value 7.0
        with pytest.raises(TypeError, match="torus parameters must be ints"):
            known_dealternating_upper(p, q)


def test_report_structure():
    report = bounds_report(6, 7)
    assert report["is_knot"] is True
    assert report["turaev_genus"]["sharp"] is True
    known = report["dealternating"]["known_upper"]
    assert known["needs_pd_import"] is False
    assert known["margin"] == 0

    report = bounds_report(5, 7)
    known = report["dealternating"]["known_upper"]
    assert known["needs_pd_import"] is True
    assert known["margin"] == report["dealternating"]["upper"] - known["value"]
    assert report["turaev_genus"]["sharp"] is False

    assert "known_upper" not in bounds_report(3, 4)["dealternating"]


_DIAGRAMS_GOLDEN_PATH = Path(__file__).with_name("diagrams_golden.json")


def _golden_closures() -> dict:
    """The bounds grid's closure records: [s_A, s_B, g_T, dealternating, digest]."""
    golden = json.loads(_DIAGRAMS_GOLDEN_PATH.read_text(encoding="utf-8"))
    assert len(golden["closures"]) == 952
    return golden["closures"]


def test_upper_source_names_a_diagram():
    # bounds reads the family row's diagram where there is one, else the
    # standard closure, at the ordered pair; pinned on the whole grid
    closures = _golden_closures()
    for key in closures:
        p, q = map(int, key.split(","))
        record = closures["{},{}".format(*sorted((p, q)))]
        if "tabulated" in record:
            label, values = "tabulated diagram", record["tabulated"]
        else:
            label, values = "standard closure", record["standard"]
        turaev, dealt = bounds(p, q)
        assert (turaev.upper, dealt.upper) == tuple(values[2:4]), key
        assert (turaev.upper_source, dealt.upper_source) == (label, label), key


def test_family_rows_never_lose_to_the_standard_closure():
    # the rule that admits a row to the table, which lets bounds read the
    # row alone: at or below the standard closure on g_T and dealternating
    # number, and equal to the row's a*n + b claims for s_B, g_T and
    # dealternating number, at every n the grid holds
    tabulated = 0
    for key, record in _golden_closures().items():
        p, q = map(int, key.split(","))
        family, n = _family(p, q)
        assert (family is not None) == ("tabulated" in record), key
        if family is None:
            continue
        tabulated += 1
        _, s_b, g_t, dealt, _ = record["tabulated"]
        _, _, standard_g_t, standard_dealt, _ = record["standard"]
        assert g_t <= standard_g_t and dealt <= standard_dealt, key
        claims = [a * n + b for a, b in (family.s_b, family.g_t, family.dealternating)]
        assert [s_b, g_t, dealt] == claims, key
    assert tabulated == 272


# ----------------------------------------------------------------------
# golden families: lemma_word and known_dealternating_upper on a grid

_FAMILIES_GOLDEN_PATH = Path(__file__).with_name("families_golden.json")
_GRID = [(p, q) for p in range(1, 9) for q in range(1, 61)]
# the tabulated families T(p, pn + r), by (p, r)
_FAMILY_KEYS = [(4, r) for r in range(4)] + [(5, r) for r in range(5)] + [(6, 0), (6, 1)]


def _family_record(p: int, q: int) -> dict:
    """lemma_word and known_dealternating_upper of (p, q), as JSON values."""
    try:
        word = lemma_word(p, q).as_text()
    except UnsupportedTorusFamily as err:
        word = {"error": type(err).__name__, "message": str(err)}
    known = known_dealternating_upper(p, q)
    if known is not None:
        known = {
            "value": known.value,
            "needs_pd_import": known.needs_pd_import,
            "note": known.note,
        }
    return {"lemma_word": word, "known_upper": known}


def test_families_match_golden():
    golden = json.loads(_FAMILIES_GOLDEN_PATH.read_text(encoding="utf-8"))
    assert len(golden) == len(_GRID) == 480
    for p, q in _GRID:
        assert _family_record(p, q) == golden[f"{p},{q}"], (p, q)
    # the grid holds every tabulated family for n = 1..6
    for p, r in _FAMILY_KEYS:
        for n in range(1, 7):
            assert isinstance(golden[f"{p},{p * n + r}"]["lemma_word"], str)


if __name__ == "__main__":
    # Re-record tests/families_golden.json from the current code:
    #     PYTHONPATH=src python tests/test_bounds.py
    # Only do this for a deliberate change of a tabulated family.
    records = {f"{p},{q}": _family_record(p, q) for p, q in _GRID}
    _FAMILIES_GOLDEN_PATH.write_text(
        json.dumps(records, indent=1) + "\n", encoding="utf-8"
    )
