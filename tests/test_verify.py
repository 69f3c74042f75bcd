"""The verify-paper check registry: names, order, settings and failures."""

import sys
from types import SimpleNamespace

import pytest

import torusknot.verify as verify
from torusknot.verify import CHECK_NAMES, check_width_formulas, run_checks


def test_check_names_in_run_order():
    assert CHECK_NAMES == (
        "golden-alexander",
        "golden-hfk",
        "width-formulas",
        "conjecture-scan",
        "closed-forms",
        "braid-lemmas",
        "state-counts",
        "dealternating-solver",
        "property-suites",
        "bound-brackets",
    )


def test_run_checks_passes_its_settings_to_the_checks():
    # the paper's settings are fixed: the scan below 250, the identities to n = 4
    scan, lemmas = run_checks(("conjecture-scan", "braid-lemmas"))
    assert (scan.name, scan.passed) == ("conjecture-scan", True)
    assert "below 250" in scan.detail
    assert (lemmas.name, lemmas.passed) == ("braid-lemmas", True)
    assert "up to n=4" in lemmas.detail


def test_run_checks_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown checks: no-such-check"):
        run_checks(names=("golden-hfk", "no-such-check"))


def test_run_checks_refuses_to_check_nothing():
    with pytest.raises(ValueError, match="no check selected"):
        run_checks(names=())


def test_failures_replace_the_detail(monkeypatch):
    monkeypatch.setattr(verify, "width_formula", lambda p, q: 0)
    result = check_width_formulas()
    assert result.name == "width-formulas" and not result.passed
    assert result.detail.startswith("T(2,3): semigroup walk 1, formula 0; ")
    assert result.detail.count(";") == 5
    assert result.detail.endswith("... 450 failures total")
    assert result.seconds >= 0


def test_inverted_bracket_is_a_failure_not_a_traceback(monkeypatch):
    bounds_module = sys.modules["torusknot.bounds"]  # torusknot.bounds is the function
    real = bounds_module.width_torus

    def oversized(p, q):
        return SimpleNamespace(width=100) if (p, q) == (3, 7) else real(p, q)

    monkeypatch.setattr(bounds_module, "width_torus", oversized)
    (result,) = run_checks(names=("bound-brackets",))
    assert result.name == "bound-brackets" and not result.passed
    assert result.detail.startswith("T(3,7): inconsistent bracket for turaev_genus: [99, ")
    assert ";" not in result.detail  # no other pair in the sweep fails
