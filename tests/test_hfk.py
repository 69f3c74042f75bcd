"""Knot Floer staircases, widths, and the width-jump scan."""

import math

import pytest

from torusknot import hfk
from torusknot.alexander import alexander_torus
from torusknot.hfk import (
    NotLSpaceForm,
    Staircase,
    WidthReport,
    delta_sequence,
    extract_staircase,
    hfk_from_staircase,
    scan_conjecture,
    scan_conjecture_parallel,
    width_formula,
    width_torus,
)
from torusknot.laurent import LaurentPolynomial

from _oracles import coprime_pair_count


def _table(p, q):
    return hfk_from_staircase(extract_staircase(alexander_torus(p, q)))


# ----------------------------------------------------------------------
# staircase extraction


def test_staircase_of_trefoil():
    stair = extract_staircase(alexander_torus(2, 3))
    assert stair.k == 1
    assert stair.s == (0, 1)


def test_staircase_of_4_5():
    stair = extract_staircase(alexander_torus(4, 5))
    assert stair.k == 3
    assert stair.s == (0, 2, 5, 6)


@pytest.mark.parametrize(
    "terms",
    [
        {},  # zero polynomial
        {-1: 1, 1: 1},  # zero constant term
        {-1: 1, 0: -2, 1: 1},  # coefficient magnitude 2
        {-1: 1, 0: -1, 2: 1},  # not palindromic
        {-2: 1, -1: 1, 0: -1, 1: 1, 2: 1},  # signs do not alternate
        {-1: -1, 0: 1, 1: -1},  # top coefficient negative
    ],
)
def test_non_staircase_polynomials_rejected(terms):
    with pytest.raises(NotLSpaceForm):
        extract_staircase(LaurentPolynomial.from_terms(terms))


@pytest.mark.parametrize("c", [2**70, -(2**70), 2**63, 2])
def test_big_coefficients_are_not_lspace_form(c):
    # Python-int coefficients past int64 are a domain error, not an
    # OverflowError from converting them to an array.
    with pytest.raises(NotLSpaceForm, match="must all be"):
        extract_staircase(LaurentPolynomial(0, [c]))
    with pytest.raises(NotLSpaceForm, match="must all be"):
        extract_staircase(LaurentPolynomial(-1, [1, c, 1]))


@pytest.mark.parametrize(
    "k,s", [(2, (0, 1)), (1, (1, 2)), (0, ()), (2, (0, 3, 1)), (2, (0, 2, 2))]
)
def test_malformed_staircase_rejected(k, s):
    with pytest.raises(ValueError):
        Staircase(k, s)


# ----------------------------------------------------------------------
# the semigroup kernel against the rational-formula path


def test_semigroup_kernel_matches_rational_formula():
    """Staircase and width of every coprime 2 <= p < q < 120, computed from
    <p, q>, equal those read off the divided-out Alexander polynomial."""
    for q in range(3, 120):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            stair = extract_staircase(alexander_torus(p, q))
            assert hfk._torus_steps(p, q).tolist() == list(stair.s), (p, q)
            assert width_torus(p, q) == delta_sequence(stair), (p, q)
            assert width_torus(q, p) == width_torus(p, q)


# ----------------------------------------------------------------------
# tables


def test_golden_generators_2_3():
    assert _table(2, 3).generators() == [(1, 0, 1), (0, -1, 1), (-1, -2, 1)]


def test_golden_generators_4_5():
    assert _table(4, 5).generators() == [
        (6, 0, 1),
        (5, -1, 1),
        (2, -2, 1),
        (0, -5, 1),
        (-2, -6, 1),
        (-5, -11, 1),
        (-6, -12, 1),
    ]


def test_width_report_4_5():
    assert width_torus(4, 5) == WidthReport(delta_max=6, delta_min=4, width=3)


def test_generator_symmetry_and_euler():
    for p, q in ((2, 7), (3, 8), (4, 9), (5, 6), (6, 7), (7, 9)):
        table = _table(p, q)
        gens = set(table.generators())
        assert {(-s, m - 2 * s, r) for s, m, r in gens} == gens
        assert table.euler_characteristic() == alexander_torus(p, q)


def test_top_generator_at_genus_with_maslov_zero():
    for p, q in ((2, 9), (3, 7), (5, 8)):
        top = _table(p, q).generators()[0]
        genus = (p - 1) * (q - 1) // 2
        assert top == (genus, 0, 1)


# ----------------------------------------------------------------------
# width formulas


def test_width_formula_matches_computation():
    for p in range(2, 11):
        for n in range(1, 9):
            for q in (p * n + 1, p * n - 1):
                if q < 2 or math.gcd(p, q) != 1:
                    continue
                assert width_formula(p, q) == width_torus(p, q).width, (p, q)
    for n in range(1, 9):
        for q in (5 * n + 2, 5 * n + 3):
            assert width_formula(5, q) == width_torus(5, q).width, (5, q)


def test_width_formula_outside_families():
    with pytest.raises(ValueError):
        width_formula(7, 16)  # 16 = 7*2 + 2: no closed form
    assert width_formula(1, 5) == 1
    assert width_formula(4, 5) == 3
    assert width_formula(6, 7) == 7


def test_unknot_and_two_strand_widths():
    assert width_torus(1, 1).width == 1
    assert width_torus(2, 3).width == 1
    assert width_torus(2, 99).width == 1


# ----------------------------------------------------------------------
# scan


def test_scan_small_bound_counts_and_passes():
    checked, violations = scan_conjecture(60)
    assert violations == []
    assert checked == coprime_pair_count(60)


def test_scan_q_range_partition():
    full = scan_conjecture(40)
    lo = scan_conjecture(40, (3, 20))
    hi = scan_conjecture(40, (20, 40))
    assert lo[0] + hi[0] == full[0]
    assert sorted(lo[1] + hi[1], key=lambda v: (v.q, v.p)) == full[1]


@pytest.mark.parametrize(
    "bound,q_range", [(-5, None), (0, None), (3, None), (40, (20, 20)), (40, (50, 60))]
)
def test_scan_refuses_a_range_without_coprime_pairs(bound, q_range):
    with pytest.raises(ValueError, match="no coprime pair"):
        scan_conjecture(bound, q_range)


def test_smallest_scan_checks_one_pair():
    assert scan_conjecture(4) == (1, [])
    assert scan_conjecture(40, (23, 24))[0] == coprime_pair_count(24) - coprime_pair_count(23)


def test_parallel_scan_matches_serial(monkeypatch):
    monkeypatch.setattr(hfk, "_SERIAL_BELOW", 0)  # a real pool, even this small
    for jobs in (1, 2, 3):
        assert scan_conjecture_parallel(60, jobs=jobs) == scan_conjecture(60)


def test_scan_computes_each_width_once(monkeypatch):
    calls = []
    real = hfk.width_torus

    def counted(p, q):
        calls.append((p, q))
        return real(p, q)

    monkeypatch.setattr(hfk, "width_torus", counted)
    checked, _ = scan_conjecture(40)
    assert len(calls) == len(set(calls)) == checked
    calls.clear()
    # (5, 23)'s previous knot (5, 18) lies outside the range: computed once too
    checked, _ = scan_conjecture(40, (23, 24))
    assert len(calls) == len(set(calls)) > checked


def test_small_scans_run_serially(monkeypatch, inline_pool):
    monkeypatch.setattr(hfk.os, "cpu_count", lambda: 2)
    assert scan_conjecture(50, jobs=2) == scan_conjecture(50)
    assert inline_pool == []
    # bound 250 still uses the pool; a stand-in width keeps this test fast
    monkeypatch.setattr(hfk, "width_torus", lambda p, q: WidthReport(0, 0, 1))
    scan_conjecture(250, jobs=2)
    assert inline_pool == [2]


@pytest.mark.parametrize(
    "cpus,jobs,pool_size",
    [(2, 64, 2), (4, 3, 3), (1, 8, None), (None, 8, None), (8, 0, None), (8, -3, None)],
)
def test_scan_clamps_jobs_to_cpu_count(monkeypatch, inline_pool, cpus, jobs, pool_size):
    monkeypatch.setattr(hfk, "_SERIAL_BELOW", 0)
    monkeypatch.setattr(hfk.os, "cpu_count", lambda: cpus)
    assert scan_conjecture(30, jobs=jobs) == scan_conjecture(30)
    assert inline_pool == ([] if pool_size is None else [pool_size])
