"""Knot Floer staircases, widths, and the width-jump scan."""

import json
import math
import random
import re
from itertools import accumulate
from pathlib import Path

import pytest

from torusknot import hfk
from torusknot._gate import KnotTooLarge
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

from _oracles import coprime_pair_count, rational_alexander, semigroup_count


def _generators(p, q):
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


_T25 = (1, -1, 1, -1, 1)  # T(2,5): t^-2 - t^-1 + 1 - t + t^2
_T23 = (0, 1, -1, 1, 0)  # the trefoil, padded to t^-2..t^2


def test_lspace_steps_of_one_polynomial():
    """The steps of one polynomial, from its coefficients and lowest power."""
    assert extract_staircase(LaurentPolynomial(-2, _T25)).s == (0, 1, 2)
    assert extract_staircase(LaurentPolynomial(-2, _T25)) == Staircase((0, 1, 2))
    assert extract_staircase(LaurentPolynomial(-2, _T23)) == Staircase((0, 1))


@pytest.mark.parametrize(
    "row,message",
    [
        ([0, 0, 0, 0, 0], "the zero polynomial has no staircase"),
        ([1, 0, 2, 0, 1], "coefficients must all be +-1"),
        ([1, -1, 1, 0, 0], "polynomial is not palindromic"),
        ([0, 1, 0, 1, 0], "constant coefficient must be nonzero"),
        ([1, 1, -1, 1, 1], "signs must alternate along the support"),
        ([-1, 1, -1, 1, -1], "leading coefficient must be +1"),
    ],
)
def test_lspace_steps_names_the_failed_check_of_any_row(row, message):
    """``row`` holds the coefficients of t^-2..t^2 of one polynomial."""
    with pytest.raises(NotLSpaceForm, match=re.escape(message)):
        extract_staircase(LaurentPolynomial(-2, row))


@pytest.mark.parametrize("c", [2**70, -(2**70), 2**63, 2])
def test_big_coefficients_are_not_lspace_form(c):
    # Coefficients other than 0 and +-1, however large, are a domain error:
    # the +-1 check comes first and compares Python ints exactly.
    with pytest.raises(NotLSpaceForm, match="must all be"):
        extract_staircase(LaurentPolynomial(0, [c]))
    with pytest.raises(NotLSpaceForm, match="must all be"):
        extract_staircase(LaurentPolynomial(-1, [1, c, 1]))


# The ids are those the cases had when a step count k rode along, kept so
# that each case keeps its name.
@pytest.mark.parametrize(
    "s", [(1, 2), (), (0, 3, 1), (0, 2, 2)], ids=["1-s1", "0-s2", "2-s3", "2-s4"]
)
def test_malformed_staircase_rejected(s):
    with pytest.raises(ValueError):
        Staircase(s)


@pytest.mark.parametrize("s", [(0, True), (0, 1.0), (False, 1), (0.0,)])
def test_staircase_steps_must_be_ints(s):
    # True == 1 and 1.0 == 1, so a range check alone would let them pass
    with pytest.raises(TypeError, match="must be ints"):
        Staircase(s)


def test_staircase_is_its_steps():
    stair = Staircase([0, 2, 5, 6])
    assert stair.s == (0, 2, 5, 6) and stair.k == 3
    assert stair == Staircase((0, 2, 5, 6)) and hash(stair) == hash(Staircase((0, 2, 5, 6)))
    with pytest.raises(TypeError):
        Staircase(3, (0, 2, 5, 6))  # the step count is no argument: it is len(s) - 1


# ----------------------------------------------------------------------
# the semigroup kernel against the rational formula


def test_semigroup_kernel_matches_rational_formula():
    """Delta spreads of every coprime 2 <= p < q < 120, walked over <p, q>
    column by column and knot by knot, equal those read off the Alexander
    polynomial divided out of the rational formula (the test oracle, not the
    package's grid)."""
    for p in range(2, 119):
        qs = [q for q in range(p + 1, 120) if math.gcd(p, q) == 1]
        wants = [delta_sequence(extract_staircase(rational_alexander(p, q))) for q in qs]
        assert hfk._column_widths(p, qs) == [want.width for want in wants], p
        for q, want in zip(qs, wants):
            assert width_torus(p, q) == want == width_torus(q, p), (p, q)


def _window_walk(p, q):
    """h - h(L) over the window [L, L+p) of T(p, q), knot by knot, no memo,
    and the points just before an element of <p, q>: the classes of
    y = b*q < L + p hold the window's elements."""
    low = q * ((p + 1) // 2 - 1) - p + 1
    step = [-1] * p
    for y in range(0, low + p, q):
        step[(y - low) % p] = 1
    walk = list(accumulate(step[:-1], initial=0))
    return walk, [x for x in range(p) if step[x] == 1]


def _walked_shape(p, q):
    """(min h - h(L), first argmin - L) over the window of T(p, q)."""
    walk, _ = _window_walk(p, q)
    return min(walk), walk.index(min(walk))


def test_window_shape_depends_on_q_mod_p():
    """(offset of min h from h(L), first argmin) is one shape per residue
    q mod p: equal for q and q + kp over coprime p < q <= 150.  The third
    field b_r gives the count below every window start L:
    #(<p, q> n [0, L)) = b_r + (q // p) * c(c-1)/2, c = ceil(p/2)."""
    shapes, knots = {}, 0
    for q in range(2, 151):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                knots += 1
                walked = _walked_shape(p, q)
                assert shapes.setdefault((p, q % p), walked) == walked, (p, q)
                c = (p + 1) // 2
                low = q * (c - 1) - p + 1
                start = semigroup_count(p, q, low) - (q // p) * c * (c - 1) // 2
                assert hfk._window_shape(p, q % p)[2] == start, (p, q)
    assert len(shapes) < knots
    for (p, r), shape in shapes.items():
        assert hfk._window_shape(p, r)[:2] == shape, (p, r)


def test_every_shape_of_the_default_scan_matches_a_walk():
    """The certificate checks a shape's minimum within its class mod p
    only, so each shape the default scan (bound 250) reads, one per
    coprime 1 <= r < p < 250, is checked here against a walk over T(p, p+r)."""
    shapes = 0
    for p in range(2, 250):
        for r in range(1, p):
            if math.gcd(p, r) == 1:
                assert hfk._window_shape(p, r)[:2] == _walked_shape(p, p + r), (p, r)
                shapes += 1
    assert shapes == 18923


def test_recounts_match_the_semigroup_count():
    """The one-pass recounts at at - p, at and at + p equal the class-by-class
    count at each point, for every coprime 1 <= p < q <= 150, at the argmin
    the kernel recounts around and at both ends of the window [L, L+p); for
    p = 1 and p = 2 the point at - p can be negative."""
    knots = 0
    for q in range(2, 151):
        for p in range(1, q):
            if math.gcd(p, q) == 1:
                low = q * ((p + 1) // 2 - 1) - p + 1
                for at in {low, low + hfk._window_shape(p, q % p)[1], low + p - 1}:
                    want = tuple(semigroup_count(p, q, x) for x in (at - p, at, at + p))
                    assert hfk._recounts(p, q, at) == want, (p, q, at)
                knots += 1
    assert knots == coprime_pair_count(151) + 149  # with T(1, q), q = 2..150
    assert hfk._recounts(1, 2, 0) == (0, 0, 1) and hfk._recounts(2, 3, 0) == (0, 0, 1)


def _shift_recount(monkeypatch, knot, x, shift):
    """Make the recount of T(knot) at the point x off by ``shift``."""
    real = hfk._recounts

    def shifted(p, q, at):
        counts = real(p, q, at)
        if (p, q) != knot:
            return counts
        return tuple(n + shift * (y == x) for y, n in zip((at - p, at, at + p), counts))

    monkeypatch.setattr(hfk, "_recounts", shifted)


@pytest.mark.parametrize("x,shift", [(4, 1), (4, -1), (0, -2), (8, -1)])
def test_width_certificate_catches_a_wrong_count(monkeypatch, x, shift):
    """T(4,5) walks h over [2, 6) from h(2), with least h(4) = -2 and
    neighbours h(0) = 0 and h(8) = -2.  A count that is off at the argmin or
    at a neighbour fails the certificate, which names the knot."""
    _shift_recount(monkeypatch, (4, 5), x, shift)
    with pytest.raises(RuntimeError, match=re.escape("width certificate of T(4,5)")):
        width_torus(5, 4)


def test_width_certificate_catches_a_wrong_walk_start(monkeypatch):
    """The walk of T(4,5) starts from h(2) = 2 * b_1 + 2 - 2, b_1 the count
    the shape of (4, 1) gives in closed form.  One too many there lifts the
    walked minimum off the recount at the argmin, which names the knot."""
    real = hfk._window_shape

    def shifted(p, r):
        offset, index, count = real(p, r)
        return offset, index, count + ((p, r) == (4, 1))

    monkeypatch.setattr(hfk, "_window_shape", shifted)
    with pytest.raises(RuntimeError, match=re.escape("width certificate of T(4,5)")):
        width_torus(5, 4)


# ----------------------------------------------------------------------
# golden widths: the width kernel in one call and knot by knot

_WIDTHS_GOLDEN_PATH = Path(__file__).with_name("widths_golden.json")
_WIDTHS_GRID = [(1, q) for q in range(1, 151)] + [
    (p, q) for q in range(3, 151) for p in range(2, q) if math.gcd(p, q) == 1
]


def _widths_record() -> dict:
    return {f"{p},{q}": list(width_torus(p, q)) for p, q in _WIDTHS_GRID}


def _load_widths_golden() -> dict:
    golden = json.loads(_WIDTHS_GOLDEN_PATH.read_text(encoding="utf-8"))
    assert list(golden) == [f"{p},{q}" for p, q in _WIDTHS_GRID]
    return golden


def test_widths_kernel_matches_golden_in_one_call():
    """The kernel over every golden knot, one column per p, each column
    shuffled with some knots twice."""
    golden = _load_widths_golden()
    rng = random.Random(20240613)
    knots = _WIDTHS_GRID + rng.sample(_WIDTHS_GRID, 300)
    rng.shuffle(knots)
    columns = {}
    for p, q in knots:
        columns.setdefault(p, []).append(q)
    for p, qs in columns.items():
        assert hfk._column_widths(p, qs) == [golden[f"{p},{q}"][2] for q in qs], p


def test_widths_match_golden_knot_by_knot():
    assert _widths_record() == _load_widths_golden()


_REAL_WINDOW_SHAPE = hfk._window_shape


def _second_dip(p, r):
    """The second-lowest dip of the window of T(p, p + r) and its point, a
    shape that is least in its class mod p but not in the window."""
    offset, index, count = _REAL_WINDOW_SHAPE(p, r)
    walk, dips = _window_walk(p, p + r)
    if len(dips) < 2:
        return offset, index, count
    _, second = sorted((walk[x], x) for x in dips)[1]
    return walk[second], second, count


def _moved_shape(offset_shift, index_shift):
    def moved(p, r):
        offset, index, count = _REAL_WINDOW_SHAPE(p, r)
        return offset + offset_shift, index + index_shift, count

    return moved


_SHAPE_FAULTS = {
    "offset+1": _moved_shape(1, 0),
    "offset-1": _moved_shape(-1, 0),
    "index+1": _moved_shape(0, 1),
    "index-1": _moved_shape(0, -1),
    "second dip": _second_dip,
}


@pytest.mark.parametrize("fault", list(_SHAPE_FAULTS))
def test_a_wrong_shape_never_widens_a_width(monkeypatch, fault):
    """The recount at the argmin proves that the reported minimum of h is
    attained, so a width that passes the certificate never exceeds the
    true one: every Floer lower bound it gives stays sound.  The neighbours
    at +-p check the argmin only within its class mod p, so a shape that
    names a higher dip of another class passes with a smaller width; that
    fault is left to the shape tests above."""
    golden = _load_widths_golden()
    monkeypatch.setattr(hfk, "_window_shape", _SHAPE_FAULTS[fault])
    raised = narrowed = 0
    for p, q in _WIDTHS_GRID:
        try:
            width = width_torus(p, q).width
        except RuntimeError as error:
            assert f"width certificate of T({p},{q}) failed" in str(error)
            raised += 1
            continue
        assert width <= golden[f"{p},{q}"][2], (fault, p, q)
        narrowed += width < golden[f"{p},{q}"][2]
    if fault == "second dip":
        assert not raised and narrowed  # 1412 knots narrowed, none caught
    else:
        assert raised == len(_WIDTHS_GRID)


# ----------------------------------------------------------------------
# generators


def test_golden_generators_2_3():
    assert _generators(2, 3) == [(1, 0, 1), (0, -1, 1), (-1, -2, 1)]


def test_golden_generators_4_5():
    assert _generators(4, 5) == [
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
        gens = _generators(p, q)
        assert {(-s, m - 2 * s, r) for s, m, r in gens} == set(gens)
        # (-1) ** m is a float for negative m; (-1) ** (m % 2) stays an int
        euler = LaurentPolynomial.from_terms((s, (-1) ** (m % 2)) for s, m, _ in gens)
        assert euler == alexander_torus(p, q)


def test_delta_sequence_is_the_spread_of_the_upper_generators():
    """One running sum feeds both: delta = s - m over the s >= 0 half.  The
    generators come built in descending Alexander grading, 2k + 1 of them."""
    for q in range(3, 60):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            stair = extract_staircase(alexander_torus(p, q))
            gens = hfk_from_staircase(stair)
            assert [s for s, _, _ in gens] == [*stair.s[::-1], *(-s for s in stair.s[1:])]
            deltas = [s - m for s, m, _ in gens if s >= 0]
            want = WidthReport(max(deltas), min(deltas), max(deltas) - min(deltas) + 1)
            assert delta_sequence(stair) == want, (p, q)


def test_top_generator_at_genus_with_maslov_zero():
    for p, q in ((2, 9), (3, 7), (5, 8)):
        top = _generators(p, q)[0]
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


@pytest.mark.parametrize(
    "p,q", [(2047, 2048), (1024, 4095), (3, 1398100), (2, 2097151)]
)
def test_widths_at_the_size_cap(p, q):
    """Knots with p * q at most 2^22 and a closed form: the largest knots
    the Alexander cap accepts, with p from 2 to 2047."""
    assert p * q <= 2**22
    assert width_torus(p, q).width == width_formula(p, q)


def test_width_cap_bounds_the_walk(monkeypatch):
    # T(3000, 3001) is above the Alexander cap, but its walk holds only
    # 3000 integers of (3000 * 3001).bit_length() = 24 bits.
    assert 3000 * 3001 > 2**22
    assert width_torus(3000, 3001).width == width_formula(3000, 3001) == 2248501
    monkeypatch.setattr(hfk, "_MAX_WIDTH_BITS", 3000 * 24)
    assert width_torus(3000, 3001).width == 2248501
    monkeypatch.setattr(hfk, "_MAX_WIDTH_BITS", 3000 * 24 - 1)
    with pytest.raises(
        KnotTooLarge, match="holds 3000 integers of 24 bits, above the cap of 71999 bits"
    ):
        width_torus(3001, 3000)


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


# ids from when a q_range rode along, kept so that each case keeps its name
@pytest.mark.parametrize("bound", [-5, 0, 3], ids=["-5-None", "0-None", "3-None"])
def test_scan_refuses_a_range_without_coprime_pairs(bound):
    with pytest.raises(ValueError, match="no coprime pair"):
        scan_conjecture(bound)


@pytest.mark.parametrize("bound", [True, 10.5, "50"])
def test_scan_refuses_a_bound_that_is_not_an_int(bound):
    with pytest.raises(TypeError, match=re.escape(f"bound {bound!r} is not an int")):
        scan_conjecture(bound)


@pytest.mark.parametrize("jobs", [True, 1.5, "2"])
def test_scan_refuses_jobs_that_are_not_an_int(jobs):
    # at bound 250 a float would otherwise reach multiprocessing.Pool, and True run 1 worker
    with pytest.raises(TypeError, match=re.escape(f"jobs {jobs!r} is not an int")):
        scan_conjecture(250, jobs=jobs)


def test_scan_cap_names_the_bound_and_the_pair_list():
    # The width walk's own cap would admit this scan and its ~1.1e9 pairs.
    with pytest.raises(
        KnotTooLarge,
        match=re.escape(
            "a scan to bound 60000 would list the coprime pairs up to "
            "T(59998,59999), whose p * q = 3599820002 is above the cap of 4194304"
        ),
    ):
        scan_conjecture(60000)


def test_smallest_scan_checks_one_pair():
    assert scan_conjecture(4) == (1, [])


def test_parallel_scan_matches_serial(monkeypatch):
    monkeypatch.setattr(hfk, "_SERIAL_BELOW", 1)  # a real pool, even this small
    for jobs in (1, 2, 3):
        assert scan_conjecture_parallel(60, jobs=jobs) == scan_conjecture(60)


def test_scan_reports_violations_by_q_then_p(monkeypatch):
    """Column 5 widened by 1, and column 7 narrowed by 2 from q = 30 on:
    every knot whose width or previous width moved by a different amount
    breaks its jump, and the scan reports them ordered by (q, p), as the
    list built here from the golden widths knot by knot says."""

    def moved(p, q):
        return (p == 5) - 2 * (p == 7 and q >= 30)

    real = hfk._column_widths
    monkeypatch.setattr(
        hfk, "_column_widths", lambda p, qs: [w + moved(p, q) for q, w in zip(qs, real(p, qs))]
    )
    golden = _load_widths_golden()

    def width(p, q):
        return golden[f"{p},{q}"][2] + moved(p, q)

    want = []
    for q in range(3, 40):
        for p in range(2, q):
            if math.gcd(p, q) == 1:
                w, w_prev = width(p, q), width(min(p, q - p), max(p, q - p))
                if w - w_prev != (p - 1) ** 2 // 4:
                    want.append((p, q, w, w_prev, (p - 1) ** 2 // 4))
    # previous knots in another column, in the same one, and the unknot
    assert {(7, 12), (7, 30), (5, 6)} <= {(p, q) for p, q, *_ in want}
    assert scan_conjecture(40) == (coprime_pair_count(40), want)


@pytest.fixture
def walks(monkeypatch):
    """Every (p, q mod p) whose window shape the width kernel walks."""
    seen = []
    real = hfk._window_shape

    def counted(p, r):
        seen.append((p, r))
        return real(p, r)

    monkeypatch.setattr(hfk, "_window_shape", counted)
    return seen


def test_scan_computes_each_width_once(monkeypatch, walks):
    calls = []  # every knot the width kernel gets
    real = hfk._column_widths

    def counted(p, qs):
        calls.extend((p, q) for q in qs)
        return real(p, qs)

    monkeypatch.setattr(hfk, "_column_widths", counted)
    checked, _ = scan_conjecture(40)
    assert len(calls) == len(set(calls)) == checked
    # one walk per (p, q mod p), fewer walks than knots
    assert len(walks) == len(set(walks)) < checked
    assert set(walks) == {(p, q % p) for p, q in calls}
    # the memo lives for one scan: a second scan walks every shape again
    scan_conjecture(40)
    assert walks[len(walks) // 2 :] == walks[: len(walks) // 2]


def test_width_certificate_fires_on_a_shape_already_walked(monkeypatch, walks):
    """T(4,9) reuses the shape that T(4,5) walked (q = 1 mod 4): least h at
    L + 2 = 8.  A count off there fails the certificate, which names T(4,9)."""
    _shift_recount(monkeypatch, (4, 9), 8, 1)
    with pytest.raises(RuntimeError, match=re.escape("width certificate of T(4,9) failed")):
        scan_conjecture(10)
    assert walks.count((4, 1)) == 1


def _usable(monkeypatch, cpus):
    """Let the process use ``cpus`` cores; None stands for a platform with no
    affinity mask whose os.cpu_count() cannot tell."""
    if cpus is None:
        monkeypatch.delattr(hfk.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(hfk.os, "cpu_count", lambda: None)
    else:
        cores = set(range(cpus))
        monkeypatch.setattr(hfk.os, "sched_getaffinity", lambda pid: cores, raising=False)


def test_small_scans_run_serially(monkeypatch, inline_pool):
    _usable(monkeypatch, 2)
    # the knots' p sum to 12,462 below 50, 134,642 below 110, 173,550 below 120
    assert scan_conjecture(50) == scan_conjecture(50, jobs=1)
    assert scan_conjecture(110)[1] == []
    assert inline_pool == []
    # bound 120 and up use the pool; a stand-in width keeps this test fast
    monkeypatch.setattr(hfk, "_column_widths", lambda p, qs: [1] * len(qs))
    scan_conjecture(120)
    scan_conjecture(250)
    assert inline_pool == [2, 2]
    # above the threshold the pool takes every usable core, whatever the size
    _usable(monkeypatch, 8)
    scan_conjecture(120)
    assert inline_pool == [2, 2, 8]


def test_scan_on_one_usable_core_starts_no_pool(monkeypatch, inline_pool):
    monkeypatch.setattr(hfk.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(hfk, "_column_widths", lambda p, qs: [1] * len(qs))
    scan_conjecture(250)
    scan_conjecture(250, jobs=8)
    assert inline_pool == []


def test_usable_cores_fall_back_to_the_core_count(monkeypatch, inline_pool):
    # a platform with no affinity mask: every core of the machine, else one
    monkeypatch.setattr(hfk, "_SERIAL_BELOW", 1)
    monkeypatch.delattr(hfk.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(hfk.os, "cpu_count", lambda: 3)
    scan_conjecture(30)
    monkeypatch.setattr(hfk.os, "cpu_count", lambda: None)
    scan_conjecture(30)
    assert inline_pool == [3]


def test_the_benchmark_name_runs_the_serial_scan(inline_pool):
    # bench/workloads.py times hfk.scan_conjecture_parallel(bound, jobs=1)
    assert "scan_conjecture_parallel" not in hfk.__all__
    assert hfk.scan_conjecture_parallel(50, jobs=1) == scan_conjecture(50)
    assert hfk.scan_conjecture_parallel(250, jobs=1)[1] == []
    assert inline_pool == []


@pytest.mark.parametrize(
    "cpus,jobs,pool_size",
    [(2, 64, 2), (4, 3, 3), (1, 8, None), (None, 8, None), (8, 0, None), (8, -3, None)],
)
def test_scan_clamps_jobs_to_cpu_count(monkeypatch, inline_pool, cpus, jobs, pool_size):
    # the pool size is the least of the usable cores, the jobs cap and the
    # scan's own count, here made large
    monkeypatch.setattr(hfk, "_SERIAL_BELOW", 1)
    _usable(monkeypatch, cpus)
    assert scan_conjecture(30, jobs=jobs) == scan_conjecture(30, jobs=1)
    assert inline_pool == ([] if pool_size is None else [pool_size])
    # with no cap, the usable cores alone
    inline_pool.clear()
    scan_conjecture(30)
    assert inline_pool == ([] if cpus in (None, 1) else [cpus])


if __name__ == "__main__":
    # Re-record tests/widths_golden.json from the current code:
    #     PYTHONPATH=src python tests/test_hfk.py
    # Only do this for a deliberate change of the width of some knot.
    _WIDTHS_GOLDEN_PATH.write_text(
        "{\n"
        + ",\n".join(f' "{key}": {json.dumps(v)}' for key, v in _widths_record().items())
        + "\n}\n",
        encoding="utf-8",
    )
