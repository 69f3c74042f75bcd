"""Knot Floer staircase complexes of L-space knots, and their widths.

For an L-space knot (torus knots in particular) the knot Floer homology is a
"staircase": one generator per nonzero Alexander coefficient.  Writing the
Alexander polynomial as

    Delta(t) = (-1)^k + sum_{l=1..k} (-1)^{k-l} (t^{s_l} + t^{-s_l}),

with 0 = s_0 < s_1 < ... < s_k, the generator in Alexander grading s_l has
Maslov grading m_l determined by m_k = 0 and, descending,

    m_l = m_{l+1} - 2(s_{l+1} - s_l) + 1    if k - l is odd,
    m_l = m_{l+1} - 1                       if k - l is even (and > 0).

Generators with negative Alexander grading follow from the symmetry
(s, m) <-> (-s, m - 2s) and are never stored; only l = 0..k lives in memory.
The delta grading delta_l = s_l - m_l obeys the analogous descending
recursion, and the homological width is max(delta) - min(delta) + 1.

For torus knots the staircase comes straight off the numerical semigroup
<p, q>: with g = (p-1)(q-1)/2,

    Delta(t) * t^g = (1 - t) * sum_{x in <p,q>} t^x    (truncated at t^{2g}),

so there is no polynomial division.  One kernel takes a batch of knots that
share p: a broadcast compare against a small threshold table per knot lays
out their coefficients, one row per knot; the L-space-form checks of
:func:`extract_staircase` run once on the whole table, and the delta
recursion is one cumulative sum over the steps of all rows, reduced per row.
A batch costs a fixed few dozen numpy calls plus work linear in its size;
:func:`width_torus` is a batch of one.

:func:`scan_conjecture` computes each width of the width-jump scan once,
serially or in a process pool, and checks the jumps in one fixed order.
Small scans run serially, because starting the pool costs more than they do.

numpy is imported by the functions that use it, on their first call, not
when this module is imported: code that never computes a staircase or a
width never loads it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .alexander import _CLOSED_FORMS, _check_torus_size, normalize_torus_params
from .laurent import LaurentPolynomial

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NotLSpaceForm",
    "Staircase",
    "HFKTable",
    "WidthReport",
    "ConjectureViolation",
    "extract_staircase",
    "hfk_from_staircase",
    "delta_sequence",
    "width_torus",
    "width_formula",
    "scan_conjecture",
    "scan_conjecture_parallel",
]


class NotLSpaceForm(ValueError):
    """The polynomial is not the Alexander polynomial of any L-space knot."""


@dataclass(frozen=True)
class Staircase:
    """The nonnegative step heights 0 = s_0 < s_1 < ... < s_k."""

    k: int
    s: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.s) != self.k + 1 or not self.s or self.s[0] != 0:
            raise ValueError(
                f"a staircase with k = {self.k} needs {self.k + 1} steps "
                f"starting at 0, got {self.s}"
            )
        if any(a >= b for a, b in zip(self.s, self.s[1:])):
            raise ValueError(f"staircase steps must strictly increase, got {self.s}")


@dataclass(frozen=True)
class HFKTable:
    """Generators of the staircase complex.

    ``s`` and ``m`` hold the Alexander and Maslov gradings for l = 0..k only;
    the full generator list (including the mirror half) is materialized by
    :meth:`generators`.
    """

    k: int
    s: tuple[int, ...]
    m: tuple[int, ...]

    def generators(self) -> list[tuple[int, int, int]]:
        """All (alexander, maslov, rank) triples, by descending Alexander grading.

        Ranks are always 1 for a staircase.  The negative-grading half is
        produced on demand via the symmetry (s, m) -> (-s, m - 2s).
        """
        upper = [(s, m, 1) for s, m in zip(self.s, self.m)]
        lower = [(-s, m - 2 * s, 1) for s, m in zip(self.s, self.m) if s > 0]
        return sorted(upper + lower, key=lambda g: -g[0])

    def euler_characteristic(self) -> LaurentPolynomial:
        """sum over generators of (-1)^maslov * t^alexander."""
        return LaurentPolynomial.from_terms(
            [(s, (-1) ** (m % 2)) for s, m, _ in self.generators()]
        )


@dataclass(frozen=True)
class WidthReport:
    """Delta-grading spread of a staircase."""

    delta_max: int
    delta_min: int
    width: int


@dataclass(frozen=True)
class ConjectureViolation:
    """A coprime pair where the width jump differs from the predicted step."""

    p: int
    q: int
    width: int
    previous_width: int
    expected_jump: int


def _lspace_steps(table: np.ndarray, low: int) -> tuple:
    """The checked staircase steps of each row of ``table``.

    Row r holds the coefficients of t^low, t^(low+1), ... of one polynomial.
    Returns (i, c, first, last): the terms c * t^s with s >= 0, at
    i = r * (1 - low) + s in row-major order, and each row's first and last
    index in them.  Raises NotLSpaceForm unless each row is nonzero, +-1,
    palindromic, with a nonzero constant term, signs alternating along the
    support (by the symmetry, along its nonnegative half) and leading +1.
    """
    import numpy as np

    if table.min() < -1 or table.max() > 1:  # a zero row passes this and the next
        raise NotLSpaceForm("coefficients must all be +-1")
    if low != -(low + table.shape[1] - 1) or np.count_nonzero(table != table[:, ::-1]):
        raise NotLSpaceForm("polynomial is not palindromic")
    upper = table[:, -low:].ravel()
    if np.count_nonzero(upper[:: 1 - low]) < len(table):
        if np.count_nonzero(table.any(axis=1)) < len(table):
            raise NotLSpaceForm("the zero polynomial has no staircase")
        raise NotLSpaceForm("constant coefficient must be nonzero")
    (i,) = upper.nonzero()
    c = upper[i]
    bounds = i.searchsorted(np.arange(0, len(upper) + 1, 1 - low))
    last = bounds[1:] - 1
    repeats = c[1:] == c[:-1]
    repeats[last[:-1]] = False  # a row's last term and the next row's first
    if np.count_nonzero(repeats):
        raise NotLSpaceForm("signs must alternate along the support")
    if np.count_nonzero(c[last] != 1):
        raise NotLSpaceForm("leading coefficient must be +1")
    return i, c, bounds[:-1], last


def extract_staircase(delta: LaurentPolynomial) -> Staircase:
    """Read the staircase steps off an L-space-form Alexander polynomial.

    Requirements checked (NotLSpaceForm otherwise): the polynomial is
    palindromic, every nonzero coefficient is +-1, the constant coefficient is
    nonzero, the signs strictly alternate along the support, and the leading
    coefficient is +1.

    >>> extract_staircase(LaurentPolynomial.from_text("t^{-1}-1+t"))
    Staircase(k=1, s=(0, 1))
    """
    import numpy as np

    try:  # the zero polynomial as 0 * t^0
        coefficients = np.fromiter(delta.coefficients or (0,), np.int64)
    except OverflowError:  # beyond int64, so certainly not +-1
        raise NotLSpaceForm("coefficients must all be +-1") from None
    s = _lspace_steps(coefficients[None], delta.min_exponent)[0]
    return Staircase(k=len(s) - 1, s=tuple(s.tolist()))


def _walk(s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Prefix sums P with delta_l = s[z] + P[z] - P[l], z the last step of l's row.

    Down from step l to l-1, delta grows by c[l] * (s[l] - s[l-1] - 1), the
    recursion with the parity of k - l read off the alternating signs; as
    c[l-1] = -c[l], that is the step of cumsum(c * (2s - 1)) - c * s.  A new
    row, or a shift of s, only adds a constant to a row's P.
    """
    import numpy as np

    cs = c * s
    return np.add.accumulate(cs + cs - c) - cs


def _torus_spreads(p: int, qs: list[int]) -> tuple:
    """(delta_max, delta_min) arrays of T(p, q), q in ``qs``, 1 <= p <= q.

    The coefficient of t^e is inS[e+g] - inS[e+g-1].  A row of the table
    holds t^-G..t^G, G the largest genus g; write e + G = a*p + c for row a
    and column c, and y = c + g - G.  As q * (y * q^-1 mod p) is the least
    element of <p, q> congruent to y, e + g = a*p + y is in <p, q> iff
    a*p >= q * (y * q^-1 mod p) - y.  Column c = -1 tests e + g - 1 for
    c = 0.  No x < 0 is in <p, q> and every x past 2g is: padding has no term.
    """
    import numpy as np

    top = (p - 1) * (max(qs) - 1) // 2
    columns = [qs, [pow(q, -1, p) for q in qs], [(p - 1) * (q - 1) // 2 for q in qs]]
    q, inverse, genus = np.array(columns)[:, :, None]
    y = np.arange(-1 - top, p - top) + genus
    threshold = q * (inverse * y % p) - y
    member = (np.arange(0, 2 * top + 1, p)[:, None] >= threshold[:, None, :]).view(np.int8)
    table = (member[..., 1:] - member[..., :-1]).reshape(len(qs), -1)[:, : 2 * top + 1]
    i, c, first, last = _lspace_steps(table, -top)
    walk = _walk(i, c)
    peak = genus[:, 0] + walk[last]  # the top step's delta, s_k + P_k
    low = np.minimum.reduceat(walk, first)
    return peak - low, peak - np.maximum.reduceat(walk, first)


def hfk_from_staircase(stair: Staircase) -> HFKTable:
    """Maslov gradings of the staircase generators (l = 0..k half).

    >>> hfk_from_staircase(Staircase(1, (0, 1))).generators()
    [(1, 0, 1), (0, -1, 1), (-1, -2, 1)]
    """
    import numpy as np

    s = np.asarray(stair.s, dtype=np.int64)
    walk = _walk(s, (-1) ** np.arange(stair.k, -1, -1))  # signs (-1)^(k-l)
    return HFKTable(k=stair.k, s=stair.s, m=tuple((s - s[-1] - walk[-1] + walk).tolist()))


def delta_sequence(stair: Staircase) -> WidthReport:
    """Delta gradings delta_l = s_l - m_l and the width of their spread."""
    table = hfk_from_staircase(stair)
    deltas = [s - m for s, m in zip(table.s, table.m)]
    return WidthReport(max(deltas), min(deltas), max(deltas) - min(deltas) + 1)


def width_torus(p: int, q: int) -> WidthReport:
    """Homological width of the (p, q) torus knot.

    >>> width_torus(4, 5).width
    3
    """
    p, q = normalize_torus_params(p, q)
    _check_torus_size(p, q)
    dmax, dmin = (int(spread[0]) for spread in _torus_spreads(p, [q]))
    return WidthReport(dmax, dmin, dmax - dmin + 1)


def width_formula(p: int, q: int) -> int:
    """Closed-form width for the families that admit one.

    Covered: q = pn+1 and q = pn-1 for any p >= 2 (n >= 1), and q = 5n+2 /
    5n+3 for p = 5.  Raises ValueError for parameters outside those families
    (use :func:`width_torus` instead, which always works).
    """
    p, q = normalize_torus_params(p, q)
    if p == 1:
        return 1
    for r, strands, _, width in _CLOSED_FORMS.values():
        n, rest = divmod(q - r, p)
        if rest == 0 and strands in (None, p):
            return width(p, n)
    raise ValueError(f"no closed-form width is implemented for ({p}, {q})")


# A scan whose kernels total fewer entries than this runs serially: below it,
# starting a pool cost more than it saved (2 cores: bound 50, 4.3e5 entries,
# took 11 ms serially and 28 ms with 2 workers; they broke even near 5e6
# entries, about bound 90; bound 250, 2.9e8 entries, took 2.3 s and 1.2 s).
_SERIAL_BELOW = 5_000_000


# Table entries in one batch of the width kernel; fixed, as peak memory grows with it.
_BATCH_ENTRIES = 16_384


def _widths(knots: list[tuple[int, int]]) -> list[int]:
    """Widths of the normalized ``knots`` in order, by batches of consecutive
    knots that share p, each within about ``_BATCH_ENTRIES`` table entries."""
    batches: list[tuple[int, list[int]]] = []
    for p, q in knots:
        fits = batches and (len(qs) + 1) * p * max(q, q_max) <= _BATCH_ENTRIES
        if fits and batches[-1][0] == p:
            qs.append(q)
            q_max = max(q_max, q)
        else:
            qs, q_max = [q], q
            batches.append((p, qs))
    widths: list[int] = []
    for p, qs in batches:
        dmax, dmin = _torus_spreads(p, qs)
        widths += (dmax - dmin + 1).tolist()
    return widths


def scan_conjecture(
    bound: int, q_range: tuple[int, int] | None = None, *, jobs: int = 1
) -> tuple[int, list[ConjectureViolation]]:
    """Check the width jump width(p,q) - width(p,q-p) == floor((p-1)^2/4).

    Scans all coprime pairs 1 < p < q < bound (optionally restricted to
    q in [q_range)), comparing each width with the width of the previous
    knot in its column; (p, q-p) pairs with q - p <= 1 have width 1.
    Returns (number of pairs checked, violations), violations ordered by
    (q, p).  An empty violation list over the full range is the conjecture
    holding below the bound.  A range with no coprime pair is a
    ``ValueError``: the scan would check nothing.  A range whose largest
    knot T(q-1, q) is above the size cap raises KnotTooLarge at once.

    Every width the check needs is computed exactly once.  With ``jobs`` > 1
    (clamped to [1, os.cpu_count()]) a process pool computes them, each
    worker taking every jobs-th knot, unless the knots' kernels total fewer
    than ``_SERIAL_BELOW`` entries; the check itself always runs here in
    one fixed order, so the result is identical for every worker count.
    """
    q_lo, q_hi = q_range if q_range is not None else (3, bound)
    q_max = min(q_hi, bound) - 1
    if q_max >= max(q_lo, 3):  # refuse a too-large knot before listing any pair
        _check_torus_size(q_max - 1, q_max)
    pairs = [
        (p, q)
        for q in range(max(q_lo, 3), min(q_hi, bound))
        for p in range(2, q)
        if math.gcd(p, q) == 1
    ]
    if not pairs:
        raise ValueError(
            f"no coprime pair 1 < p < q < {bound}"
            + (f" with q in [{q_lo}, {q_hi})" if q_range is not None else "")
            + ": nothing to scan"
        )
    previous = [(min(p, q - p), max(p, q - p)) for p, q in pairs]
    knots = sorted(set(pairs).union(knot for knot in previous if knot[0] > 1))
    jobs = max(1, min(jobs, os.cpu_count() or 1, len(knots)))
    if sum((p - 1) * (q - 1) + 1 for p, q in knots) < _SERIAL_BELOW:
        jobs = 1
    if jobs == 1:
        widths = _widths(knots)
    else:
        import multiprocessing

        shares = [knots[i::jobs] for i in range(jobs)]
        with multiprocessing.Pool(processes=jobs) as pool:
            parts = pool.map(_widths, shares)
        knots = [knot for share in shares for knot in share]
        widths = [w for part in parts for w in part]
    width = dict(zip(knots, widths))

    violations: list[ConjectureViolation] = []
    for (p, q), prev in zip(pairs, previous):
        w = width[p, q]
        w_prev = width[prev] if prev[0] > 1 else 1
        jump = ((p - 1) ** 2) // 4
        if w - w_prev != jump:
            violations.append(ConjectureViolation(p, q, w, w_prev, jump))
    return len(pairs), violations


# The same function under the name that existing callers of the parallel scan use.
scan_conjecture_parallel = scan_conjecture
