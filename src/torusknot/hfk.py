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

For the (p, q) torus knot, :func:`width_torus` reads the staircase straight
off the numerical semigroup <p, q>.  With g = (p-1)(q-1)/2,

    Delta(t) * t^g = (1 - t) * sum_{x in <p,q>} t^x    (truncated at t^{2g}),

and x lies in <p, q> iff x >= q * ((x * q^-1) mod p), so the coefficients
over 0..2g are one integer-array expression inS[x] - inS[x-1]; there is no
polynomial division.  The same L-space-form checks as for a user-supplied
polynomial (:func:`extract_staircase`) run on that array, and the delta
recursion is a reversed cumulative sum over the steps, so a width is a
handful of O(pq) numpy array operations.

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


def _lspace_steps(min_exponent: int, coefficients: np.ndarray) -> np.ndarray:
    """The steps s_0..s_k of a trimmed dense coefficient array, checked.

    ``coefficients[i]`` is the coefficient of t^(min_exponent + i), and the
    first and last entries are nonzero unless the array is empty.  Raises
    NotLSpaceForm unless every coefficient is 0 or +-1, the polynomial is
    palindromic, the constant coefficient is nonzero, the signs alternate
    along the support and the leading coefficient is +1.  By the symmetry,
    alternation over the nonnegative half is alternation over the support.
    """
    if coefficients.size == 0:
        raise NotLSpaceForm("the zero polynomial has no staircase")
    if coefficients.min() < -1 or coefficients.max() > 1:
        raise NotLSpaceForm("coefficients must all be +-1")
    if (
        min_exponent != -(min_exponent + coefficients.size - 1)
        or not (coefficients == coefficients[::-1]).all()
    ):
        raise NotLSpaceForm("polynomial is not palindromic")
    upper = coefficients[-min_exponent:]
    if upper[0] == 0:
        raise NotLSpaceForm("constant coefficient must be nonzero")
    s = upper.nonzero()[0]
    signs = upper[s]
    if (signs[1:] == signs[:-1]).any():
        raise NotLSpaceForm("signs must alternate along the support")
    if signs[-1] != 1:
        raise NotLSpaceForm("leading coefficient must be +1")
    return s


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

    count = len(delta.coefficients)
    try:
        coefficients = np.fromiter(delta.coefficients, np.int64, count)
    except OverflowError:  # beyond int64, so certainly not +-1
        raise NotLSpaceForm("coefficients must all be +-1") from None
    s = _lspace_steps(delta.min_exponent, coefficients)
    return Staircase(k=len(s) - 1, s=tuple(s.tolist()))


def _torus_steps(p: int, q: int) -> np.ndarray:
    """Checked staircase steps of T(p, q), 1 <= p <= q coprime, from <p, q>.

    x is in <p, q> iff x >= q * ((x * q^-1) mod p): the right side is the
    least element of <p, q> congruent to x mod p.  With x < pq and
    q^-1 < p <= sqrt(pq), the products stay below (pq)^1.5, far inside int64
    for any array that fits in memory.
    """
    import numpy as np

    top = (p - 1) * (q - 1)  # 2g, the conductor of <p, q>
    x = np.arange(top + 1)
    in_semigroup = (x >= q * (x * pow(q, -1, p) % p)).view(np.int8)
    coefficients = in_semigroup.copy()  # inS[x] - inS[x-1], with inS[-1] = 0
    coefficients[1:] -= in_semigroup[:-1]
    return _lspace_steps(-(top // 2), coefficients)


def _descending_sums(odd_step: np.ndarray, even_step: np.ndarray) -> np.ndarray:
    """Evaluate v_k = 0, v_l = v_{l+1} + w_l with w_l chosen by parity of k-l.

    ``odd_step[l]`` / ``even_step[l]`` (l = 0..k-1) give w_l for k-l odd /
    even; returns v_0..v_{k-1}, leaving v_k = 0 implicit.
    """
    w = even_step.copy()
    w[-1::-2] = odd_step[-1::-2]
    return w[::-1].cumsum()[::-1]


def hfk_from_staircase(stair: Staircase) -> HFKTable:
    """Maslov gradings of the staircase generators (l = 0..k half).

    >>> hfk_from_staircase(Staircase(1, (0, 1))).generators()
    [(1, 0, 1), (0, -1, 1), (-1, -2, 1)]
    """
    import numpy as np

    s = np.asarray(stair.s, dtype=np.int64)
    diffs = s[1:] - s[:-1]
    m = _descending_sums(-2 * diffs + 1, np.full(len(diffs), -1, dtype=np.int64))
    return HFKTable(k=stair.k, s=stair.s, m=(*m.tolist(), 0))


def _width_report(s: np.ndarray) -> WidthReport:
    """Spread of the delta gradings delta_l = s_l - m_l over steps ``s``."""
    diffs = s[1:] - s[:-1]
    v = _descending_sums(diffs - 1, 1 - diffs)  # delta_l - s_k for l < k
    dmax, dmin = int(s[-1] + v.max(initial=0)), int(s[-1] + v.min(initial=0))
    return WidthReport(delta_max=dmax, delta_min=dmin, width=dmax - dmin + 1)


def delta_sequence(stair: Staircase) -> WidthReport:
    """Delta gradings delta_l = s_l - m_l and the width of their spread."""
    import numpy as np

    return _width_report(np.asarray(stair.s, dtype=np.int64))


def width_torus(p: int, q: int) -> WidthReport:
    """Homological width of the (p, q) torus knot.

    >>> width_torus(4, 5).width
    3
    """
    p, q = normalize_torus_params(p, q)
    _check_torus_size(p, q)
    return _width_report(_torus_steps(p, q))


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
# starting a pool cost more than it saved (2 cores: the bound-50 scan, 4.3e5
# entries, took 36 ms serially and 64 ms with 2 workers; the two broke even
# near 2e6 entries, about bound 72; bound 250 has 2.9e8).
_SERIAL_BELOW = 2_000_000


def _widths(knots: list[tuple[int, int]]) -> list[int]:
    return [width_torus(p, q).width for p, q in knots]


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
