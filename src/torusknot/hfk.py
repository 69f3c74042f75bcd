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
(s, m) <-> (-s, m - 2s).  A staircase is its steps s alone; the generators
are a list of (s, m, 1) triples, the upper half and then its mirror.  The
delta grading delta_l = s_l - m_l obeys the analogous descending recursion,
one running sum that both the generators and the width read, and the
homological width is max(delta) - min(delta) + 1.

For torus knots the width needs no staircase at all.  Let S = <p, q> be
the numerical semigroup, p <= q coprime, g = (p-1)(q-1)/2, and

    h(x) = 2 #(S n [0, x)) - x.

As Delta(t) * t^g = (1 - t) * sum_{x in S} t^x (truncated at t^{2g}), the
generators sit at x = s + g where a run or a gap of S starts, and h rises
along runs and falls along gaps.  Between generators a distance d apart the
delta recursion moves by d - 1 the way h moves by d, so a generator has
delta g + h(x) where a run starts and g + h(x) - 1 where a gap starts.  As
h is least where a run starts, delta_min = g + min h; delta_max = g, the
delta of the top generator; and width = 1 - min h.

The least element of S congruent to x mod p is q * (x * q^-1 mod p), so p
consecutive integers hold one element of each class, and the class of b*q
(0 <= b < p) has an element of S in [x, x+p) iff b*q < x + p.  Hence

    h(x+p) - h(x) = 2 min(p, max(0, ceil((x+p)/q))) - p,

which never decreases as x grows: it is negative exactly for
x < L = q(ceil(p/2) - 1) - p + 1.  So h(x) > h(x+p) below L and
h(x) <= h(x+p) from L on, and min h is attained on the p integers
[L, L+p).  With c = ceil(p/2), L + p = q(c - 1) + 1, so the window's
members of S are the c elements of the classes of j*q, j < c, and they sit
at L + x_j, x_j = (-1 - j*q) mod p.  So the walk of h over the window,
taken from h(L), depends on p and q mod p alone: its shape is the offset of
min h from h(L) and the first argmin.  As x_0 = p - 1, h is least just
before an element, and just before the j-th smallest x_(j), h - h(L) =
2j - x_(j): the c sorted positions give the shape, with no step over the
p integers.  The start h(L) needs no count either.  The elements of S
below L + p are those of the same classes, so with q = k*p + r,

    #(S n [0, L)) = sum_{j<c} floor(j*q/p) = b_r + k*c(c-1)/2,

where b_r = sum_{j<c} floor(j*r/p) = (r*c(c-1)/2 + sum x_j) // p - (c - 1)
depends on p and r alone and is read off the positions x_j.
:func:`_column_widths` takes a column of knots T(p, q), one p: it reads
each shape and sums its b_r once per residue q mod p, and reads the minimum
of every knot off them.

Each width is certified by three counts,

    #(S n [0, x)) = sum_{0 <= b < p, b*q < x} ceil((x - b*q)/p),

of h at the argmin a and at a +- p, taken in one pass over the classes.
With u_b = ceil((a + p - b*q)/p) for the n classes with b*q < a + p, and
ceil((y - j*p)/p) = ceil(y/p) - j, the counts at a + p, a and a - p are
sum u, sum u - n and sum u - 2n + #(u_b = 1): each is the definition
summed class by class, and none uses the increment h(x+p) - h(x) that
placed the window.  That is O(p) Python-int work per knot, and no list.
A RuntimeError naming T(p, q) is raised if the minimum read off the shape
disagrees with its recount or a neighbour lies lower.  The recount at the
argmin checks the closed-form start and the shape's offset together: it
proves that h attains that minimum, so a reported width never exceeds the
true one and every lower bound drawn from a width stays sound.  The
neighbours prove only that the argmin is least in its class mod p; they do
not rule out a lower dip in another class, which would give a smaller
width.  The tests check every shape a scan below bound 250 reads against
an independent walk.

:func:`scan_conjecture` computes each width of the width-jump scan once,
column by column, serially or with one column per task of a process pool
that it sizes from the usable cores and its own size, so a small scan runs
serially.  It checks each jump inside the column, against the previous
knot T(p, q-p) of the same column, T(q-p, p) of column q-p, or the unknot,
and sorts the violations by (q, p), the same for every worker count.
No width needs a polynomial, so the module loads neither
:mod:`~torusknot.laurent` nor :mod:`~torusknot.alexander`, whose closed-form
table :func:`width_formula` imports when it is called.
"""

from __future__ import annotations

import math
import os
from itertools import accumulate, compress, cycle, repeat, starmap
from operator import add, floordiv, lt, mod, mul, sub
from typing import TYPE_CHECKING, Iterable, NamedTuple

from ._gate import MAX_TORUS_PRODUCT, KnotTooLarge, normalize_torus_params

if TYPE_CHECKING:
    from .laurent import LaurentPolynomial

__all__ = [
    "NotLSpaceForm", "Staircase", "WidthReport", "ConjectureViolation",
    "extract_staircase", "hfk_from_staircase", "delta_sequence", "width_torus",
    "width_formula", "scan_conjecture",
]


class NotLSpaceForm(ValueError):
    """The polynomial is not the Alexander polynomial of any L-space knot."""


class Staircase(NamedTuple("Staircase", [("s", tuple[int, ...])])):
    """The nonnegative step heights 0 = s_0 < s_1 < ... < s_k, as a tuple of ints."""

    __slots__ = ()

    def __new__(cls, s: Iterable[int]) -> "Staircase":
        s = tuple(s)
        if not set(map(type, s)) <= {int}:  # bools and floats are not steps
            raise TypeError(f"staircase steps must be ints, got {s}")
        if not s or s[0] != 0:
            raise ValueError(f"a staircase needs steps starting at 0, got {s}")
        if not all(map(lt, s, s[1:])):
            raise ValueError(f"staircase steps must strictly increase, got {s}")
        return super().__new__(cls, s)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @property
    def k(self) -> int:
        """The index of the top step."""
        return len(self.s) - 1


class WidthReport(NamedTuple):
    """Delta-grading spread of a staircase."""

    delta_max: int
    delta_min: int
    width: int


class ConjectureViolation(NamedTuple):
    """A coprime pair where the width jump differs from the predicted step."""

    p: int
    q: int
    width: int
    previous_width: int
    expected_jump: int


def extract_staircase(delta: LaurentPolynomial) -> Staircase:
    """Read the staircase steps off an L-space-form Alexander polynomial.

    Requirements checked (NotLSpaceForm otherwise): the polynomial is
    palindromic, every nonzero coefficient is +-1, the constant coefficient is
    nonzero, the signs strictly alternate along the support (by the symmetry,
    along its nonnegative half), and the leading coefficient is +1.

    >>> from torusknot.laurent import LaurentPolynomial
    >>> extract_staircase(LaurentPolynomial.from_text("t^{-1}-1+t"))
    Staircase(s=(0, 1))
    """
    coefficients, low = delta.coefficients, delta.min_exponent
    # One pass over the dense coefficients: the exponents of the nonzero
    # terms.  Every check below reads the terms alone.
    at = list(compress(range(low, low + len(coefficients)), coefficients))
    c = [coefficients[e - low] for e in at]
    if not set(c) <= {-1, 1}:
        raise NotLSpaceForm("coefficients must all be +-1")
    if at != [-e for e in reversed(at)] or c != c[::-1]:
        raise NotLSpaceForm("polynomial is not palindromic")
    if not len(at) % 2:  # symmetric terms pair off unless one sits at t^0
        if not at:
            raise NotLSpaceForm("the zero polynomial has no staircase")
        raise NotLSpaceForm("constant coefficient must be nonzero")
    half = len(at) // 2  # the constant term
    s, c = at[half:], c[half:]
    if c[::2].count(c[0]) + c[1::2].count(-c[0]) != len(c):
        raise NotLSpaceForm("signs must alternate along the support")
    if c[-1] != 1:
        raise NotLSpaceForm("leading coefficient must be +1")
    return Staircase(s)


def _deltas(s: tuple[int, ...]) -> list[int]:
    """Delta gradings delta_k, ..., delta_0 of the steps ``s``, top first.

    Down from step l to l-1, delta grows by c_l * (s_l - s_{l-1} - 1), the
    recursion with the parity of k - l read off the signs c_l = (-1)^(k-l);
    so delta is one running sum down from delta_k = s_k - m_k = s_k.
    """
    gaps = map(sub, s[:0:-1], map(add, s[-2::-1], repeat(1)))  # s_l - s_{l-1} - 1
    return list(accumulate(map(mul, cycle((1, -1)), gaps), initial=s[-1]))


def hfk_from_staircase(stair: Staircase) -> list[tuple[int, int, int]]:
    """All (alexander, maslov, rank) generators, by descending Alexander grading.

    The Maslov grading of step l is m_l = s_l - delta_l; ranks are always 1.
    The upper half is listed from the top step down, then its mirror under
    (s, m) -> (-s, m - 2s), from s_1 on.

    >>> hfk_from_staircase(Staircase((0, 1)))
    [(1, 0, 1), (0, -1, 1), (-1, -2, 1)]
    """
    top = stair.s[::-1]
    upper = list(zip(top, map(sub, top, _deltas(stair.s)), repeat(1)))
    return upper + [(-s, m - 2 * s, 1) for s, m, _ in upper[-2::-1]]


def delta_sequence(stair: Staircase) -> WidthReport:
    """The spread of the delta gradings delta_l = s_l - m_l, and its width."""
    deltas = _deltas(stair.s)
    high, low = max(deltas), min(deltas)
    return WidthReport(high, low, high - low + 1)


def _recounts(p: int, q: int, at: int) -> tuple[int, int, int]:
    """#(<p, q> n [0, x)) at x = at - p, at and at + p, in one pass, p <= q.

    The class of b*q (b < p, bq < at + p) has u_b = ceil((at + p - bq)/p)
    elements below at + p, and u_b - j below at + p - j*p where that is
    positive.  With n classes, the counts are sum u - 2n + #(u_b = 1),
    sum u - n and sum u, each the definition summed class by class.  As
    q >= p, u_b falls by at least 1 from one class to the next, so only the
    last class can have u_b = 1.
    """
    top = at + 2 * p - 1  # (top - bq) // p is u_b, and at least 1 iff bq < at + p
    tops = range(top, max(p - 1, top - p * q), -q)  # each at least p: u_b = 1 iff below 2p
    total, n = sum(map(floordiv, tops, repeat(p))), len(tops)
    return total - 2 * n + (n and tops[-1] < 2 * p), total - n, total


_MAX_WIDTH_BITS = 2**21  # T(65535, 65536) is the largest T(p, p+1) width_torus takes


def _window_shape(p: int, r: int) -> tuple[int, int, int]:
    """The offset of min h from h(L), its first argmin - L, and b_r, over
    the window [L, L+p) of every T(p, q) with q = r mod p (see the module
    docstring): #(S n [0, L)) = b_r + (q // p) * c(c-1)/2, c = ceil(p/2).

    h falls along gaps and rises past each element, and the window's last
    integer, x_0 = p - 1, is an element; so h is least just before one.
    Just before the j-th smallest position x_(j), h - h(L) = 2j - x_(j),
    so the c sorted positions give both the offset and the first argmin.
    """
    c = (p + 1) // 2
    # the window's elements of <p, q>, less L: x_j = (-1 - j*r) mod p = (p - 1 + j*(p - r)) mod p
    at = sorted(map(mod, range(p - 1, p - 1 + c * (p - r), p - r), repeat(p)))
    dips = list(map(sub, range(0, 2 * c, 2), at))  # h - h(L) just before each element
    least = min(dips)
    return least, at[dips.index(least)], (r * c * (c - 1) // 2 + sum(at)) // p - (c - 1)


def _column_widths(p: int, qs: Iterable[int]) -> list[int]:
    """Widths of T(p, q) for q in ``qs``, 1 <= p <= q coprime, as 1 - min h,
    certified never to exceed the true ones.

    Reads the window shape and its b_r off the sorted window residues once
    per residue q mod p, so h(L) of every knot comes in closed form; then
    recounts h at the argmin, which proves the minimum attained, and at the
    argmin +- p, which proves it least in its class mod p only (see the
    module docstring): three counts from one pass over the semigroup
    classes of the knot.  The widths come in the order of ``qs``, for
    :func:`scan_conjecture` to check the jumps of the column against.
    """
    shapes: dict[int, tuple[int, int, int]] = {}
    c = (p + 1) // 2
    tri = c * (c - 1) // 2  # sum of j < c: #(S n [0, L)) = b_r + k * tri
    widths = []
    for q in qs:
        k, r = divmod(q, p)
        shape = shapes.get(r)
        if shape is None:
            shape = shapes[r] = _window_shape(p, r)
        offset, index, count = shape
        low = q * (c - 1) - p + 1
        least = 2 * (count + k * tri) - low + offset
        at = low + index
        counts = below, here, above = _recounts(p, q, at)
        # h(x) = 2 #(S n [0, x)) - x: h(at) = least, h(at -+ p) >= least
        if 2 * here != least + at or 2 * below + p < least + at or 2 * above - p < least + at:
            for x, recount in zip((at - p, at, at + p), counts):
                h = 2 * recount - x
                if h < least or (x == at and h != least):
                    raise RuntimeError(
                        f"width certificate of T({p},{q}) failed: the walk gives min h = "
                        f"{least} at {at}, a recount gives h({x}) = {h}"
                    )
        widths.append(1 - least)
    return widths


def width_torus(p: int, q: int) -> WidthReport:
    """Homological width of the (p, q) torus knot.

    >>> width_torus(4, 5).width
    3
    """
    p, q = normalize_torus_params(p, q)
    bits = (p * q).bit_length()  # the walk holds p integers; h is within +-p*q
    if p * bits > _MAX_WIDTH_BITS:
        raise KnotTooLarge(
            f"the width walk of T({p},{q}) holds {p} integers of {bits} bits, "
            f"above the cap of {_MAX_WIDTH_BITS} bits"
        )
    genus, (width,) = (p - 1) * (q - 1) // 2, _column_widths(p, [q])
    return WidthReport(genus, genus + 1 - width, width)


def width_formula(p: int, q: int) -> int:
    """Closed-form width for the families that admit one.

    Covered: q = pn+1 and q = pn-1 for any p >= 2 (n >= 1), and q = 5n+2 /
    5n+3 for p = 5.  Raises ValueError for parameters outside those families
    (use :func:`width_torus` instead, which always works).
    """
    from .alexander import _CLOSED_FORMS

    p, q = normalize_torus_params(p, q)
    for r, strands, _, width in _CLOSED_FORMS.values():
        n, rest = divmod(q - r, p)
        if rest == 0 and strands in (None, p):
            return width(p, n)
    raise ValueError(f"no closed-form width is implemented for ({p}, {q})")


# A scan whose knots' p sum below this runs serially: there a pool cost about
# what it saved, as a width costs O(p) (2 cores, serial against 2 workers,
# best of 5 in each of 6 runs, twice over: bound 100, sum 9.9e4, took 15-17
# ms serially and 24-30 ms with 2 workers, serial faster in 12 runs of 12;
# bound 110, sum 1.3e5, 19-22 and 17-38 ms, 6 of 12; bound 120, sum 1.7e5,
# 24-41 and 22-34 ms, 5 of 12; bound 130, sum 2.2e5, 29-56 and 25-37 ms, 3
# of 12; bound 140, sum 2.8e5, 36-65 and 33-40 ms, 1 of 6).  Above it the
# pool takes every usable core; more than 2 workers are unmeasured.
_SERIAL_BELOW = 150_000


def scan_conjecture(
    bound: int, *, jobs: int | None = None
) -> tuple[int, list[ConjectureViolation]]:
    """Check the width jump width(p,q) - width(p,q-p) == floor((p-1)^2/4).

    Scans all coprime pairs 1 < p < q < bound, one column of fixed p at a
    time, comparing each width with that of the previous knot: T(p, q-p)
    in the same column when q - p > p, T(q-p, p) in column q - p when
    q - p > 1, and the unknot, of width 1, when q - p = 1.  Returns (number
    of pairs checked, violations), the violations sorted by (q, p) once
    every column is checked.  An empty violation list is
    the conjecture holding below the bound.  A bound with no coprime pair
    below it is a ``ValueError``: the scan would check nothing.  A bound
    whose largest knot T(q-1, q) is above the size cap raises KnotTooLarge
    at once.

    Every width the check needs is computed exactly once: serially when the
    knots' p sum below ``_SERIAL_BELOW``, else by a pool of min(usable cores,
    columns, ``jobs`` if given) workers, serially for one.  The check always
    runs here, and the sort makes the result the same for every worker
    count.  A ``bound`` that is not an int, or a ``jobs`` that is neither an
    int nor None, is a ``TypeError``.  Under spawn or forkserver (Python
    3.14's default on Linux) each worker re-imports the calling script, so a
    script must call this under ``if __name__ == "__main__":`` or pass jobs=1.
    """
    if type(bound) is not int:  # bools are ints to isinstance
        raise TypeError(f"bound {bound!r} is not an int")
    if jobs is not None and type(jobs) is not int:
        raise TypeError(f"jobs {jobs!r} is not an int")
    q_max = bound - 1
    # Refuse a too-large scan before listing any pair.  The cap is the
    # Alexander one: the width walk's would admit bound 60000, ~1.1e9 pairs.
    if q_max >= 3 and (q_max - 1) * q_max > MAX_TORUS_PRODUCT:
        raise KnotTooLarge(
            f"a scan to bound {bound} would list the coprime pairs up to "
            f"T({q_max - 1},{q_max}), whose p * q = {(q_max - 1) * q_max} is "
            f"above the cap of {MAX_TORUS_PRODUCT}"
        )
    columns = {
        p: [q for q in range(p + 1, bound) if math.gcd(p, q) == 1] for p in range(2, bound - 1)
    }
    checked = sum(map(len, columns.values()))
    if not checked:
        raise ValueError(f"no coprime pair 1 < p < q < {bound}: nothing to scan")
    affinity = getattr(os, "sched_getaffinity", None)  # the cores this process may use
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = min(cores, len(columns), len(columns) if jobs is None else jobs)
    if workers <= 1 or sum(p * len(qs) for p, qs in columns.items()) < _SERIAL_BELOW:
        column_widths = list(starmap(_column_widths, columns.items()))
    else:
        import multiprocessing

        with multiprocessing.Pool(processes=workers) as pool:
            column_widths = pool.starmap(_column_widths, columns.items())
    width = {p: dict(zip(qs, ws)) for (p, qs), ws in zip(columns.items(), column_widths)}

    # T(p, q-p) and T(q-p, p) are knots of the scan: gcd(p, q-p) = gcd(p, q) = 1.
    violations: list[ConjectureViolation] = []
    for p, column in width.items():
        jump = ((p - 1) ** 2) // 4
        for q, w in column.items():
            d = q - p
            w_prev = column[d] if d > p else width[d][p] if d > 1 else 1
            if w - w_prev != jump:
                violations.append(ConjectureViolation(p, q, w, w_prev, jump))
    violations.sort(key=lambda v: (v.q, v.p))
    return checked, violations


# Not exported: bench/workloads.py calls the scan by this older name.
scan_conjecture_parallel = scan_conjecture
