"""The (p, q) gate that every layer shares, and the knot size cap.

The link gate, :func:`_torus_pair`, takes two positive ints, not bools, and
orders them p <= q, as T(p, q) and T(q, p) are isotopic; the knot gate,
:func:`normalize_torus_params`, adds the gcd test.  This module imports no
other of the package, so the Floer and word layers share it and load neither.
"""

from __future__ import annotations

import math


class NotCoprime(ValueError):
    """Raised when (p, q) with gcd(p, q) != 1 is passed where a knot is required."""


class KnotTooLarge(ValueError):
    """Raised, before anything is allocated, for a knot above a size cap."""


# alexander_torus holds about p*q coefficients; the cap leaves room for the
# width-jump scan up to bound 2048.  width_torus has a cap of its own.
MAX_TORUS_PRODUCT = 2**22


def _check_ints(p: int, q: int) -> None:
    if type(p) is not int or type(q) is not int:  # bools are ints to isinstance
        raise TypeError(f"torus parameters must be ints, got ({p!r}, {q!r})")


def _torus_pair(p: int, q: int) -> tuple[int, int]:
    """(p, q) checked as given -- both ints, not bools, both >= 1 -- then ordered."""
    _check_ints(p, q)  # before any comparison, whose TypeError names neither
    if p < 1 or q < 1:
        raise ValueError(f"torus parameters must be positive, got ({p}, {q})")
    return (p, q) if p <= q else (q, p)


def normalize_torus_params(p: int, q: int) -> tuple[int, int]:
    """Validate and order torus-knot parameters: both positive, coprime, p <= q."""
    pair = _torus_pair(p, q)
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) = {math.gcd(p, q)} != 1; not a knot")
    return pair
