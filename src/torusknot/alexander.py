"""Alexander polynomials of torus knots, exactly.

The (p,q) torus knot's Alexander polynomial is computed from the rational
expression

    Delta(t) = t^{-(p-1)(q-1)/2} * (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)),

evaluated with exact Laurent-polynomial division, then normalized to the
symmetric form Delta(t) == Delta(1/t).  Both divisions are by polynomials of
the shape t^m - 1, so they hit the fast residue-class division path.  A knot
with p * q above ``MAX_TORUS_PRODUCT`` raises KnotTooLarge before anything is
allocated.

Four infinite families close to explicit sparse sums (plus two special
five-strand families); ``alexander_closed_form`` evaluates those sums
directly.  The two computations agree on every family member — the test
suite cross-checks them against each other and against an independent
numerical-semigroup expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .laurent import LaurentPolynomial

__all__ = [
    "KnotTooLarge",
    "MAX_TORUS_PRODUCT",
    "NotCoprime",
    "UnsupportedFamily",
    "TorusFamily",
    "normalize_torus_params",
    "alexander_torus",
    "alexander_closed_form",
]


class NotCoprime(ValueError):
    """Raised when (p, q) with gcd(p, q) != 1 is passed where a knot is required."""


class UnsupportedFamily(ValueError):
    """Raised for family parameters outside the supported patterns."""


class KnotTooLarge(ValueError):
    """Raised, before anything is allocated, for p * q above MAX_TORUS_PRODUCT."""


# alexander_torus holds about p*q coefficients and width_torus (p-1)(q-1)+1;
# the cap leaves room for the width-jump scan up to bound 2048.
MAX_TORUS_PRODUCT = 2**22


def normalize_torus_params(p: int, q: int) -> tuple[int, int]:
    """Validate and order torus-knot parameters: both positive, coprime, p <= q.

    The (p, q) and (q, p) torus knots are isotopic, so all invariants here
    normalize to p <= q first.
    """
    if not (isinstance(p, int) and isinstance(q, int)):
        raise TypeError("torus parameters must be integers")
    if p < 1 or q < 1:
        raise ValueError(f"torus parameters must be positive, got ({p}, {q})")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) = {math.gcd(p, q)} != 1; not a knot")
    return (p, q) if p <= q else (q, p)


def _check_torus_size(p: int, q: int) -> None:
    """Raise KnotTooLarge when T(p, q) needs more than MAX_TORUS_PRODUCT entries."""
    if p * q > MAX_TORUS_PRODUCT:
        raise KnotTooLarge(
            f"T({p},{q}) needs {p * q} coefficients, "
            f"above the cap of {MAX_TORUS_PRODUCT}"
        )


def _t_power_minus_one(m: int) -> LaurentPolynomial:
    """The polynomial t**m - 1."""
    return LaurentPolynomial.from_terms([(m, 1), (0, -1)])


def alexander_torus(p: int, q: int) -> LaurentPolynomial:
    """Alexander polynomial of the (p, q) torus knot, symmetric form.

    >>> print(alexander_torus(2, 3))
    t^{-1}-1+t
    """
    p, q = normalize_torus_params(p, q)
    _check_torus_size(p, q)
    if p == 1:
        return LaurentPolynomial.one()
    genus_double = (p - 1) * (q - 1)  # always even for coprime p, q
    # (t^pq - 1) / (t^q - 1) is the sparse 1 + t^q + ... + t^((p-1)q).  Taking
    # it first keeps the product cheap and leaves the dense division with only
    # p <= q residue classes.
    sparse = _t_power_minus_one(p * q).exact_div(_t_power_minus_one(q))
    quot = (sparse * _t_power_minus_one(1)).exact_div(_t_power_minus_one(p))
    return quot.shift(-(genus_double // 2))


_FAMILY_KINDS = ("pn+1", "pn-1", "5n+2", "5n+3")


@dataclass(frozen=True)
class TorusFamily:
    """One member of a closed-form family of torus knots.

    kind selects the family:

    * ``"pn+1"`` — the (p, pn+1) knots, any p >= 2 (n >= 0);
    * ``"pn-1"`` — the (p, pn-1) knots, any p >= 2 (n >= 1);
    * ``"5n+2"`` — the (5, 5n+2) knots (n >= 0);
    * ``"5n+3"`` — the (5, 5n+3) knots (n >= 0).

    The even-p and odd-p cases of the first two kinds expand differently;
    the parity is read off p rather than encoded in the kind.
    """

    kind: str
    p: int
    n: int

    def __post_init__(self) -> None:
        if self.kind not in _FAMILY_KINDS:
            raise UnsupportedFamily(f"unknown family kind {self.kind!r}")
        if self.kind in ("5n+2", "5n+3") and self.p != 5:
            raise UnsupportedFamily(f"family {self.kind} requires p = 5, got {self.p}")
        if self.p < 2:
            raise UnsupportedFamily(f"family strand count must be >= 2, got {self.p}")
        if self.n < 0:
            raise UnsupportedFamily(f"family index must be >= 0, got {self.n}")
        if self.q < 1:
            raise UnsupportedFamily(f"({self.p}, {self.q}) is not a torus knot")

    @property
    def q(self) -> int:
        offset = {"pn+1": 1, "pn-1": -1, "5n+2": 2, "5n+3": 3}[self.kind]
        return self.p * self.n + offset


def alexander_closed_form(family: TorusFamily) -> LaurentPolynomial:
    """Evaluate the family's explicit closed-form Alexander expansion.

    Equal to ``alexander_torus(family.p, family.q)`` on every family member; the
    closed forms are sparse sums whose term count grows linearly in n.  For
    n = 0 (members like (5, 2) or (5, 3) that sit below the first genuine
    family member) the rational formula's value is returned directly.
    """
    p, n, kind = family.p, family.n, family.kind
    if n == 0:
        return alexander_torus(p, family.q)
    if kind == "pn+1":
        return _closed_pn_plus(p, n) if p % 2 else _closed_even_plus(p, n)
    if kind == "pn-1":
        return _closed_pn_minus(p, n) if p % 2 else _closed_even_minus(p, n)
    if kind == "5n+2":
        return _closed_5n2(n)
    return _closed_5n3(n)


def _closed_pn_plus(p: int, n: int) -> LaurentPolynomial:
    """Odd p = 2k+1, q = pn+1:
    1 + sum_{e=+-1} sum_{i=1..k} sum_{j=0..n-1} t^{e(p[(k-i+1)n-j]-i)} (t^{ei}-1).
    """
    k = p // 2
    terms: list[tuple[int, int]] = [(0, 1)]
    for eps in (1, -1):
        for i in range(1, k + 1):
            for j in range(n):
                base = eps * (p * ((k - i + 1) * n - j) - i)
                terms.append((base + eps * i, 1))
                terms.append((base, -1))
    return LaurentPolynomial.from_terms(terms)


def _closed_pn_minus(p: int, n: int) -> LaurentPolynomial:
    """Odd p = 2k+1, q = pn-1:
    1 + sum_{e=+-1} sum_{i=1..k} sum_{j=0..n-1} t^{e p[(k-i+1)n-j-1]} (t^{ei}-1).
    """
    k = p // 2
    terms: list[tuple[int, int]] = [(0, 1)]
    for eps in (1, -1):
        for i in range(1, k + 1):
            for j in range(n):
                base = eps * p * ((k - i + 1) * n - j - 1)
                terms.append((base + eps * i, 1))
                terms.append((base, -1))
    return LaurentPolynomial.from_terms(terms)


def _closed_even_plus(p: int, n: int) -> LaurentPolynomial:
    """Even p = 2k, q = pn+1:
    sum_{e=+-1} sum_{i=1..k-1} sum_{j=0..n-1} t^{e(p[(k-i+1)n-j]-kn-i)} (t^{ei}-1)
    + sum_{e=+-1} sum_{i=1..n} (-1)^{n-i} t^{eik} + (-1)^n.
    """
    k = p // 2
    terms: list[tuple[int, int]] = [(0, (-1) ** n)]
    for eps in (1, -1):
        for i in range(1, k):
            for j in range(n):
                base = eps * (p * ((k - i + 1) * n - j) - k * n - i)
                terms.append((base + eps * i, 1))
                terms.append((base, -1))
        for i in range(1, n + 1):
            terms.append((eps * i * k, (-1) ** (n - i)))
    return LaurentPolynomial.from_terms(terms)


def _closed_even_minus(p: int, n: int) -> LaurentPolynomial:
    """Even p = 2k, q = pn-1:
    sum_{e=+-1} sum_{i=1..k-1} sum_{j=0..n-1} t^{e(p[(k-i)n-j-1]+kn)} (t^{ei}-1)
    + sum_{e=+-1} sum_{i=1..n-1} (-1)^{n-i-1} t^{eik} + (-1)^{n-1}.
    """
    k = p // 2
    terms: list[tuple[int, int]] = [(0, (-1) ** (n - 1))]
    for eps in (1, -1):
        for i in range(1, k):
            for j in range(n):
                base = eps * (p * ((k - i) * n - j - 1) + k * n)
                terms.append((base + eps * i, 1))
                terms.append((base, -1))
        for i in range(1, n):
            terms.append((eps * i * k, (-1) ** (n - i - 1)))
    return LaurentPolynomial.from_terms(terms)


def _closed_5n2(n: int) -> LaurentPolynomial:
    """(5, 5n+2):
    1 + sum_e sum_{j=0..n} t^{e(10n-5j+1)} (t^e - 1)
      + sum_e sum_{j=0..n-1} t^{e(5n-5j-4)} (t^{4e} - t^{3e} + t^e - 1).
    """
    terms: list[tuple[int, int]] = [(0, 1)]
    for eps in (1, -1):
        for j in range(n + 1):
            base = eps * (10 * n - 5 * j + 1)
            terms.append((base + eps, 1))
            terms.append((base, -1))
        for j in range(n):
            base = eps * (5 * n - 5 * j - 4)
            terms.append((base + 4 * eps, 1))
            terms.append((base + 3 * eps, -1))
            terms.append((base + eps, 1))
            terms.append((base, -1))
    return LaurentPolynomial.from_terms(terms)


def _closed_5n3(n: int) -> LaurentPolynomial:
    """(5, 5n+3):
    1 + sum_e sum_{j=0..n-1} t^{e(10n-5j+3)} (t^e - 1)
      + sum_e sum_{j=0..n} t^{e(5n-5j)} (t^{4e} - t^{3e} + t^e - 1).
    """
    terms: list[tuple[int, int]] = [(0, 1)]
    for eps in (1, -1):
        for j in range(n):
            base = eps * (10 * n - 5 * j + 3)
            terms.append((base + eps, 1))
            terms.append((base, -1))
        for j in range(n + 1):
            base = eps * (5 * n - 5 * j)
            terms.append((base + 4 * eps, 1))
            terms.append((base + 3 * eps, -1))
            terms.append((base + eps, 1))
            terms.append((base, -1))
    return LaurentPolynomial.from_terms(terms)
