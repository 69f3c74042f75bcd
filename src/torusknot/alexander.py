"""Alexander polynomials of torus knots, exactly.

With g = (p-1)(q-1)/2, the (p,q) torus knot's Alexander polynomial is

    Delta(t) * t^g = (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)),

normalized to the symmetric form Delta(t) == Delta(1/t).  Nothing is
divided: the quotient is read off the Lam-Leung grid ("On the cyclotomic
polynomial Phi_pq(x)", Amer. Math. Monthly 1996).  Write
(p-1)(q-1) = r*p + s*q with 0 <= s < p.  Then Delta(t) * t^g has +1 at
i*p + j*q for 0 <= i <= r and 0 <= j <= s, and -1 at i*p + j*q - pq for
r < i < q and s < j < p; every other coefficient is 0.  The derivation
needs only gcd(p, q) = 1, which makes r and s unique and nonnegative, not
that p or q is prime.  A knot with p * q above ``MAX_TORUS_PRODUCT`` raises
KnotTooLarge before anything is allocated.

Four families close to explicit sparse sums: T(p, pn+1) and T(p, pn-1) for
any p, and T(5, 5n+2) and T(5, 5n+3).  One table, ``_CLOSED_FORMS``, holds
each family's offset r, strand count, expansion and knot Floer width.  The
four share two expansion shapes, q = pn +- 1 and q = 5n + 2 or 3, and
``alexander_closed_form`` calls the row's shape as ``expansion(p, n, r)``.
The two computations agree on every family member — the test suite
cross-checks them against each other, against the rational formula above
evaluated by exact division, and against an independent numerical-semigroup
expansion.
"""

from __future__ import annotations

from typing import NamedTuple

from ._gate import MAX_TORUS_PRODUCT, KnotTooLarge, normalize_torus_params
from .laurent import LaurentPolynomial

__all__ = [
    "UnsupportedFamily",
    "TorusFamily",
    "alexander_torus",
    "alexander_closed_form",
]


class UnsupportedFamily(ValueError):
    """Raised for family parameters outside the supported patterns."""


def _check_torus_size(p: int, q: int) -> None:
    """Raise KnotTooLarge when T(p, q) needs more than MAX_TORUS_PRODUCT entries."""
    if p * q > MAX_TORUS_PRODUCT:
        raise KnotTooLarge(
            f"T({p},{q}) needs {p * q} coefficients, "
            f"above the cap of {MAX_TORUS_PRODUCT}"
        )


def alexander_torus(p: int, q: int) -> LaurentPolynomial:
    """Alexander polynomial of the (p, q) torus knot, symmetric form.

    >>> print(alexander_torus(2, 3))
    t^{-1}-1+t
    """
    p, q = normalize_torus_params(p, q)
    _check_torus_size(p, q)
    if p == 1:  # the unknot; the grid would still allocate q - 1 entries
        return LaurentPolynomial.one()
    genus_double = (p - 1) * (q - 1)  # always even for coprime p, q
    s = (pow(q, -1, p) - 1) % p  # s*q = (p-1)(q-1) = 1 - q (mod p)
    r = (genus_double - s * q) // p
    # The grid's terms with one j lie p apart: one slice per j < p <= q.
    c = [0] * (genus_double + 1)
    plus, minus = [1] * (r + 1), [-1] * (q - 1 - r)
    for j in range(s + 1):
        c[j * q : j * q + r * p + 1 : p] = plus
    for j in range(s + 1, p):
        c[(r + 1) * p + j * q - p * q : j * q - p + 1 : p] = minus
    return LaurentPolynomial._raw(-(genus_double // 2), c)


class TorusFamily(NamedTuple("TorusFamily", [("kind", str), ("p", int), ("n", int)])):
    """One member of a closed-form family of torus knots.

    kind selects the family:

    * ``"pn+1"`` — the (p, pn+1) knots, any p >= 2 (n >= 0);
    * ``"pn-1"`` — the (p, pn-1) knots, any p >= 2 (n >= 1);
    * ``"5n+2"`` — the (5, 5n+2) knots (n >= 0);
    * ``"5n+3"`` — the (5, 5n+3) knots (n >= 0).

    The even-p and odd-p cases of the first two kinds expand differently;
    the parity is read off p rather than encoded in the kind.
    """

    __slots__ = ()

    def __new__(cls, kind: str, p: int, n: int) -> "TorusFamily":
        self = super().__new__(cls, kind, p, n)
        if type(p) is not int or type(n) is not int:  # bools are ints to isinstance
            raise TypeError(f"family parameters must be ints, got p={p!r}, n={n!r}")
        if self.kind not in _CLOSED_FORMS:
            raise UnsupportedFamily(f"unknown family kind {self.kind!r}")
        strands = _CLOSED_FORMS[self.kind][1]
        if strands is not None and self.p != strands:
            raise UnsupportedFamily(
                f"family {self.kind} requires p = {strands}, got {self.p}"
            )
        if self.p < 2:
            raise UnsupportedFamily(f"family strand count must be >= 2, got {self.p}")
        if self.n < 0:
            raise UnsupportedFamily(f"family index must be >= 0, got {self.n}")
        if self.q < 1:
            raise UnsupportedFamily(f"({self.p}, {self.q}) is not a torus knot")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @property
    def q(self) -> int:
        return self.p * self.n + _CLOSED_FORMS[self.kind][0]


def alexander_closed_form(family: TorusFamily) -> LaurentPolynomial:
    """Evaluate the family's explicit closed-form Alexander expansion.

    Equal to ``alexander_torus(family.p, family.q)`` on every family member,
    n = 0 included; the closed forms are sparse sums whose term count grows
    linearly in n.
    """
    r, _, expansion, _ = _CLOSED_FORMS[family.kind]
    return expansion(family.p, family.n, r)


def _symmetric(constant: int, half: list[tuple[int, int]]) -> LaurentPolynomial:
    """constant + sum of c * (t^e + t^{-e}) over the (e, c) in ``half``."""
    mirrored = [(-e, c) for e, c in half]
    return LaurentPolynomial.from_terms([(0, constant), *half, *mirrored])


def _closed_pn(p: int, n: int, r: int) -> LaurentPolynomial:
    """q = pn+r for r = +-1, with k = p // 2, c = 0 for odd p and c = kn for
    even p, m = n for r = 1 and m = n-1 for r = -1, and
    low(i, j) = p[(k-i+1)n-j] - c - (i for r = 1, p for r = -1):
    sum_{e=+-1} sum_{i=1..(p-1)//2} sum_{j=0..n-1} t^{e low(i, j)} (t^{ei}-1)
    + 1 for odd p, + sum_{e=+-1} sum_{i=1..m} (-1)^{m-i} t^{eik} + (-1)^m for even p.
    """
    k, odd = p // 2, p % 2 == 1
    c = 0 if odd else k * n
    m = n if r == 1 else n - 1
    half = [] if odd else [(i * k, (-1) ** (m - i)) for i in range(1, m + 1)]
    for i in range(1, (p + 1) // 2):
        for j in range(n):
            low = p * ((k - i + 1) * n - j) - c - (i if r == 1 else p)
            half += [(low + i, 1), (low, -1)]
    return _symmetric(1 if odd else (-1) ** m, half)


def _closed_5n(p: int, n: int, r: int) -> LaurentPolynomial:
    """q = 5n+r for r in {2, 3} (p = 5), with s = r - 2:
    1 + sum_e sum_{j=0..n-s} t^{e(10n-5j+1+2s)} (t^e - 1)
      + sum_e sum_{j=0..n-1+s} t^{e(5n-5j-4+4s)} (t^{4e} - t^{3e} + t^e - 1).
    """
    s = r - 2
    half: list[tuple[int, int]] = []
    for j in range(n + 1 - s):
        low = 10 * n - 5 * j + 1 + 2 * s
        half += [(low + 1, 1), (low, -1)]
    for j in range(n + s):
        low = 5 * n - 5 * j - 4 + 4 * s
        half += [(low + 4, 1), (low + 3, -1), (low + 1, 1), (low, -1)]
    return _symmetric(1, half)


# The closed-form families T(p, pn + r), by kind.  Row format:
#     kind: (r, strands, expansion, width)
# strands is the one p the kind allows, or None for any p >= 2;
# expansion(p, n, r), one of the two shapes, is the Alexander polynomial of
# the member with index n, and width(p, n) its knot Floer width.
_CLOSED_FORMS = {
    "pn+1": (1, None, _closed_pn, lambda p, n: n * ((p - 1) ** 2 // 4) + 1),
    "pn-1": (
        -1,
        None,
        _closed_pn,
        lambda p, n: n * ((p - 1) ** 2 // 4) - (p - 1) // 2 + 1,
    ),
    "5n+2": (2, 5, _closed_5n, lambda p, n: 4 * n + 1),
    "5n+3": (3, 5, _closed_5n, lambda p, n: 4 * n + 2),
}
