"""Exact Laurent polynomials in one variable t over the integers.

Representation: a tuple of Python ints together with the exponent of its
first entry.  ``coefficients[i]`` is the coefficient of
``t**(min_exponent + i)``.  Normal form: the tuple is empty for the zero
polynomial (with ``min_exponent == 0``), otherwise its first and last
entries are nonzero.  Instances are immutable.

Coefficients are Python ints, so all arithmetic is exact by construction:
nothing wraps and nothing overflows.  Division is exact division
(``exact_div``), which raises ``NonExactDivision`` whenever the divisor
does not divide the dividend in Z[t, 1/t].  Division by ``t**m - 1`` sums
the dividend over each residue class mod m with C-level
``itertools.accumulate``; any other divisor uses long division.

The text format matches the usual typeset style, e.g.::

    t^{-6}-t^{-5}+t^{-2}-1+t^2-t^5+t^6

Exponents in ``-9..-1`` and ``10..`` are braced, single-digit nonnegative
exponents are bare, and unit coefficients are suppressed.  ``from_text``
accepts both braced and bare exponents and whitespace between symbols (not
inside a number), and needs a sign before every term after the first.
"""

from __future__ import annotations

import re
from itertools import accumulate, compress, repeat
from operator import add, index, mul, neg, sub
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "LaurentPolynomial",
    "NonExactDivision",
]


# One term of the text format, and the whitespace after it: sign, magnitude,
# then t with an optional braced or bare exponent.  Whitespace may not split a
# number; an exponent's sign owns the space after it, so backtracking is linear.
_TERM = re.compile(
    r"([+-]?)\s*(\d*)\s*"
    r"(t(?:\s*\^\s*(?:\{\s*(?:([+-])\s*)?(\d+)\s*\}|(?:(-)\s*)?(\d+)))?)?\s*"
)


class NonExactDivision(ArithmeticError):
    """Raised when exact_div is asked for a quotient that does not exist."""


def _trimmed(min_exponent: int, coeffs: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Strip leading/trailing zeros, canonicalizing the zero polynomial."""
    if coeffs and coeffs[0] and coeffs[-1]:
        return min_exponent, tuple(coeffs)
    lo, hi = 0, len(coeffs)
    while lo < hi and not coeffs[lo]:
        lo += 1
    if lo == hi:
        return 0, ()
    while not coeffs[hi - 1]:
        hi -= 1
    return min_exponent + lo, tuple(coeffs[lo:hi])


class LaurentPolynomial:
    """An integer Laurent polynomial in the variable t."""

    __slots__ = ("min_exponent", "coefficients")

    min_exponent: int
    coefficients: tuple[int, ...]

    def __init__(self, min_exponent: int = 0, coefficients: Iterable[int] = ()):
        coeffs = [index(c) for c in coefficients]
        min_exponent, coeffs = _trimmed(index(min_exponent), coeffs)
        object.__setattr__(self, "min_exponent", min_exponent)
        object.__setattr__(self, "coefficients", coeffs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LaurentPolynomial is immutable")

    def __reduce__(self) -> tuple:
        return LaurentPolynomial, (self.min_exponent, self.coefficients)

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, min_exponent: int, coeffs: Sequence[int]) -> "LaurentPolynomial":
        """Trim and wrap a sequence of Python ints without converting them."""
        min_exponent, coeffs = _trimmed(min_exponent, coeffs)
        self = object.__new__(cls)
        object.__setattr__(self, "min_exponent", min_exponent)
        object.__setattr__(self, "coefficients", coeffs)
        return self

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls(0, (1,))

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "LaurentPolynomial":
        """The monomial ``coefficient * t**exponent``."""
        return cls(exponent, (coefficient,))

    @classmethod
    def from_terms(
        cls, terms: Mapping[int, int] | Iterable[tuple[int, int]]
    ) -> "LaurentPolynomial":
        """Build from (exponent, coefficient) pairs; repeats accumulate.

        >>> LaurentPolynomial.from_terms({1: 1, -1: 1, 0: -1})
        LaurentPolynomial.from_text('t^{-1}-1+t')
        """
        items = terms.items() if isinstance(terms, Mapping) else terms
        sums: dict[int, int] = {}
        for e, c in items:
            e = index(e)
            sums[e] = sums.get(e, 0) + index(c)
        sums = {e: c for e, c in sums.items() if c != 0}
        if not sums:
            return cls.zero()
        lo = min(sums)
        coeffs = [0] * (max(sums) - lo + 1)
        for e, c in sums.items():
            coeffs[e - lo] = c
        return cls._raw(lo, coeffs)

    # -- inspection ---------------------------------------------------

    @property
    def max_exponent(self) -> int:
        """Exponent of the highest-degree term (0 for the zero polynomial)."""
        return self.min_exponent + max(len(self.coefficients) - 1, 0)

    def is_zero(self) -> bool:
        return not self.coefficients

    def coefficient(self, exponent: int) -> int:
        """The coefficient of ``t**exponent``."""
        i = exponent - self.min_exponent
        if 0 <= i < len(self.coefficients):
            return self.coefficients[i]
        return 0

    def support(self) -> list[int]:
        """Exponents with nonzero coefficient, ascending."""
        return [e for e, _ in self.terms()]

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs in ascending exponent order."""
        for e, c in enumerate(self.coefficients, self.min_exponent):
            if c:
                yield e, c

    def __bool__(self) -> bool:
        return bool(self.coefficients)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPolynomial(0, (other,))
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return (
            self.min_exponent == other.min_exponent
            and self.coefficients == other.coefficients
        )

    def __hash__(self) -> int:
        # Constants compare equal to ints, so they hash like them (0 for zero).
        if self.min_exponent == 0 and len(self.coefficients) <= 1:
            return hash(self.coefficient(0))
        return hash((self.min_exponent, self.coefficients))

    # -- ring operations ----------------------------------------------

    def __neg__(self) -> "LaurentPolynomial":
        coeffs = tuple(map(neg, self.coefficients))
        return LaurentPolynomial._raw(self.min_exponent, coeffs)

    def _combine(
        self, other: "LaurentPolynomial | int", op: Callable[[int, int], int]
    ) -> "LaurentPolynomial":
        """``op`` (add or sub) applied termwise to self and other."""
        if isinstance(other, int):
            other = LaurentPolynomial(0, (other,))
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        lo = min(self.min_exponent, other.min_exponent)
        size = max(self.max_exponent, other.max_exponent) - lo + 1
        termwise = map(op, _padded(self, lo, size), _padded(other, lo, size))
        return LaurentPolynomial._raw(lo, list(termwise))

    def __add__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        return self._combine(other, add)

    __radd__ = __add__

    def __sub__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        return self._combine(other, sub)

    def __rsub__(self, other: int) -> "LaurentPolynomial":
        return LaurentPolynomial(0, (other,)) - self

    def __mul__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            return LaurentPolynomial._raw(
                self.min_exponent, tuple(map(mul, self.coefficients, repeat(other)))
            )
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPolynomial.zero()
        a, b = self.coefficients, other.coefficients
        # One slice update per nonzero entry of a: let a be the operand that
        # makes those updates cheapest (the sparser one, for t^m - 1 factors).
        if (len(a) - a.count(0)) * len(b) > (len(b) - b.count(0)) * len(a):
            a, b = b, a
        n = len(b)
        product = [0] * (len(a) + n - 1)
        for i in compress(range(len(a)), a):
            product[i : i + n] = map(add, product[i : i + n], map(mul, b, repeat(a[i])))
        return LaurentPolynomial._raw(self.min_exponent + other.min_exponent, product)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValueError("negative powers are not Laurent polynomials in general")
        result, base = LaurentPolynomial.one(), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by ``t**k`` (exponent shift)."""
        return LaurentPolynomial._raw(self.min_exponent + k, self.coefficients)

    def is_palindromic(self) -> bool:
        """True when p(t) == p(1/t), i.e. the coefficient vector is symmetric."""
        if self.is_zero():
            return True
        coeffs = self.coefficients
        return self.min_exponent == -self.max_exponent and coeffs == coeffs[::-1]

    # -- exact division -----------------------------------------------

    def exact_div(self, divisor: "LaurentPolynomial") -> "LaurentPolynomial":
        """The unique q with ``self == q * divisor``, else NonExactDivision.

        >>> t = LaurentPolynomial.monomial(1)
        >>> ((t**2 - 1).exact_div(t - 1)) == t + 1
        True
        """
        if not isinstance(divisor, LaurentPolynomial):
            raise TypeError("divisor must be a LaurentPolynomial")
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPolynomial.zero()
        num = self.coefficients
        den = divisor.coefficients
        shift = self.min_exponent - divisor.min_exponent
        if len(num) < len(den):
            raise NonExactDivision("dividend is shorter than divisor")
        m = len(den) - 1
        if m and den[0] == -1 and den[-1] == 1 and not any(den[1:-1]):
            quot = _residue_class_div(num, m)
        else:
            quot = _long_div(num, den)
        return LaurentPolynomial._raw(shift, quot)

    # -- text format ---------------------------------------------------

    def to_text(self) -> str:
        """Render in typeset style, ascending exponents; '0' for zero."""
        parts: list[str] = []
        for e, c in self.terms():
            if e == 0:
                body = str(abs(c))
            else:
                power = "t" if e == 1 else f"t^{e}" if 0 <= e <= 9 else f"t^{{{e}}}"
                body = power if abs(c) == 1 else f"{abs(c)}{power}"
            parts.append(("-" if c < 0 else "+") + body)
        return "".join(parts).removeprefix("+") or "0"

    @classmethod
    def from_text(cls, text: str) -> "LaurentPolynomial":
        """Parse the typeset style produced by :meth:`to_text`.

        The offset a malformed term's error names indexes ``text`` as given.

        >>> LaurentPolynomial.from_text("t^{-1}-1+t").support()
        [-1, 0, 1]
        """
        i = len(text) - len(text.lstrip())  # each term then eats its trailing space
        if i == len(text):
            raise ValueError("empty polynomial text")
        terms: list[tuple[int, int]] = []
        while i < len(text):
            term = _TERM.match(text, i)
            sign, digits, power, *exponent_parts = term.groups("")
            if not (digits or power) or terms and not sign:  # a term after the first
                raise ValueError(f"malformed term at offset {i} in {text!r}")
            exponent = int("".join(exponent_parts) or 1) if power else 0
            terms.append((exponent, int(sign + (digits or "1"))))
            i = term.end()
        return cls.from_terms(terms)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPolynomial.from_text({self.to_text()!r})"


def _padded(poly: LaurentPolynomial, lo: int, size: int) -> tuple[int, ...]:
    """The ``size`` coefficients of poly from t^lo upward, zero-padded."""
    head = (0,) * (poly.min_exponent - lo) + poly.coefficients
    return head + (0,) * (size - len(head))


def _residue_class_div(num: tuple[int, ...], m: int) -> list[int]:
    """Exact division by t**m - 1, one residue class mod m at a time.

    Writing the dividend as sum a_e t^e, the quotient of an exact division
    satisfies q_e = q_{e-m} - a_e, so each quotient entry is minus a prefix
    sum of the dividend's coefficients over one residue class mod m; the
    division is exact iff every residue class sums to zero, and then minus
    a prefix sum is the suffix sum a_{e+m} + a_{e+2m} + ... that follows it.
    Raises NonExactDivision otherwise.
    """
    quot = [0] * (len(num) - m)
    for r in range(m):
        column = num[r::m]
        if not any(column):
            continue
        sums = list(accumulate(column[::-1]))  # suffix sums, last first
        if sums.pop():
            raise NonExactDivision("residue-class sums are nonzero")
        sums.reverse()
        quot[r::m] = sums
    return quot


def _long_div(num: tuple[int, ...], den: tuple[int, ...]) -> list[int]:
    """Schoolbook exact division from the top coefficient downward."""
    dlen = len(den)
    dtop = den[-1]
    rem = list(num)
    quot = [0] * (len(num) - dlen + 1)
    for j in range(len(quot) - 1, -1, -1):
        f, r = divmod(rem[j + dlen - 1], dtop)
        if r:
            raise NonExactDivision("leading coefficient does not divide")
        if f:
            quot[j] = f
            rem[j : j + dlen] = map(sub, rem[j : j + dlen], map(mul, den, repeat(f)))
    if any(rem[: dlen - 1]):
        raise NonExactDivision("nonzero remainder")
    return quot
