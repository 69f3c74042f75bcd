"""Exact Laurent polynomials in one variable t over the integers.

Representation: a dense ``numpy.int64`` coefficient array together with the
exponent of its first entry.  ``coefficients[i]`` is the coefficient of
``t**(min_exponent + i)``.  Normal form: the array is empty for the zero
polynomial (with ``min_exponent == 0``), otherwise its first and last entries
are nonzero.  Instances are immutable; the backing array is marked read-only.

All arithmetic is exact integer arithmetic.  Negation, addition,
subtraction and multiplication (by a polynomial or an int) raise
``OverflowError`` wherever a result coefficient could leave the int64 range;
division is exact division (``exact_div``) which raises ``NonExactDivision``
whenever the divisor does not divide the dividend in Z[t, 1/t].

The text format matches the usual typeset style, e.g.::

    t^{-6}-t^{-5}+t^{-2}-1+t^2-t^5+t^6

Exponents in ``-9..-1`` and ``10..`` are braced, single-digit nonnegative
exponents are bare, and unit coefficients are suppressed.  ``from_text``
accepts both braced and bare exponents and ignores whitespace.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "LaurentPolynomial",
    "NonExactDivision",
]

_INT64_MAX = 2**63 - 1
_INT64_MIN = -(2**63)


class NonExactDivision(ArithmeticError):
    """Raised when exact_div is asked for a quotient that does not exist."""


def _max_abs(arr: np.ndarray) -> int:
    """Largest coefficient magnitude, exact even for the int64 minimum."""
    return max(int(arr.max()), -int(arr.min())) if arr.size else 0


def _trimmed(min_exponent: int, arr: np.ndarray) -> tuple[int, np.ndarray]:
    """Strip leading/trailing zeros, canonicalizing the zero polynomial."""
    nz = np.flatnonzero(arr)
    if nz.size == 0:
        return 0, np.zeros(0, dtype=np.int64)
    lo, hi = int(nz[0]), int(nz[-1])
    return min_exponent + lo, arr[lo : hi + 1]


class LaurentPolynomial:
    """An integer Laurent polynomial in the variable t."""

    __slots__ = ("min_exponent", "coefficients")

    min_exponent: int
    coefficients: np.ndarray

    def __init__(self, min_exponent: int = 0, coefficients: Iterable[int] = ()):
        arr = np.asarray(list(coefficients), dtype=np.int64)
        min_exponent, arr = _trimmed(int(min_exponent), arr)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "min_exponent", min_exponent)
        object.__setattr__(self, "coefficients", arr)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("LaurentPolynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, min_exponent: int, arr: np.ndarray) -> "LaurentPolynomial":
        """Wrap an already-owned int64 array without copying."""
        min_exponent, arr = _trimmed(min_exponent, arr)
        self = object.__new__(cls)
        arr.setflags(write=False)
        object.__setattr__(self, "min_exponent", min_exponent)
        object.__setattr__(self, "coefficients", arr)
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

        The sums are exact; a coefficient outside the int64 range raises
        ``OverflowError``.

        >>> LaurentPolynomial.from_terms({1: 1, -1: 1, 0: -1})
        LaurentPolynomial.from_text('t^{-1}-1+t')
        """
        items = terms.items() if isinstance(terms, Mapping) else terms
        sums: dict[int, int] = {}
        for e, c in items:
            sums[int(e)] = sums.get(int(e), 0) + int(c)
        sums = {e: c for e, c in sums.items() if c != 0}
        if not sums:
            return cls.zero()
        if not all(_INT64_MIN <= c <= _INT64_MAX for c in sums.values()):
            raise OverflowError("term coefficients exceed int64 range")
        lo = min(sums)
        arr = np.zeros(max(sums) - lo + 1, dtype=np.int64)
        for e, c in sums.items():
            arr[e - lo] = c
        return cls._raw(lo, arr)

    # -- inspection ---------------------------------------------------

    @property
    def max_exponent(self) -> int:
        """Exponent of the highest-degree term (0 for the zero polynomial)."""
        return self.min_exponent + max(len(self.coefficients) - 1, 0)

    def is_zero(self) -> bool:
        return len(self.coefficients) == 0

    def coefficient(self, exponent: int) -> int:
        """The coefficient of ``t**exponent``."""
        i = exponent - self.min_exponent
        if 0 <= i < len(self.coefficients):
            return int(self.coefficients[i])
        return 0

    def support(self) -> list[int]:
        """Exponents with nonzero coefficient, ascending."""
        return [int(e) for e in np.flatnonzero(self.coefficients) + self.min_exponent]

    def terms(self) -> Iterator[tuple[int, int]]:
        """Yield (exponent, coefficient) pairs in ascending exponent order."""
        for i in np.flatnonzero(self.coefficients):
            yield int(self.min_exponent + i), int(self.coefficients[i])

    def __bool__(self) -> bool:
        return len(self.coefficients) > 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPolynomial(0, (other,))
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.min_exponent == other.min_exponent and np.array_equal(
            self.coefficients, other.coefficients
        )

    def __hash__(self) -> int:
        # Constants compare equal to ints, so they hash like them (0 for zero).
        if self.min_exponent == 0 and len(self.coefficients) <= 1:
            return hash(self.coefficient(0))
        return hash((self.min_exponent, self.coefficients.tobytes()))

    # -- ring operations ----------------------------------------------

    def __neg__(self) -> "LaurentPolynomial":
        if _max_abs(self.coefficients) > _INT64_MAX:
            raise OverflowError("negated coefficients exceed int64 range")
        return LaurentPolynomial._raw(self.min_exponent, -self.coefficients)

    def __add__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            other = LaurentPolynomial(0, (other,))
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if _max_abs(self.coefficients) + _max_abs(other.coefficients) > _INT64_MAX:
            raise OverflowError("sum coefficients may exceed int64 range")
        lo = min(self.min_exponent, other.min_exponent)
        hi = max(self.max_exponent, other.max_exponent)
        arr = np.zeros(hi - lo + 1, dtype=np.int64)
        a0 = self.min_exponent - lo
        arr[a0 : a0 + len(self.coefficients)] += self.coefficients
        b0 = other.min_exponent - lo
        arr[b0 : b0 + len(other.coefficients)] += other.coefficients
        return LaurentPolynomial._raw(lo, arr)

    __radd__ = __add__

    def __sub__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            other = LaurentPolynomial(0, (other,))
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "LaurentPolynomial":
        return LaurentPolynomial(0, (other,)) - self

    def __mul__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            if other == 0 or self.is_zero():
                return LaurentPolynomial.zero()
            if _max_abs(self.coefficients) * abs(other) > _INT64_MAX:
                raise OverflowError("scaled coefficients exceed int64 range")
            return LaurentPolynomial._raw(self.min_exponent, self.coefficients * other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPolynomial.zero()
        a, b = self.coefficients, other.coefficients
        # Every partial sum np.convolve forms has at most min(len) terms.
        if _max_abs(a) * _max_abs(b) * min(len(a), len(b)) > _INT64_MAX:
            raise OverflowError("product coefficients may exceed int64 range")
        return LaurentPolynomial._raw(
            self.min_exponent + other.min_exponent, np.convolve(a, b)
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValueError("negative powers are not Laurent polynomials in general")
        result = LaurentPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by ``t**k`` (exponent shift)."""
        return LaurentPolynomial._raw(self.min_exponent + k, self.coefficients.copy())

    def is_palindromic(self) -> bool:
        """True when p(t) == p(1/t), i.e. the coefficient vector is symmetric."""
        if self.is_zero():
            return True
        if self.min_exponent != -self.max_exponent:
            return False
        arr = self.coefficients
        return bool(np.array_equal(arr, arr[::-1]))

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
        quot = _cyclotomic_like_div(num, den)
        if quot is None:
            quot = _long_div(num, den)
        return LaurentPolynomial._raw(shift, quot)

    # -- text format ---------------------------------------------------

    def to_text(self) -> str:
        """Render in typeset style, ascending exponents; '0' for zero."""
        if self.is_zero():
            return "0"
        parts: list[str] = []
        for e, c in self.terms():
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                if e == 1:
                    tpart = "t"
                elif 0 <= e <= 9:
                    tpart = f"t^{e}"
                else:
                    tpart = "t^{%d}" % e
                body = tpart if mag == 1 else f"{mag}{tpart}"
            if not parts:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append(sign + body)
        return "".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "LaurentPolynomial":
        """Parse the typeset style produced by :meth:`to_text`.

        >>> LaurentPolynomial.from_text("t^{-1}-1+t").support()
        [-1, 0, 1]
        """
        s = "".join(text.split())
        if not s:
            raise ValueError("empty polynomial text")
        terms: list[tuple[int, int]] = []
        i, n = 0, len(s)
        while i < n:
            sign = 1
            if s[i] in "+-":
                if s[i] == "-":
                    sign = -1
                i += 1
            j = i
            while j < n and s[j].isdigit():
                j += 1
            mag_digits = s[i:j]
            i = j
            exponent = 0
            has_t = False
            if i < n and s[i] == "t":
                has_t = True
                exponent = 1
                i += 1
                if i < n and s[i] == "^":
                    i += 1
                    if i < n and s[i] == "{":
                        close = s.find("}", i)
                        if close < 0:
                            raise ValueError(f"unclosed exponent brace in {text!r}")
                        exponent = int(s[i + 1 : close])
                        i = close + 1
                    else:
                        j = i
                        if j < n and s[j] == "-":
                            j += 1
                        while j < n and s[j].isdigit():
                            j += 1
                        if j == i or s[i:j] == "-":
                            raise ValueError(f"missing exponent at offset {i} in {text!r}")
                        exponent = int(s[i:j])
                        i = j
            if not mag_digits and not has_t:
                raise ValueError(f"malformed term at offset {i} in {text!r}")
            mag = int(mag_digits) if mag_digits else 1
            terms.append((exponent, sign * mag))
        return cls.from_terms(terms)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"LaurentPolynomial.from_text({self.to_text()!r})"


def _cyclotomic_like_div(num: np.ndarray, den: np.ndarray) -> np.ndarray | None:
    """Fast exact division when the divisor array is t**m - 1.

    Returns the quotient array, raises NonExactDivision on inexactness, or
    returns None when the divisor does not have the t**m - 1 shape.  Writing
    the dividend as sum a_e t^e, the quotient of an exact division satisfies
    q_e = q_{e-m} - a_e, so each quotient entry is minus a prefix sum of the
    dividend's coefficients over one residue class mod m; the division is
    exact iff every residue class sums to zero.
    """
    m = len(den) - 1
    if m < 1 or den[0] != -1 or den[-1] != 1 or np.count_nonzero(den) != 2:
        return None
    length = len(num)
    pad = (-length) % m
    padded = np.concatenate([num, np.zeros(pad, dtype=np.int64)])
    prefix = np.cumsum(padded.reshape(-1, m), axis=0)
    if np.any(prefix[-1] != 0):
        raise NonExactDivision("residue-class sums are nonzero")
    quot = (-prefix).reshape(-1)[: length - m]
    return quot


def _long_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Schoolbook exact division from the top coefficient downward."""
    dlen = len(den)
    dtop = int(den[-1])
    rem = num.copy()
    quot = np.zeros(len(num) - dlen + 1, dtype=np.int64)
    for j in range(len(num) - 1, dlen - 2, -1):
        c = int(rem[j])
        if c == 0:
            continue
        if c % dtop:
            raise NonExactDivision("leading coefficient does not divide")
        f = c // dtop
        quot[j - dlen + 1] = f
        rem[j - dlen + 1 : j + 1] -= f * den
    if np.any(rem[: dlen - 1]):
        raise NonExactDivision("nonzero remainder")
    return quot
