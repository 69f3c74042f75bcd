"""Two-sided bounds for Turaev genus and dealternating number of torus links.

For a torus link T(p, q) the toolkit can certify:

* a lower bound from knot Floer width (knots only): both invariants are
  at least ``width - 1``;
* an upper bound by evaluating the diagram invariants on concrete closed
  braid diagrams -- the tabulated low-crossing word for the families that
  have one, and the standard ``(sigma_1 ... sigma_{p-1})^q`` closure
  otherwise.

The bracket's ``upper`` is always a value some in-scope diagram actually
attains.  For several families a smaller dealternating upper bound is known
from hand-modified diagrams that are not generated here; those targets are
reported alongside the bracket (see :class:`KnownUpper`) so callers can tell
when importing such a diagram as a PD file would tighten the bracket.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

from ._gate import _torus_pair
from .diagram import (
    Diagram,
    closure_diagram,
    dealternating_number_diagram,
    turaev_genus_diagram,
)
from .hfk import width_torus
from .words import _family, lemma_word, torus_braid_word

__all__ = [
    "BoundBracket",
    "KnownUpper",
    "bounds",
    "bounds_report",
    "known_dealternating_upper",
]


class BoundBracket(
    NamedTuple(
        "BoundBracket",
        [("invariant", str), ("lower", int), ("upper", int),
         ("lower_source", str), ("upper_source", str)],
    )
):
    """A certified interval ``lower <= invariant <= upper``.

    ``lower_source`` and ``upper_source`` say where each side comes from:
    the lower bound is either ``"floer-width"`` or ``"none"`` (links), and
    the upper bound names the diagram whose computed value it is.
    """

    __slots__ = ()

    def __new__(
        cls, invariant: str, lower: int, upper: int, lower_source: str, upper_source: str
    ) -> "BoundBracket":
        if lower > upper:
            raise AssertionError(
                f"inconsistent bracket for {invariant}: [{lower}, {upper}]"
            )
        return super().__new__(cls, invariant, lower, upper, lower_source, upper_source)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def is_sharp(self) -> bool:
        """True when the bracket pins the invariant exactly."""
        return self.lower == self.upper


class KnownUpper(NamedTuple):
    """Best dealternating upper bound known for a family, with provenance.

    ``needs_pd_import`` is True when the tabulated diagram's dealternating
    number is above ``value``: no diagram built by this package attains it,
    and reaching it requires importing a hand-modified diagram as a PD file.
    """

    value: int
    needs_pd_import: bool
    note: str


def known_dealternating_upper(p: int, q: int) -> KnownUpper | None:
    """Best known dealternating upper bound for T(p, q), if tabulated.

    Returns None for parameter families with no tabulated value, and checks
    p and q as :func:`bounds` does.  The returned value is a *target*: when
    ``needs_pd_import`` is set, the diagrams generated here do not attain it.
    """
    family, n = _family(*_torus_pair(p, q))
    if family is None:
        return None
    (x, y), (u, v) = family.known_upper, family.dealternating
    return KnownUpper(x * n + y, u * n + v > x * n + y, family.note)


def _best(pool: list[tuple[str, Diagram]], evaluate) -> tuple[int, str]:
    """The least value over the pool with its label, the first on ties.

    Raises ValueError on an empty pool.
    """
    return min(((evaluate(d), label) for label, d in pool), key=itemgetter(0))


def bounds(p: int, q: int) -> tuple[BoundBracket, BoundBracket]:
    """Certified (turaev_genus, dealternating) brackets for T(p, q).

    Accepts any positive p, q, including non-coprime parameters (torus
    links with several components).  The Floer-width lower bound only
    applies to knots; for links the lower bound is 0.

    >>> g, d = bounds(4, 5)
    >>> (g.lower, g.upper), (d.lower, d.upper)
    ((2, 2), (2, 4))
    >>> bounds(3, 2)[0].upper
    0
    """
    a, b = _torus_pair(p, q)

    if math.gcd(a, b) == 1:
        lower = width_torus(a, b).width - 1
        lower_source = "floer-width"
    else:
        lower = 0
        lower_source = "none"

    pool = [("standard closure", closure_diagram(torus_braid_word(a, b)))]
    if _family(a, b)[0] is not None:  # first, so that it wins ties
        pool.insert(0, ("tabulated diagram", closure_diagram(lemma_word(a, b))))
    g_upper, g_label = _best(pool, turaev_genus_diagram)
    d_upper, d_label = _best(
        pool, lambda d: dealternating_number_diagram(d).minimum_changes
    )

    turaev = BoundBracket("turaev_genus", lower, g_upper, lower_source, g_label)
    dealt = BoundBracket("dealternating", lower, d_upper, lower_source, d_label)
    return turaev, dealt


def _bracket_document(bracket: BoundBracket) -> dict:
    return {
        "lower": bracket.lower,
        "upper": bracket.upper,
        "lower_source": bracket.lower_source,
        "upper_source": bracket.upper_source,
        "sharp": bracket.is_sharp(),
    }


def bounds_report(p: int, q: int) -> dict:
    """JSON-friendly summary of :func:`bounds` plus the known-upper table."""
    a, b = _torus_pair(p, q)
    turaev, dealt = bounds(p, q)
    known = known_dealternating_upper(a, b)
    report = {
        "p": a,
        "q": b,
        "is_knot": math.gcd(a, b) == 1,
        "turaev_genus": _bracket_document(turaev),
        "dealternating": _bracket_document(dealt),
    }
    if known is not None:
        report["dealternating"]["known_upper"] = {
            "value": known.value,
            "needs_pd_import": known.needs_pd_import,
            "margin": dealt.upper - known.value,
            "note": known.note,
        }
    return report
