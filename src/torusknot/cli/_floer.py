"""The commands on the Alexander polynomial and the knot Floer width."""

from __future__ import annotations

from argparse import Namespace
from typing import TYPE_CHECKING

from . import _Output

if TYPE_CHECKING:
    from ..hfk import WidthReport


def alexander(args: Namespace) -> _Output:
    from ..alexander import alexander_torus

    delta = alexander_torus(args.p, args.q)
    document = {
        "p": args.p,
        "q": args.q,
        "polynomial": delta.to_text(),
        "coefficients": {str(e): c for e, c in delta.terms()},
    }
    return document, delta.to_text(), 0


def _width_text(report: WidthReport) -> str:
    return f"width {report.width} (delta range {report.delta_min}..{report.delta_max})"


def hfk(args: Namespace) -> _Output:
    from ..alexander import alexander_torus
    from ..hfk import delta_sequence, extract_staircase, hfk_from_staircase

    stair = extract_staircase(alexander_torus(args.p, args.q))
    generators = hfk_from_staircase(stair)
    report = delta_sequence(stair)
    document = {
        "p": args.p,
        "q": args.q,
        "generators": [list(g) for g in generators],
        **report._asdict(),
    }
    lines = [f"{'s':>5} {'m':>5} {'rank':>5}"]
    for s, m, rank in generators:
        lines.append(f"{s:>5} {m:>5} {rank:>5}")
    lines.append(_width_text(report))
    return document, "\n".join(lines), 0


def width(args: Namespace) -> _Output:
    from ..hfk import width_torus

    report = width_torus(args.p, args.q)
    return report._asdict(), _width_text(report), 0


def scan(args: Namespace) -> _Output:
    from ..hfk import scan_conjecture

    checked, violations = scan_conjecture(args.bound)
    document = {
        "bound": args.bound,
        "pairs_checked": checked,
        "violations": [v._asdict() for v in violations],
    }
    text = f"checked {checked} coprime pairs below {args.bound}: {len(violations)} violations"
    for v in violations:
        text += f"\n  T({v.p},{v.q}): width {v.width}, previous {v.previous_width}, expected jump {v.expected_jump}"
    return document, text, 1 if violations else 0
