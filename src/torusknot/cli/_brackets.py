"""The ``bounds`` command: the paper's brackets for one torus link."""

from __future__ import annotations

from argparse import Namespace

from . import _Output


def bounds(args: Namespace) -> _Output:
    from ..bounds import bounds_report

    report = bounds_report(args.p, args.q)
    lines = []
    for key in ("turaev_genus", "dealternating"):
        bracket = report[key]
        line = (
            f"{key.replace('_', ' ')}: [{bracket['lower']}, {bracket['upper']}] "
            f"(lower: {bracket['lower_source']}, upper: {bracket['upper_source']})"
        )
        lines.append(line)
        known = bracket.get("known_upper")
        if known is not None:
            lines.append(
                f"  known upper bound {known['value']} "
                f"(margin {known['margin']}; "
                + (
                    "requires importing a hand-modified diagram as a PD file"
                    if known["needs_pd_import"]
                    else "attained by the generated diagram"
                )
                + ")"
            )
    return report, "\n".join(lines), 0
