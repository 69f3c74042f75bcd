"""The commands on one diagram, given by a PD file or a closed braid."""

from __future__ import annotations

from argparse import Namespace
from typing import TYPE_CHECKING

from . import _Output

if TYPE_CHECKING:
    from ..diagram import Diagram


def _diagram_from_args(args: Namespace) -> Diagram:
    from ..diagram import closure_diagram, import_pd

    sources = ("pd", "tabulated", "torus", "strands")
    given = [f"--{name}" for name in sources if getattr(args, name) is not None]
    if len(given) > 1:
        raise ValueError(f"give one diagram source, not {' and '.join(given)}")
    if args.word and args.strands is None:
        raise ValueError(f"the braid word {args.word!r} needs --strands")
    if args.pd is not None:
        with open(args.pd, "r", encoding="utf-8") as handle:
            return import_pd(handle.read())
    from ..words import lemma_word, parse_braid, torus_braid_word

    if args.tabulated is not None:
        p, q = args.tabulated
        return closure_diagram(lemma_word(p, q))
    if args.torus is not None:
        p, q = args.torus
        return closure_diagram(torus_braid_word(p, q))
    if args.strands is None:
        raise ValueError(
            "a diagram source is required: --pd, --tabulated, --torus, "
            "or --strands with a word"
        )
    return closure_diagram(parse_braid(args.word, args.strands))


def turaev_genus(args: Namespace) -> _Output:
    from ..diagram import _turaev_counts

    diagram = _diagram_from_args(args)
    genus, s_a, s_b = _turaev_counts(diagram)
    document = {
        "crossings": len(diagram.signs),
        "s_A": s_a,
        "s_B": s_b,
        "turaev_genus": genus,
    }
    text = f"turaev genus {genus} (c = {len(diagram.signs)}, s_A = {s_a}, s_B = {s_b})"
    return document, text, 0


def dalt(args: Namespace) -> _Output:
    from ..diagram import dealternating_number_diagram

    diagram = _diagram_from_args(args)
    report = dealternating_number_diagram(diagram)
    document = {
        "minimum_changes": report.minimum_changes,
        "witness": list(report.witness),
        "components": [
            {"crossings": list(c.crossings), "changes": list(c.changes)}
            for c in report.component_structure
        ],
    }
    witness = ", ".join(str(i) for i in report.witness) or "none needed"
    text = f"minimum crossing changes {report.minimum_changes} (witness: {witness})"
    return document, text, 0


def states(args: Namespace) -> _Output:
    from ..diagram import state_components

    diagram = _diagram_from_args(args)
    letter_count = len(diagram.signs)
    if args.assignment == "all-A":
        assignment = "A" * letter_count
    elif args.assignment == "all-B":
        assignment = "B" * letter_count
    else:
        assignment = args.assignment.strip().upper()
        if len(assignment) != letter_count or set(assignment) - {"A", "B"}:
            raise ValueError(
                f"assignment must be all-A, all-B, or an A/B string of "
                f"length {letter_count}"
            )
    count = state_components(diagram, assignment)
    document = {"assignment": assignment, "components": count}
    return document, f"{count} components under {assignment}", 0
