"""Command-line interface.

Every subcommand prints human-readable text by default and a stable JSON
document with ``--json``.  Exit codes: 0 on success, 1 when a requested
verification fails (scan violations, unequal braid words, failed
checks), 2 on usage or domain errors (bad parameters, parse errors,
malformed PD files).

Worker counts for the scanning subcommands default to the
``TORUSKNOT_JOBS`` environment variable when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .alexander import alexander_torus
from .bounds import bounds_report
from .braid import (
    cyclically_equal,
    lemma_word,
    parse_braid,
    torus_braid_word,
    verify_lemmas,
    words_equal,
)
from .diagram import (
    Diagram,
    all_a,
    all_b,
    closure_diagram,
    dealternating_number_diagram,
    import_pd,
    state_components,
    turaev_genus_diagram,
)
from .hfk import scan_conjecture, width_torus
from .verify import CHECK_NAMES, run_checks

__all__ = ["main"]


def _jobs(text: str) -> int:
    """Parse a worker count; the scan clamps it to [1, os.cpu_count()]."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"worker count (--jobs or TORUSKNOT_JOBS) must be an integer, got {text!r}"
        ) from None


def _default_jobs() -> str:
    """TORUSKNOT_JOBS, or "1"; argparse parses it with :func:`_jobs`."""
    return os.environ.get("TORUSKNOT_JOBS") or "1"


def _emit(args: argparse.Namespace, document: dict | list, text: str) -> None:
    if args.json:
        print(json.dumps(document, indent=2 if not args.compact else None))
    else:
        print(text)


def _diagram_from_args(args: argparse.Namespace) -> Diagram:
    if args.pd is not None:
        with open(args.pd, "r", encoding="utf-8") as handle:
            return import_pd(handle.read())
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


# ----------------------------------------------------------------------
# subcommand handlers (each returns the process exit code)


def _cmd_alexander(args: argparse.Namespace) -> int:
    delta = alexander_torus(args.p, args.q)
    document = {
        "p": args.p,
        "q": args.q,
        "polynomial": delta.to_text(),
        "coefficients": {str(e): c for e, c in delta.terms()},
    }
    _emit(args, document, delta.to_text())
    return 0


def _cmd_hfk(args: argparse.Namespace) -> int:
    from .hfk import extract_staircase, hfk_from_staircase

    table = hfk_from_staircase(extract_staircase(alexander_torus(args.p, args.q)))
    report = width_torus(args.p, args.q)
    generators = table.generators()
    document = {
        "p": args.p,
        "q": args.q,
        "generators": [list(g) for g in generators],
        "delta_max": report.delta_max,
        "delta_min": report.delta_min,
        "width": report.width,
    }
    lines = [f"{'s':>5} {'m':>5} {'rank':>5}"]
    for s, m, rank in generators:
        lines.append(f"{s:>5} {m:>5} {rank:>5}")
    lines.append(
        f"width {report.width} (delta range {report.delta_min}..{report.delta_max})"
    )
    _emit(args, document, "\n".join(lines))
    return 0


def _cmd_width(args: argparse.Namespace) -> int:
    report = width_torus(args.p, args.q)
    document = {
        "delta_max": report.delta_max,
        "delta_min": report.delta_min,
        "width": report.width,
    }
    _emit(
        args,
        document,
        f"width {report.width} (delta range {report.delta_min}..{report.delta_max})",
    )
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    checked, violations = scan_conjecture(args.bound, jobs=args.jobs)
    document = {
        "bound": args.bound,
        "pairs_checked": checked,
        "violations": [
            {
                "p": v.p,
                "q": v.q,
                "width": v.width,
                "previous_width": v.previous_width,
                "expected_jump": v.expected_jump,
            }
            for v in violations
        ],
    }
    text = f"checked {checked} coprime pairs below {args.bound}: {len(violations)} violations"
    for v in violations:
        text += f"\n  T({v.p},{v.q}): width {v.width}, previous {v.previous_width}, expected jump {v.expected_jump}"
    _emit(args, document, text)
    return 1 if violations else 0


def _cmd_braid_eq(args: argparse.Namespace) -> int:
    a = parse_braid(args.word1, args.strands)
    b = parse_braid(args.word2, args.strands)
    if args.cyclic:
        equal = cyclically_equal(a, b)
        relation = "cyclically equal" if equal else "not cyclically equal"
    else:
        equal = words_equal(a, b)
        relation = "equal" if equal else "not equal"
    document = {
        "strands": args.strands,
        "word1": a.as_text(),
        "word2": b.as_text(),
        "cyclic": args.cyclic,
        "equal": equal,
    }
    _emit(args, document, relation)
    return 0 if equal else 1


def _cmd_verify_lemmas(args: argparse.Namespace) -> int:
    checks = verify_lemmas(n_max=args.n_max)
    document = [
        {
            "p": c.p,
            "q": c.q,
            "n": c.n,
            "relation": c.relation,
            "crossings": c.crossings,
            "passed": c.passed,
        }
        for c in checks
    ]
    lines = []
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{mark} ({c.p},{c.q}) n={c.n} [{c.relation}] {c.crossings} crossings"
        )
    failed = sum(1 for c in checks if not c.passed)
    lines.append(f"{len(checks) - failed}/{len(checks)} identities hold")
    _emit(args, document, "\n".join(lines))
    return 1 if failed else 0


def _cmd_turaev_genus(args: argparse.Namespace) -> int:
    diagram = _diagram_from_args(args)
    genus = turaev_genus_diagram(diagram)
    s_a = all_a(diagram).component_count
    s_b = all_b(diagram).component_count
    document = {
        "crossings": len(diagram.signs),
        "s_A": s_a,
        "s_B": s_b,
        "turaev_genus": genus,
    }
    _emit(
        args,
        document,
        f"turaev genus {genus} (c = {len(diagram.signs)}, s_A = {s_a}, s_B = {s_b})",
    )
    return 0


def _cmd_dalt(args: argparse.Namespace) -> int:
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
    _emit(
        args,
        document,
        f"minimum crossing changes {report.minimum_changes} (witness: {witness})",
    )
    return 0


def _cmd_states(args: argparse.Namespace) -> int:
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
    state = state_components(diagram, assignment)
    document = {"assignment": assignment, "components": state.component_count}
    _emit(args, document, f"{state.component_count} components under {assignment}")
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
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
    _emit(args, report, "\n".join(lines))
    return 0


def _cmd_verify_paper(args: argparse.Namespace) -> int:
    names = tuple(args.only) if args.only else None
    results = run_checks(
        scan_bound=args.scan_bound, jobs=args.jobs, n_max=args.n_max, names=names
    )
    document = [
        {
            "name": r.name,
            "passed": r.passed,
            "detail": r.detail,
            "seconds": round(r.seconds, 3),
        }
        for r in results
    ]
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{mark} {r.name}: {r.detail} ({r.seconds:.2f}s)")
    failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} checks passed"
        + (f", {failed} FAILED" if failed else "")
    )
    _emit(args, document, "\n".join(lines))
    return 1 if failed else 0


# ----------------------------------------------------------------------
# parser assembly


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON instead of text")
    sub.add_argument(
        "--compact", action="store_true", help="single-line JSON (with --json)"
    )


def _add_pq(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("p", type=int, help="strand count of the torus link")
    sub.add_argument("q", type=int, help="winding count of the torus link")


def _add_diagram_source(sub: argparse.ArgumentParser, word_help: str) -> None:
    sub.add_argument("--strands", type=int, help="strand count for a braid word")
    sub.add_argument("word", nargs="?", default="", help=word_help)
    sub.add_argument("--pd", help="read the diagram from a PD-code JSON file")
    sub.add_argument(
        "--torus",
        type=int,
        nargs=2,
        metavar=("P", "Q"),
        help="use the standard closed-braid diagram of T(P,Q)",
    )
    sub.add_argument(
        "--tabulated",
        type=int,
        nargs=2,
        metavar=("P", "Q"),
        help="use the tabulated low-crossing diagram of T(P,Q)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusknot",
        description="Exact torus-link invariants: Alexander polynomials, "
        "knot Floer staircases, braid-word identities, Kauffman state "
        "counts, Turaev genus, and dealternating numbers.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser(
        "alexander", help="Alexander polynomial of the torus knot T(p,q)"
    )
    _add_pq(sub)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_alexander)

    sub = subparsers.add_parser(
        "hfk", help="knot Floer staircase generators of T(p,q)"
    )
    _add_pq(sub)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_hfk)

    sub = subparsers.add_parser(
        "width", help="homological width of the staircase of T(p,q)"
    )
    _add_pq(sub)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_width)

    sub = subparsers.add_parser(
        "scan", help="check the width-jump rule for all coprime pairs below a bound"
    )
    sub.add_argument("--bound", type=int, default=250, help="upper bound (default 250)")
    sub.add_argument(
        "--jobs",
        type=_jobs,
        default=_default_jobs(),
        help="worker processes (default: TORUSKNOT_JOBS or 1)",
    )
    _add_common(sub)
    sub.set_defaults(handler=_cmd_scan)

    sub = subparsers.add_parser(
        "braid-eq", help="decide equality of two positive braid words"
    )
    sub.add_argument("--strands", type=int, required=True)
    sub.add_argument(
        "--cyclic", action="store_true", help="compare up to cyclic rotation"
    )
    sub.add_argument("word1", help="first braid word")
    sub.add_argument("word2", help="second braid word")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_braid_eq)

    sub = subparsers.add_parser(
        "verify-lemmas",
        help="check every tabulated torus-word rewriting identity",
    )
    sub.add_argument("--n-max", type=int, default=4, help="largest n (default 4)")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_verify_lemmas)

    sub = subparsers.add_parser(
        "turaev-genus", help="Turaev genus of a closed-braid or PD diagram"
    )
    _add_diagram_source(sub, "braid word whose closure to use")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_turaev_genus)

    sub = subparsers.add_parser(
        "dalt", help="exact dealternating number of a diagram, with witness"
    )
    _add_diagram_source(sub, "braid word whose closure to use")
    _add_common(sub)
    sub.set_defaults(handler=_cmd_dalt)

    sub = subparsers.add_parser(
        "states", help="component count of a Kauffman state of a diagram"
    )
    _add_diagram_source(sub, "braid word whose closure to use")
    sub.add_argument(
        "--assignment",
        required=True,
        help="all-A, all-B, or an explicit A/B string (one letter per crossing)",
    )
    _add_common(sub)
    sub.set_defaults(handler=_cmd_states)

    sub = subparsers.add_parser(
        "bounds",
        help="certified lower/upper brackets for Turaev genus and "
        "dealternating number of T(p,q)",
    )
    _add_pq(sub)
    _add_common(sub)
    sub.set_defaults(handler=_cmd_bounds)

    sub = subparsers.add_parser(
        "verify-paper", help="run every built-in verification check"
    )
    sub.add_argument(
        "--scan-bound",
        type=int,
        default=250,
        help="bound for the conjecture scan (default 250)",
    )
    sub.add_argument(
        "--jobs",
        type=_jobs,
        default=_default_jobs(),
        help="worker processes for the scan (default: TORUSKNOT_JOBS or 1)",
    )
    sub.add_argument("--n-max", type=int, default=4, help="largest n for identities")
    sub.add_argument(
        "--only",
        action="append",
        choices=CHECK_NAMES,
        help="run a single named check (repeatable)",
    )
    _add_common(sub)
    sub.set_defaults(handler=_cmd_verify_paper)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
