"""Command-line interface.

Every subcommand prints human-readable text by default and a stable JSON
document with ``--json``.  Exit codes: 0 on success, 1 when a requested
verification fails (scan violations, unequal braid words, failed
checks), 2 on usage or domain errors (bad parameters, parse errors,
words nested too deeply, an exhausted cyclic-search budget, malformed or
non-planar PD files).

Each subcommand is declared once, by :func:`_command` on the function
that runs it.  That one table drives the parser, the dispatch and the
output: a command returns ``(document, text, exit_code)`` and
:func:`main` prints the document or the text.

Imports are per command: importing this module loads no other module of
the package.  Each command imports what it runs inside its own body, and
a subcommand's arguments are added only when the command line selects it.
So ``width`` loads :mod:`~torusknot.hfk` and the (p, q) gate alone, a
diagram built from a word loads :mod:`~torusknot.words` but no normal-form
code, and only ``verify-paper`` loads :mod:`~torusknot.verify`, whose check
names are the choices of ``--only``.

Worker counts for the scanning subcommands default to the
``TORUSKNOT_JOBS`` environment variable when set.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple

if TYPE_CHECKING:
    from .diagram import Diagram
    from .hfk import WidthReport

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


def _diagram_from_args(args: argparse.Namespace) -> Diagram:
    from .diagram import closure_diagram, import_pd

    sources = ("pd", "tabulated", "torus", "strands")
    given = [f"--{name}" for name in sources if getattr(args, name) is not None]
    if len(given) > 1:
        raise ValueError(f"give one diagram source, not {' and '.join(given)}")
    if args.word and args.strands is None:
        raise ValueError(f"the braid word {args.word!r} needs --strands")
    if args.pd is not None:
        with open(args.pd, "r", encoding="utf-8") as handle:
            return import_pd(handle.read())
    from .words import lemma_word, parse_braid, torus_braid_word

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
# the command table


_Output = tuple[dict | list, str, int]  # (JSON document, text, exit code)
_Adder = Callable[[argparse.ArgumentParser], object]


class _Command(NamedTuple):
    name: str
    help: str
    arguments: tuple[_Adder, ...]  # applied in order to the subparser
    run: Callable[[argparse.Namespace], _Output]


_COMMANDS: list[_Command] = []


def _command(name: str, help: str, *arguments: _Adder):
    """Declare a subcommand: its name, help and arguments, on its function."""

    def register(run: Callable[[argparse.Namespace], _Output]):
        _COMMANDS.append(_Command(name, help, arguments, run))
        return run

    return register


def _arg(*names: str, **options) -> _Adder:
    return lambda sub: sub.add_argument(*names, **options)


def _jobs_arg(help: str) -> _Adder:
    # TORUSKNOT_JOBS is read each time a parser is built, not at import.
    return lambda sub: sub.add_argument(
        "--jobs", type=_jobs, default=_default_jobs(), help=help
    )


def _check_names_arg(sub: argparse.ArgumentParser) -> None:
    # The check names are declared once, in verify.py; only verify-paper loads it.
    from .verify import CHECK_NAMES

    sub.add_argument(
        "--only",
        action="append",
        choices=CHECK_NAMES,
        help="run a single named check (repeatable)",
    )


_PQ = (
    _arg("p", type=int, help="strand count of the torus link"),
    _arg("q", type=int, help="winding count of the torus link"),
)
_DIAGRAM_SOURCE = (
    _arg("--strands", type=int, help="strand count for a braid word"),
    _arg("word", nargs="?", default="", help="braid word whose closure to use"),
    _arg("--pd", help="read the diagram from a PD-code JSON file"),
    _arg(
        "--torus",
        type=int,
        nargs=2,
        metavar=("P", "Q"),
        help="use the standard closed-braid diagram of T(P,Q)",
    ),
    _arg(
        "--tabulated",
        type=int,
        nargs=2,
        metavar=("P", "Q"),
        help="use the tabulated low-crossing diagram of T(P,Q)",
    ),
)
_COMMON = (
    _arg("--json", action="store_true", help="emit JSON instead of text"),
    _arg("--compact", action="store_true", help="single-line JSON (with --json)"),
)


# ----------------------------------------------------------------------
# subcommands, in the order the help lists them


@_command("alexander", "Alexander polynomial of the torus knot T(p,q)", *_PQ)
def _alexander(args: argparse.Namespace) -> _Output:
    from .alexander import alexander_torus

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


@_command("hfk", "knot Floer staircase generators of T(p,q)", *_PQ)
def _hfk(args: argparse.Namespace) -> _Output:
    from .alexander import alexander_torus
    from .hfk import delta_sequence, extract_staircase, hfk_from_staircase

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


@_command("width", "homological width of the staircase of T(p,q)", *_PQ)
def _width(args: argparse.Namespace) -> _Output:
    from .hfk import width_torus

    report = width_torus(args.p, args.q)
    return report._asdict(), _width_text(report), 0


@_command(
    "scan",
    "check the width-jump rule for all coprime pairs below a bound",
    _arg("--bound", type=int, default=250, help="upper bound (default 250)"),
    _jobs_arg("worker processes (default: TORUSKNOT_JOBS or 1)"),
)
def _scan(args: argparse.Namespace) -> _Output:
    from .hfk import scan_conjecture

    checked, violations = scan_conjecture(args.bound, jobs=args.jobs)
    document = {
        "bound": args.bound,
        "pairs_checked": checked,
        "violations": [v._asdict() for v in violations],
    }
    text = f"checked {checked} coprime pairs below {args.bound}: {len(violations)} violations"
    for v in violations:
        text += f"\n  T({v.p},{v.q}): width {v.width}, previous {v.previous_width}, expected jump {v.expected_jump}"
    return document, text, 1 if violations else 0


@_command(
    "braid-eq",
    "decide equality of two positive braid words",
    _arg("--strands", type=int, required=True),
    _arg("--cyclic", action="store_true", help="compare up to cyclic rotation"),
    _arg("word1", help="first braid word"),
    _arg("word2", help="second braid word"),
)
def _braid_eq(args: argparse.Namespace) -> _Output:
    from .braid import cyclically_equal, parse_braid, words_equal

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
    return document, relation, 0 if equal else 1


@_command(
    "verify-lemmas",
    "check every tabulated torus-word rewriting identity",
    _arg("--n-max", type=int, default=4, help="largest n (default 4)"),
)
def _verify_lemmas(args: argparse.Namespace) -> _Output:
    from .braid import verify_lemmas

    checks = verify_lemmas(n_max=args.n_max)
    document = [c._asdict() for c in checks]
    lines = []
    for c in checks:
        mark = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{mark} ({c.p},{c.q}) n={c.n} [{c.relation}] {c.crossings} crossings"
        )
    failed = sum(1 for c in checks if not c.passed)
    lines.append(f"{len(checks) - failed}/{len(checks)} identities hold")
    return document, "\n".join(lines), 1 if failed else 0


@_command(
    "turaev-genus", "Turaev genus of a closed-braid or PD diagram", *_DIAGRAM_SOURCE
)
def _turaev_genus(args: argparse.Namespace) -> _Output:
    from .diagram import _turaev_counts

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


@_command(
    "dalt", "exact dealternating number of a diagram, with witness", *_DIAGRAM_SOURCE
)
def _dalt(args: argparse.Namespace) -> _Output:
    from .diagram import dealternating_number_diagram

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


@_command(
    "states",
    "component count of a Kauffman state of a diagram",
    *_DIAGRAM_SOURCE,
    _arg(
        "--assignment",
        required=True,
        help="all-A, all-B, or an explicit A/B string (one letter per crossing)",
    ),
)
def _states(args: argparse.Namespace) -> _Output:
    from .diagram import state_components

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


@_command(
    "bounds",
    "certified lower/upper brackets for Turaev genus and "
    "dealternating number of T(p,q)",
    *_PQ,
)
def _bounds(args: argparse.Namespace) -> _Output:
    from .bounds import bounds_report

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


@_command(
    "verify-paper",
    "run every built-in verification check",
    _arg(
        "--scan-bound",
        type=int,
        default=250,
        help="bound for the conjecture scan (default 250)",
    ),
    _jobs_arg("worker processes for the scan (default: TORUSKNOT_JOBS or 1)"),
    _arg("--n-max", type=int, default=4, help="largest n for identities"),
    _check_names_arg,
)
def _verify_paper(args: argparse.Namespace) -> _Output:
    from .verify import run_checks

    names = tuple(args.only) if args.only else None
    results = run_checks(
        scan_bound=args.scan_bound, jobs=args.jobs, n_max=args.n_max, names=names
    )
    document = [{**r._asdict(), "seconds": round(r.seconds, 3)} for r in results]
    lines = []
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        lines.append(f"{mark} {r.name}: {r.detail} ({r.seconds:.2f}s)")
    failed = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} checks passed"
        + (f", {failed} FAILED" if failed else "")
    )
    return document, "\n".join(lines), 1 if failed else 0


# ----------------------------------------------------------------------
# parser and entry point


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which adds its arguments when it parses.

    argparse hands the rest of the command line only to the subcommand it
    names, so only that subcommand's arguments, and what they import, are
    ever built.
    """

    def __init__(self, *, arguments: tuple[_Adder, ...] = (), **options) -> None:
        super().__init__(**options)
        self._pending = arguments

    def parse_known_args(self, args=None, namespace=None):
        for add in self._pending:
            add(self)
        self._pending = ()
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusknot",
        description="Exact torus-link invariants: Alexander polynomials, "
        "knot Floer staircases, braid-word identities, Kauffman state "
        "counts, Turaev genus, and dealternating numbers.",
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, parser_class=_CommandParser
    )
    for command in _COMMANDS:
        sub = subparsers.add_parser(
            command.name, help=command.help, arguments=command.arguments + _COMMON
        )
        sub.set_defaults(handler=command.run)
    return parser


def _exit_two_errors() -> tuple[type[Exception], ...]:
    """The errors a command reports with exit code 2.

    Only code in :mod:`torusknot.braid` raises ``SearchBudgetExceeded``, so
    it is looked up only if that module was loaded.
    """
    errors = (ValueError, ArithmeticError, OSError)
    braid = sys.modules.get(f"{__package__}.braid")
    return errors + (braid.SearchBudgetExceeded,) if braid else errors


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        document, text, code = args.handler(args)
    except _exit_two_errors() as exc:  # evaluated only when the command raised
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json  # text mode, the default, never loads it

        print(json.dumps(document, indent=2 if not args.compact else None))
    else:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
