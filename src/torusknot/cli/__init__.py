"""Command-line interface.

Every subcommand prints human-readable text by default and a stable JSON
document with ``--json``.  Exit codes: 0 on success, 1 when a requested
verification fails (scan violations, unequal braid words, failed
checks), 2 on usage or domain errors (bad parameters, parse errors,
words nested too deeply, an exhausted cyclic-search budget, malformed or
non-planar PD files).

Each subcommand is declared once, in the one table :data:`_COMMANDS`:
its name, help, arguments and the module of this package that holds the
function running it.  A command returns ``(document, text, exit_code)``
and :func:`main` prints the document or the text.

A process builds and compiles only the command it runs.  Importing this
package loads no other module of the package.  argparse hands the rest of
the command line to the one subcommand it names, and only that
subcommand's parser is built; the others are names and help strings.  The
command bodies live in modules grouped by the layers they import, and
only the named command's module is loaded, after parsing.  Each body
imports what it runs when it runs.  So ``width`` loads
:mod:`~torusknot.hfk` and the (p, q) gate alone, a diagram built from a
word loads :mod:`~torusknot.words` but no normal-form code, and only
``verify-paper`` loads :mod:`~torusknot.verify`, whose check names are the
choices of ``--only``.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module
from typing import Callable, NamedTuple

__all__ = ["main"]


# ----------------------------------------------------------------------
# the command table


_Output = tuple[dict | list, str, int]  # (JSON document, text, exit code)
_Adder = Callable[[argparse.ArgumentParser], object]


class _Command(NamedTuple):
    name: str
    help: str
    module: str  # the module of this package whose function runs the command
    arguments: tuple[_Adder, ...]  # applied in order to the subparser

    def body(self) -> Callable[[argparse.Namespace], _Output]:
        """The function that runs the command, ``braid-eq`` by ``braid_eq``."""
        module = import_module(f"{__name__}.{self.module}")
        return getattr(module, self.name.replace("-", "_"))


def _arg(*names: str, **options) -> _Adder:
    return lambda sub: sub.add_argument(*names, **options)


def _check_names_arg(sub: argparse.ArgumentParser) -> None:
    # The check names are declared once, in verify.py; only verify-paper loads it.
    from ..verify import CHECK_NAMES

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

# In the order the help lists them.
_COMMANDS = {
    command.name: command
    for command in (
        _Command(
            "alexander", "Alexander polynomial of the torus knot T(p,q)", "_floer", _PQ
        ),
        _Command("hfk", "knot Floer staircase generators of T(p,q)", "_floer", _PQ),
        _Command(
            "width", "homological width of the staircase of T(p,q)", "_floer", _PQ
        ),
        _Command(
            "scan",
            "check the width-jump rule for all coprime pairs below a bound",
            "_floer",
            (_arg("--bound", type=int, default=250, help="upper bound (default 250)"),),
        ),
        _Command(
            "braid-eq",
            "decide equality of two positive braid words",
            "_braids",
            (
                _arg("--strands", type=int, required=True),
                _arg("--cyclic", action="store_true", help="compare up to cyclic rotation"),
                _arg("word1", help="first braid word"),
                _arg("word2", help="second braid word"),
            ),
        ),
        _Command(
            "verify-lemmas",
            "check every tabulated torus-word rewriting identity",
            "_braids",
            (_arg("--n-max", type=int, default=4, help="largest n (default 4)"),),
        ),
        _Command(
            "turaev-genus",
            "Turaev genus of a closed-braid or PD diagram",
            "_diagrams",
            _DIAGRAM_SOURCE,
        ),
        _Command(
            "dalt",
            "exact dealternating number of a diagram, with witness",
            "_diagrams",
            _DIAGRAM_SOURCE,
        ),
        _Command(
            "states",
            "component count of a Kauffman state of a diagram",
            "_diagrams",
            _DIAGRAM_SOURCE
            + (
                _arg(
                    "--assignment",
                    required=True,
                    help="all-A, all-B, or an explicit A/B string (one letter per crossing)",
                ),
            ),
        ),
        _Command(
            "bounds",
            "certified lower/upper brackets for Turaev genus and "
            "dealternating number of T(p,q)",
            "_brackets",
            _PQ,
        ),
        _Command(
            "verify-paper",
            "run every built-in verification check",
            "_paper",
            (_check_names_arg,),
        ),
    )
}


# ----------------------------------------------------------------------
# parser and entry point


class _CommandParser:
    """Stands in for a subcommand's parser until argparse dispatches to it.

    argparse keeps a parser per subcommand but calls ``parse_known_args``
    only on the one the command line names, with the rest of the line.
    That call builds the real parser and its arguments, so the other
    subcommands' parsers, and what their arguments import, are never built.
    """

    def __init__(self, *, arguments: tuple[_Adder, ...], **options) -> None:
        self._arguments = arguments
        self._options = options  # for argparse.ArgumentParser, prog included

    def parse_known_args(self, args=None, namespace=None):
        sub = argparse.ArgumentParser(**self._options)
        for add in self._arguments:
            add(sub)
        return sub.parse_known_args(args, namespace)


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
    for command in _COMMANDS.values():
        subparsers.add_parser(
            command.name, help=command.help, arguments=command.arguments + _COMMON
        )
    return parser


def _exit_two_errors() -> tuple[type[Exception], ...]:
    """The errors a command reports with exit code 2.

    Only code in :mod:`torusknot.braid` raises ``SearchBudgetExceeded``, so
    it is looked up only if that module was loaded.
    """
    errors = (ValueError, ArithmeticError, OSError)
    braid = sys.modules.get(f"{__package__.rpartition('.')[0]}.braid")
    return errors + (braid.SearchBudgetExceeded,) if braid else errors


def _print(output: str) -> None:
    """Print the output; a reader that closed the pipe early is no error.

    stdout then points at the null device, so the flush at exit is silent.
    """
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    run = _COMMANDS[args.command].body()
    try:
        document, text, code = run(args)
    except _exit_two_errors() as exc:  # evaluated only when the command raised
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json  # text mode, the default, never loads it

        _print(json.dumps(document, indent=2 if not args.compact else None))
    else:
        _print(text)
    return code
