"""The ``verify-paper`` command: every built-in verification check."""

from __future__ import annotations

from argparse import Namespace

from . import _Output


def verify_paper(args: Namespace) -> _Output:
    from ..verify import run_checks

    names = tuple(args.only) if args.only else None
    results = run_checks(names)
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
