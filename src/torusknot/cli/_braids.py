"""The commands on positive braid words."""

from __future__ import annotations

from argparse import Namespace

from . import _Output


def braid_eq(args: Namespace) -> _Output:
    from ..braid import cyclically_equal, words_equal
    from ..words import parse_braid

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


def verify_lemmas(args: Namespace) -> _Output:
    from ..braid import verify_lemmas

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
