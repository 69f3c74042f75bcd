"""Outside-in tracer: times the package's public functions without editing it.

``Tracer.install()`` replaces each target function with a timing wrapper in
every namespace it is looked up from: the defining module, every other
``torusknot`` module that imported it by name, the package namespace, and,
for methods, every attribute of the class bound to the same function (so
``LaurentPolynomial.__rmul__`` is wrapped along with ``__mul__``).  Calls
between the package's own modules therefore go through the wrappers too.

Each call becomes one span (name, start, end, parent span, request id), kept
in memory and written out by :meth:`Tracer.dump` when the run ends.  A
span's self time is its duration minus the durations of its direct children;
calls are strictly nested because the package is single-threaded.

A target that no longer exists (after a refactor renames or removes it) is
recorded in ``Tracer.missing`` instead of raising, and every metric derived
from it is reported as missing.

Run as a script, this module executes the package's command line under the
tracer and writes the spans to a file::

    python bench/tracer.py SPANS.json alexander 4 5
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

# (metric prefix, defining module, attribute path, per-call amount or None).
# The amount functions read the same argument the wrapped function receives.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("laurent.exact_div", "torusknot.laurent", "LaurentPolynomial.exact_div", None),
    ("laurent.mul", "torusknot.laurent", "LaurentPolynomial.__mul__", None),
    ("alexander.alexander_torus", "torusknot.alexander", "alexander_torus", None),
    ("hfk.extract_staircase", "torusknot.hfk", "extract_staircase", None),
    ("hfk.hfk_from_staircase", "torusknot.hfk", "hfk_from_staircase", None),
    ("hfk.delta_sequence", "torusknot.hfk", "delta_sequence", None),
    ("hfk.width_torus", "torusknot.hfk", "width_torus", None),
    ("braid.normal_form", "torusknot.braid", "normal_form", lambda word: len(word.letters)),
    ("braid.words_equal", "torusknot.braid", "words_equal", None),
    ("braid.cyclically_equal", "torusknot.braid", "cyclically_equal", None),
    ("braid.lemma_word", "torusknot.braid", "lemma_word", None),
    ("diagram.closure_diagram", "torusknot.diagram", "closure_diagram", lambda word: len(word.letters)),
    ("diagram.state_components", "torusknot.diagram", "state_components", None),
    ("diagram.turaev_genus_diagram", "torusknot.diagram", "turaev_genus_diagram", None),
    ("diagram.dealternating_number_diagram", "torusknot.diagram", "dealternating_number_diagram", None),
    ("diagram.change_crossings", "torusknot.diagram", "change_crossings", None),
    ("bounds.bounds", "torusknot.bounds", "bounds", None),
)

NAMES = tuple(t[0] for t in TARGETS)


@dataclass
class LayerStats:
    """Aggregates of one target's spans."""

    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0  # outermost spans only, so recursion is not counted twice
    amount: int = 0


class Tracer:
    def __init__(self) -> None:
        # spans[i] = [name index, start ns, end ns, parent span or -1, request id]
        self.spans: list[list[int]] = []
        self.amounts = [0] * len(TARGETS)
        self.missing: list[str] = []
        self.request = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, index: int, fn: Callable, amount: Callable | None) -> Callable:
        spans, stack, amounts = self.spans, self._stack, self.amounts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [index, 0, 0, stack[-1] if stack else -1, self.request]
            spans.append(span)
            stack.append(len(spans) - 1)
            if amount is not None:
                amounts[index] += amount(*args, **kwargs)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target in every namespace that holds it."""
        self.missing = []
        for index, (name, module_name, path, amount) in enumerate(TARGETS):
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if outer else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(index, original, amount)
            holders = [owner] if outer else []
            holders += [
                module
                for module_key, module in sorted(sys.modules.items())
                if module is not None
                and (module_key == "torusknot" or module_key.startswith("torusknot."))
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def absorb(self, dumped: dict) -> None:
        """Append the spans another process dumped, as part of this request."""
        offset = len(self.spans)
        index_of = {name: i for i, name in enumerate(NAMES)}
        names = dumped["names"]
        for index, start, end, parent, _ in dumped["spans"]:
            parent = parent + offset if parent >= 0 else -1
            self.spans.append([index_of[names[index]], start, end, parent, self.request])
        for name, amount in zip(names, dumped["amounts"]):
            self.amounts[index_of[name]] += amount
        self.missing = sorted(set(self.missing) | set(dumped["missing"]))

    # -- results -----------------------------------------------------------

    def stats(self) -> dict[str, LayerStats]:
        return aggregate(self.spans, self.amounts)

    def dump(self, path: str) -> None:
        """Write names, spans, amounts and missing targets as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": list(NAMES),
                    "fields": ["name", "start_ns", "end_ns", "parent", "request"],
                    "spans": self.spans,
                    "amounts": self.amounts,
                    "missing": self.missing,
                },
                handle,
            )


def aggregate(spans: list[list[int]], amounts: list[int]) -> dict[str, LayerStats]:
    """Per-target calls, self time, outermost total time and amount."""
    child_ns = [0] * len(spans)
    for index, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {name: LayerStats(amount=amounts[i]) for i, name in enumerate(NAMES)}
    for i, (index, start, end, parent, _) in enumerate(spans):
        stats = out[NAMES[index]]
        stats.calls += 1
        stats.self_ns += end - start - child_ns[i]
        while parent >= 0 and spans[parent][0] != index:
            parent = spans[parent][3]
        if parent < 0:
            stats.total_ns += end - start
    return out


def calls_under(spans: list[list[int]], name: str, ancestor: str) -> int:
    """Number of ``name`` spans that run inside some ``ancestor`` span."""
    target, outer = NAMES.index(name), NAMES.index(ancestor)
    count = 0
    for index, _, _, parent, _ in spans:
        if index != target:
            continue
        while parent >= 0 and spans[parent][0] != outer:
            parent = spans[parent][3]
        count += parent >= 0
    return count


def _run_cli(spans_path: str, argv: list[str]) -> int:
    import torusknot.cli

    tracer = Tracer()
    try:
        with tracer:
            return torusknot.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(_run_cli(sys.argv[1], sys.argv[2:]))
