"""The four workloads: seeded request rounds and their answer checks.

A workload issues its requests one at a time (closed loop, one client) in
rounds of fixed composition; the seed picks the instances inside each round.
Keeping the composition fixed keeps the mix, and so the throughput and the
tail, comparable from seed to seed.  Every request carries a check that runs
after the timed phase and uses only :mod:`oracle` or facts known by
construction.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import oracle

from torusknot import braid, hfk
from torusknot.braid import BraidWord, lemma_word, torus_braid_word

# Timed calls go through module attributes, so the tracer's wrappers see
# them; inputs are built with functions imported by name.  The package
# re-exports the function ``bounds`` under the submodule's name.
bounds_module = importlib.import_module("torusknot.bounds")


@dataclass
class Request:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # error text, or None when right
    items: int = 1  # units of work counted by items_per_s
    argv: list[str] | None = None  # command line, for the cli workload


class Workload:
    """Base: ``make_round()`` returns the next round of requests."""

    name = ""
    trace_rounds = 1  # rounds in one traced pass; fixed so counts repeat
    calibration = "python"  # reference task of calibrate.REFERENCE_S
    calibration_share = 0.2  # time spent on it, as a share of request time

    def __init__(self, seed: int, root: Path, smoke: bool):
        self.rng = random.Random(seed)
        self.root = root
        self.smoke = smoke

    def make_round(self) -> list[Request]:
        raise NotImplementedError

    def call(self, request: Request, tracer=None) -> object:
        """Run one request; in-process workloads are traced by installation."""
        return request.call()

    def trace_extra(self) -> dict:
        """Untraced measurements that only the traced run takes."""
        return {}


# ----------------------------------------------------------------------
# scan: the serial width-jump scan, the path `verify-paper` runs


class Scan(Workload):
    """One request is one full scan of all coprime pairs below ``bound``.

    The scan is exhaustive, so the seed changes nothing; a round is one scan
    with a fresh width memo, exactly as a user's call gets.
    """

    name = "scan"
    trace_rounds = 3

    def __init__(self, seed: int, root: Path, smoke: bool):
        super().__init__(seed, root, smoke)
        self.bound = 20 if smoke else 50
        self.pairs = oracle.coprime_pairs_below(self.bound)

    def _check(self, result) -> str | None:
        checked, violations = result
        if checked != self.pairs:
            return f"scan below {self.bound} checked {checked} pairs, sieve says {self.pairs}"
        if violations:
            return f"scan below {self.bound} reported {len(violations)} violations"
        return None

    def make_round(self) -> list[Request]:
        bound = self.bound
        return [
            Request(
                "scan",
                lambda: hfk.scan_conjecture_parallel(bound, jobs=1),
                self._check,
                items=self.pairs,
            )
        ]

    def trace_extra(self) -> dict:
        """One parallel scan at the same bound, untraced, to set against the
        serial scan of the untraced pass."""
        jobs = min(2, usable_cores())
        start = time.perf_counter()
        result = hfk.scan_conjecture_parallel(self.bound, jobs=jobs)
        elapsed = time.perf_counter() - start
        error = self._check(result)
        if error:
            raise AssertionError(f"scan with {jobs} jobs: {error}")
        return {"scan_jobs_s": elapsed, "workers": jobs}


# ----------------------------------------------------------------------
# braid: word-problem requests


# (p, r) of the identities that hold on the nose; (5, 3) holds up to rotation.
_EQUAL_FAMILIES = ((4, 0), (4, 1), (4, 2), (4, 3), (5, 0), (5, 1), (5, 2), (5, 4), (6, 0), (6, 1))


# Random words: one of each strand count per kind and round, all of one
# length, so the cost mix of a round does not depend on the seed.
_RANDOM_STRANDS = (3, 4, 5, 6)
_RANDOM_LENGTH = 50


def _expect(answer: bool, label: str) -> Callable[[object], str | None]:
    def check(result) -> str | None:
        return None if result is answer else f"{label}: got {result!r}, want {answer}"

    return check


class Braid(Workload):
    """Per round: two cyclic (5, 8) checks, four tabulated identities, ten random.

    The cyclic checks compare the tabulated (5, 8) word with a rotation of
    the torus word.  Rotations by 0 or 1 mod 4 cost several times as much as
    rotations by 2 or 3, so every round has one of each, and each class is
    walked through in a seeded order; otherwise the seed would set the share
    of slow requests.  Only n = 1 of the (5, 5n+3) family is used: n = 2
    costs four times as much again, and a handful of such requests per run
    would decide the tail on their own.

    The identities take one n from each of 1..4, cycling through the ten
    families in a seeded order.  The random requests are seeded positive
    words of 50 letters, one on each of 3 to 6 strands against a random Artin
    rewrite (equal) and one on each against a copy with one square swapped
    (unequal, same length and permutation, so only the normal form decides),
    plus two against a copy with one letter changed (unequal, rejected by the
    permutation).
    """

    name = "braid"
    trace_rounds = 3

    def __init__(self, seed: int, root: Path, smoke: bool):
        super().__init__(seed, root, smoke)
        self.torus = torus_braid_word(5, 8)
        self.cyclic_word = lemma_word(5, 8)
        self.rotations = []
        for residues in ((0, 1), (2, 3)):
            ks = [k for k in range(len(self.torus.letters)) if k % 4 in residues]
            self.rng.shuffle(ks)
            self.rotations.append(ks)
        self.family_cycles = []
        for n in range(1, 3 if smoke else 5):
            order = list(_EQUAL_FAMILIES)
            self.rng.shuffle(order)
            self.family_cycles.append((n, order))
        self.rounds = 0

    def make_round(self) -> list[Request]:
        rng = self.rng
        requests = []
        for ks in self.rotations:
            k = ks[self.rounds % len(ks)]
            a, b = self.cyclic_word, self.torus.rotate(k)
            requests.append(
                Request(
                    "cyclic",
                    lambda a=a, b=b: braid.cyclically_equal(a, b),
                    _expect(True, f"cyclic (5,8) rotated by {k}"),
                )
            )
        for n, order in self.family_cycles:
            p, r = order[self.rounds % len(order)]
            x, y = lemma_word(p, p * n + r), torus_braid_word(p, p * n + r)
            requests.append(
                Request(
                    "identity",
                    lambda x=x, y=y: braid.words_equal(x, y),
                    _expect(True, f"identity ({p},{p * n + r})"),
                )
            )
        self.rounds += 1
        if self.smoke:
            words = [("rewrite", 3), ("square", 4), ("changed", 5)]
        else:
            words = [(kind, strands) for kind in ("rewrite", "square") for strands in _RANDOM_STRANDS]
            words += [("changed", rng.choice(_RANDOM_STRANDS)) for _ in range(2)]
        for kind, strands in words:
            letters = oracle.random_word(strands, _RANDOM_LENGTH, rng)
            if kind == "rewrite":
                other = oracle.artin_rewrite(letters, rng, 4 * len(letters))
            elif kind == "changed":
                other = oracle.change_one_letter(letters, strands, rng)
            else:
                other = oracle.swap_square(letters, strands, rng)
            x, y = BraidWord(strands, tuple(letters)), BraidWord(strands, tuple(other))
            requests.append(
                Request(
                    kind,
                    lambda x=x, y=y: braid.words_equal(x, y),
                    _expect(kind == "rewrite", f"{kind} {x.as_text()}"),
                )
            )
        rng.shuffle(requests)
        return requests


# ----------------------------------------------------------------------
# bounds: two-sided brackets for torus knots and links


# Every (p, q) with 2 <= p <= 9 and 2 <= q <= 120: knots and links, the
# tabulated families among them, and closures of at most 14 crossings.
_GRID = [(p, q) for p in range(2, 10) for q in range(2, 121)]


class Bounds(Workload):
    """Rounds of 24 ``bounds_report`` requests that walk the grid.

    Each pass visits every (p, q) of the grid once, in a fresh seeded order
    and with p and q swapped by a seeded coin, so every run sees the same
    mix of sizes; only the order, and so the part of the grid the last
    partial pass covers, depends on the seed.  The checks pin the uppers
    on the tabulated families (p in {4, 5, 6} with a tabulated residue) by
    the paper's formulas and on closures of at most 14 crossings by brute
    force.
    """

    name = "bounds"
    trace_rounds = 8

    def __init__(self, seed: int, root: Path, smoke: bool):
        super().__init__(seed, root, smoke)
        self._expected: dict[tuple[int, int], dict] = {}
        self._pending: list[tuple[int, int]] = []
        self.round_size = 8 if smoke else 24

    def _pairs(self) -> list[tuple[int, int]]:
        rng = self.rng
        pairs = []
        while len(pairs) < self.round_size:
            if not self._pending:
                self._pending = list(_GRID)
                rng.shuffle(self._pending)
            p, q = self._pending.pop()
            pairs.append((p, q) if rng.random() < 0.5 else (q, p))
        return pairs

    def _expectation(self, a: int, b: int) -> dict:
        """Known parts of the report for a <= b; computed once per pair."""
        key = (a, b)
        if key not in self._expected:
            want: dict = {"lower": oracle.width(a, b)[2] - 1 if oracle.is_knot(a, b) else 0}
            if oracle.is_tabulated(a, b):
                want["turaev_upper"], want["dalt_upper"] = oracle.tabulated_uppers(a, b)
            elif (a - 1) * b <= 14:
                letters = oracle.torus_letters(a, b)
                want["turaev_upper"] = oracle.turaev_genus(a, letters)[0]
                want["dalt_upper"] = oracle.brute_force_dealternating(a, letters)
            self._expected[key] = want
        return self._expected[key]

    def _checker(self, p: int, q: int) -> Callable[[object], str | None]:
        a, b = min(p, q), max(p, q)

        def check(report) -> str | None:
            want = self._expectation(a, b)
            genus, dalt = report["turaev_genus"], report["dealternating"]
            got = {
                "pq": (report["p"], report["q"]),
                "lower": genus["lower"],
                "dalt_lower": dalt["lower"],
                "turaev_upper": genus["upper"],
                "dalt_upper": dalt["upper"],
            }
            expected = {
                "pq": (a, b),
                "lower": want["lower"],
                "dalt_lower": want["lower"],
                # uppers are pinned only where a formula or brute force exists
                "turaev_upper": want.get("turaev_upper", genus["upper"]),
                "dalt_upper": want.get("dalt_upper", dalt["upper"]),
            }
            if got != expected:
                return f"bounds({p},{q}): got {got}, want {expected}"
            if genus["lower"] > genus["upper"] or dalt["lower"] > dalt["upper"]:
                return f"bounds({p},{q}): inverted bracket"
            return None

        return check

    def make_round(self) -> list[Request]:
        return [
            Request("bounds", lambda p=p, q=q: bounds_module.bounds_report(p, q), self._checker(p, q))
            for p, q in self._pairs()
        ]


# ----------------------------------------------------------------------
# cli: one cold process per request


_DALT = re.compile(r"minimum crossing changes (\d+) \(witness: (.*)\)\n")
_BRACKETS = re.compile(r"turaev genus: \[(\d+), (\d+)\].*\ndealternating: \[(\d+), (\d+)\]", re.S)


def _exact(text: str) -> Callable[[str], str | None]:
    return lambda out: None if out == text else f"printed {out!r}, want {text!r}"


class Cli(Workload):
    """Per round: one each of seven commands, in seeded order.

    Every request is a fresh ``python -m torusknot.cli`` process, so this is
    the only workload that pays interpreter start, the package import and
    argument parsing.  The PD files for ``turaev-genus --pd`` are written
    during set-up.
    """

    name = "cli"
    trace_rounds = 2
    calibration = "process"
    calibration_share = 0.5

    def __init__(self, seed: int, root: Path, smoke: bool):
        super().__init__(seed, root, smoke)
        self.scratch = root / ".bench_build" / "bench" / f"cli-{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        self.pd_files = []
        for i in range(4):
            strands = self.rng.randint(3, 5)
            letters = oracle.random_word(strands, self.rng.randint(10, 30), self.rng)
            path = self.scratch / f"diagram{i}.json"
            path.write_text(json.dumps(oracle.pd_document(strands, letters)), encoding="utf-8")
            self.pd_files.append((path, strands, letters))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.spans = self.scratch / "spans.json"

    def close(self) -> None:
        for path, _, _ in self.pd_files:
            path.unlink(missing_ok=True)
        self.spans.unlink(missing_ok=True)
        self.scratch.rmdir()

    def _tabulated(self) -> tuple[int, int]:
        p = self.rng.choice((4, 5, 6))
        return p, p * self.rng.randint(1, 4) + self.rng.choice(oracle.TABULATED_RESIDUES[p])

    def _commands(self) -> list[tuple[list[str], Callable[[str], str | None]]]:
        rng = self.rng
        commands = []

        p = rng.randint(2, 9)
        q = rng.choice([q for q in range(p + 1, 61) if math.gcd(p, q) == 1])
        commands.append((["alexander", p, q], _exact(oracle.alexander_text(p, q) + "\n")))

        p = rng.randint(2, 9)
        q = rng.choice([q for q in range(p + 1, 61) if math.gcd(p, q) == 1])
        top, bottom, w = oracle.width(p, q)
        want = {"delta_max": top, "delta_min": bottom, "width": w}
        commands.append(
            (
                ["width", p, q, "--json"],
                lambda out, want=want: None if json.loads(out) == want else f"{out!r} != {want}",
            )
        )

        strands = rng.randint(3, 6)
        letters = oracle.random_word(strands, rng.randint(10, 30), rng)
        other = oracle.artin_rewrite(letters, rng, 4 * len(letters))
        commands.append(
            (
                ["braid-eq", "--strands", strands, "".join(map(str, letters)), "".join(map(str, other))],
                _exact("equal\n"),
            )
        )

        p, q = self._tabulated()

        def check_dalt(out: str, want=oracle.tabulated_uppers(p, q)[1]) -> str | None:
            match = _DALT.fullmatch(out)
            if not match:
                return f"unparsed dalt output {out!r}"
            witness = [x for x in match.group(2).split(", ") if x != "none needed"]
            if int(match.group(1)) != want or len(witness) != want:
                return f"dalt printed {out!r}, want {want} changes"
            return None

        commands.append((["dalt", "--tabulated", p, q], check_dalt))

        path, strands, letters = rng.choice(self.pd_files)
        genus, s_a, s_b = oracle.turaev_genus(strands, letters)
        commands.append(
            (
                ["turaev-genus", "--pd", str(path)],
                _exact(f"turaev genus {genus} (c = {len(letters)}, s_A = {s_a}, s_B = {s_b})\n"),
            )
        )

        p, q = rng.randint(2, 6), rng.randint(2, 30)
        letters = oracle.torus_letters(p, q)
        circles = oracle.state_circles(p, letters, "B")
        commands.append(
            (
                ["states", "--torus", p, q, "--assignment", "all-B"],
                _exact(f"{circles} components under {'B' * len(letters)}\n"),
            )
        )

        p, q = self._tabulated()
        lower = oracle.width(p, q)[2] - 1 if oracle.is_knot(p, q) else 0
        want_brackets = (lower, oracle.tabulated_uppers(p, q)[0], lower, oracle.tabulated_uppers(p, q)[1])

        def check_bounds(out: str, want=want_brackets) -> str | None:
            match = _BRACKETS.match(out)
            got = tuple(int(x) for x in match.groups()) if match else None
            return None if got == want else f"bounds printed {out!r}, want brackets {want}"

        commands.append((["bounds", p, q], check_bounds))
        rng.shuffle(commands)
        return [([str(x) for x in argv], check) for argv, check in commands]

    def make_round(self) -> list[Request]:
        requests = []
        for argv, check in self._commands():

            def checked(done, check=check) -> str | None:
                if done.returncode != 0 or done.stderr:
                    return f"exit {done.returncode}: {done.stderr.strip()[-300:]}"
                return check(done.stdout)

            command = [sys.executable, "-m", "torusknot.cli", *argv]
            requests.append(Request(argv[0], partial(self._run, command), checked, argv=argv))
        return requests

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            argv, env=self.env, cwd=self.root, capture_output=True, text=True, timeout=60
        )

    def call(self, request: Request, tracer=None) -> object:
        if tracer is None:
            return request.call()
        script = str(Path(__file__).with_name("tracer.py"))
        done = self._run([sys.executable, script, str(self.spans), *request.argv])
        tracer.absorb(json.loads(self.spans.read_text(encoding="utf-8")))
        return done

    def trace_extra(self) -> dict:
        """Cold-start split: bare interpreter, package import, module count."""
        def cold(code: str) -> tuple[float, str]:
            start = time.perf_counter()
            done = self._run([sys.executable, "-c", code])
            elapsed = time.perf_counter() - start
            if done.returncode != 0:
                raise RuntimeError(f"{code!r} failed: {done.stderr.strip()[-300:]}")
            return elapsed, done.stdout

        bare, imported = [], []
        for _ in range(5):
            bare.append(cold("pass")[0])
            imported.append(cold("import torusknot.cli")[0])
        modules, numpy_loaded = cold(
            "import sys, torusknot.cli; print(len(sys.modules), int('numpy' in sys.modules))"
        )[1].split()
        return {
            "interpreter_s": bare,
            "import_s": imported,
            "modules_loaded": int(modules),
            "numpy_loaded": int(numpy_loaded),
            "workers": 1,
        }


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


WORKLOADS = {cls.name: cls for cls in (Scan, Braid, Bounds, Cli)}
