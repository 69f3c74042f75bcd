"""One workload process: set up, report ready, then measure or trace.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Protocol on stdout, one JSON object per line: a ready line once
the package is imported and the inputs exist, then, after the parent writes
``go`` to stdin, the result line.  The parent writes ``quit`` instead to a
process it started only to time set-up.  Everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _setup(args: argparse.Namespace):
    import torusknot

    package = Path(torusknot.__file__).resolve()
    if not package.is_relative_to(ROOT / "src"):
        raise SystemExit(f"torusknot imported from {package}, not from {ROOT / 'src'}")
    import numpy
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, ROOT, args.smoke)
    return workload, {"python": sys.version.split()[0], "numpy": numpy.__version__}


def _timed(workload, request, tracer=None) -> tuple[float, tuple]:
    """Run one request; returns its latency and (request, result, error)."""
    start = time.perf_counter()
    try:
        result, error = workload.call(request, tracer), None
    except Exception as exc:  # a raising request is a failed request
        result, error = None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, (request, result, error)


def _execute(workload, requests) -> tuple[list[float], list]:
    """Run requests in order, untraced; returns latencies and outcomes."""
    timed = [_timed(workload, request) for request in requests]
    return [t for t, _ in timed], [o for _, o in timed]


def _failures(outcomes) -> list[str]:
    """Check answers after timing; an exception or a wrong answer fails."""
    failed = []
    for request, result, error in outcomes:
        if error is None:
            try:
                error = request.check(result)
            except Exception as exc:  # an answer the check cannot read is wrong
                error = f"unreadable answer {result!r}: {type(exc).__name__}: {exc}"
        if error is not None:
            failed.append(f"{request.kind}: {error}")
    return failed


def measure(workload, seconds: float) -> dict:
    """Whole rounds, closed loop, for ``seconds`` seconds.

    After each round the host speed is sampled with the workload's reference
    task until the samples have taken ``calibration_share`` of the round's
    time (see :mod:`calibrate`); the samples are not part of any round.
    Latencies and reference samples are kept per round.
    """
    from calibrate import Reference

    latencies, outcomes, round_walls, round_items, calibration = [], [], [], [], []
    with Reference(workload.calibration) as reference:
        start_phase = time.perf_counter()
        while not round_walls or time.perf_counter() - start_phase < seconds:
            requests = workload.make_round()
            start = time.perf_counter()
            lat, out = _execute(workload, requests)
            round_walls.append(time.perf_counter() - start)
            latencies.append(lat)
            outcomes += out
            round_items.append(sum(r.items for r in requests))
            samples = []
            while sum(samples) < workload.calibration_share * round_walls[-1]:
                samples.append(reference.sample())
            calibration.append(samples)
        # Read while the reference process still runs, so that it and its
        # children are not counted among the cli workload's children.
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
        )
    return {
        "latencies": latencies,
        "round_walls": round_walls,
        "round_items": round_items,
        "calibration": calibration,
        "calibration_kind": workload.calibration,
        "attempted": len(outcomes),
        "failed": _failures(outcomes),
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "workers": 1,
    }


def trace(workload) -> dict:
    """A fixed set of rounds: once to warm up, then each request untraced and
    traced back to back, the order alternating, so the overhead ratio
    compares calls made under the same machine conditions."""
    from tracer import Tracer, calls_under

    requests = [r for _ in range(workload.trace_rounds) for r in workload.make_round()]
    _, outcomes = _execute(workload, requests)
    untraced, traced = [], []
    tracer = Tracer()
    for i, request in enumerate(requests):
        tracer.request = i
        for with_tracer in (False, True) if i % 2 == 0 else (True, False):
            if with_tracer:
                with tracer:
                    latency, outcome = _timed(workload, request, tracer)
                traced.append(latency)
            else:
                latency, outcome = _timed(workload, request)
                untraced.append(latency)
            outcomes.append(outcome)
    # Last, because a forked pool would leave later calls paying
    # copy-on-write faults.
    extra = workload.trace_extra()
    dump = ROOT / ".bench_build" / "bench" / f"spans-{workload.name}.json"
    tracer.dump(str(dump))
    stats = tracer.stats()
    return {
        "stats": {name: vars(s) for name, s in stats.items()},
        "missing": tracer.missing,
        "normal_forms_in_cyclic": calls_under(tracer.spans, "braid.normal_form", "braid.cyclically_equal"),
        "untraced_s": sum(untraced),
        "traced_s": sum(traced),
        "untraced_latencies": untraced,
        "requests": len(requests),
        "items": sum(r.items for r in requests),
        "extra": extra,
        "attempted": len(outcomes),
        "failed": _failures(outcomes),
        "workers": extra.get("workers", 1),
        "spans_file": str(dump.relative_to(ROOT)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    (ROOT / ".bench_build" / "bench").mkdir(parents=True, exist_ok=True)
    workload, versions = _setup(args)
    try:
        print(json.dumps({"ready": True, **versions}), flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        if args.mode == "measure":
            result = measure(workload, args.seconds)
        else:
            result = trace(workload)
        print(json.dumps(result), flush=True)
    finally:
        if hasattr(workload, "close"):
            workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
