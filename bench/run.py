"""Benchmark of the torusknot package: four workloads, end-to-end and per layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --smoke

``--workload all`` runs the four workloads one after another.
``--trace 0`` measures the end-to-end metrics with nothing traced: it times
set-up in several fresh processes, then runs whole rounds of requests in the
last one for ``--seconds`` seconds and checks every answer afterwards.
Every time it reports is scaled to a reference host speed measured during
the run (see ``bench/calibrate.py``).
``--trace 1`` runs a fixed set of rounds in each of two fresh processes, to
warm up, untraced, then traced; it reports the per-layer metrics and fails if
the two processes disagree on any count.  ``--smoke`` runs every workload
at a tiny size in both modes and checks the answers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give every metric with its unit and sample count, the failure ratio, and a
run record (cores, CPU, versions, commit, seed).  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibrate import REFERENCE_S, process_task, timed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("scan", "braid", "bounds", "cli")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Metrics that must come out identical from two traced runs on one seed.
def _is_count(name: str) -> bool:
    return name.endswith((".calls", ".letters", ".crossings")) or name in (
        "hfk.width_calls_per_pair",
        "braid.normal_forms_per_cyclic",
        "cli.modules_loaded",
        "cli.numpy_loaded",
    )


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run or could not be trusted."""


# ----------------------------------------------------------------------
# child processes


def run_child(workload: str, seed: int, seconds: float, mode: str, smoke: bool, go: bool):
    """Start one worker; return (set-up seconds, ready info, result or None).

    Set-up time runs from just before the spawn until the worker's ready
    line.  A worker told ``quit`` exits at once.  A watchdog kills a worker
    that outlives ``CHILD_TIMEOUT_S``.
    """
    command = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ] + (["--smoke"] if smoke else [])
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    start = time.perf_counter()
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if not ready:
            raise BenchmarkError(f"{workload} worker exited during set-up (code {proc.wait()})")
        proc.stdin.write("go\n" if go else "quit\n")
        proc.stdin.close()
        rest = proc.stdout.read().strip()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if code != 0:
        raise BenchmarkError(f"{workload} worker exited with code {code}")
    result = json.loads(rest.splitlines()[-1]) if go else None
    return setup_s, json.loads(ready), result


# ----------------------------------------------------------------------
# end-to-end metrics


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond it.

    With fewer than eleven samples there is no such percentile; the maximum
    is reported as the 100th.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


# Rounds on each side of a round whose reference samples scale its times:
# wide enough to average the samples, narrow enough to follow a burst of
# host load that lasts a few seconds.
WINDOW = 2


def scales(kind: str, calibration: list[list[float]]) -> list[float]:
    """Per round, the factor from its measured times to times at the
    reference host speed, from the reference samples of nearby rounds."""
    out = []
    for k in range(len(calibration)):
        near = [s for samples in calibration[max(0, k - WINDOW):k + WINDOW + 1] for s in samples]
        out.append(REFERENCE_S[kind] / statistics.fmean(near))
    return out


@contextlib.contextmanager
def one_core():
    """Run this process, and the processes it starts meanwhile, on one core.

    The workload and its reference task then share the core whose speed
    the reference measures.
    """
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cores)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cores)


def measure(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """End-to-end metrics; every time is scaled to the reference host speed.

    Set-up is timed in several fresh processes, each right after one sample
    of the cold-process reference task; the last process runs the measured
    phase, which samples its own reference task between rounds.  All of them
    run on one core.
    """
    setups, setup_calibration = [], []
    samples = 1 if smoke else SETUP_SAMPLES
    with one_core():
        for i in range(samples):
            setup_calibration.append(timed(process_task))
            setup_s, versions, result = run_child(
                workload, seed, seconds, "measure", smoke, go=i == samples - 1
            )
            setups.append(setup_s)
    # Each set-up against the reference sample taken just before it.
    setup_scales = [REFERENCE_S["process"] / c for c in setup_calibration]
    round_scales = scales(result["calibration_kind"], result["calibration"])
    walls, items = result["round_walls"], sum(result["round_items"])
    latencies = [t for round_latencies in result["latencies"] for t in round_latencies]
    scaled_latencies = [
        t * scale
        for round_latencies, scale in zip(result["latencies"], round_scales)
        for t in round_latencies
    ]
    scaled_walls = [w * scale for w, scale in zip(walls, round_scales)]
    percentile, tail_s = tail(scaled_latencies)
    raw = {
        "setup_s": statistics.median(setups),
        # Totals over the measured phase, not medians of rounds: the host's
        # speed drifts over seconds, and a mean moves smoothly with the share
        # of slow seconds where a median of rounds jumps.
        "wall_s": sum(walls) / len(walls),
        "items_per_s": items / sum(walls),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail(latencies)[1],
    }
    metrics = {
        "setup_s": statistics.median(s * scale for s, scale in zip(setups, setup_scales)),
        "wall_s": sum(scaled_walls) / len(walls),
        "items_per_s": items / sum(scaled_walls),
        "latency_p50_ms": 1000 * statistics.median(scaled_latencies),
        "latency_tail_ms": 1000 * tail_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    counts = {
        "setup_s": len(setups),
        "wall_s": len(walls),
        "items_per_s": sum(result["round_items"]),
        "latency_p50_ms": len(latencies),
        "latency_tail_ms": len(latencies),
        "peak_rss_mb": 1,
    }
    return {
        "metrics": {k: (v, END_TO_END[k]) for k, v in metrics.items()},
        "samples": counts,
        "notes": {
            "latency_p50_ms": f"raw {raw['latency_p50_ms']:.6g}",
            "latency_tail_ms": f"p{percentile:.1f} of {len(latencies)} requests, "
            f"raw {raw['latency_tail_ms']:.6g}",
            "wall_s": f"measured phase / {len(walls)} rounds, raw {raw['wall_s']:.6g}",
            "items_per_s": f"over {sum(walls):.1f} s, raw {raw['items_per_s']:.6g}",
            "setup_s": f"median of {len(setups)} fresh processes, raw {raw['setup_s']:.6g}",
        },
        "speed": {
            "setup": statistics.fmean(setup_scales),
            "run": statistics.fmean(round_scales),
            "run_samples": sum(map(len, result["calibration"])),
            "kind": result["calibration_kind"],
        },
        "attempted": result["attempted"],
        "failed": result["failed"],
        "versions": versions,
        "workers": result["workers"],
    }


# ----------------------------------------------------------------------
# per-layer metrics


_CALLS_AND_SELF = (
    "laurent.exact_div", "laurent.mul", "alexander.alexander_torus",
    "hfk.hfk_from_staircase", "braid.normal_form", "diagram.closure_diagram",
    "diagram.state_components", "diagram.change_crossings", "bounds.bounds",
)
_SELF_ONLY = (
    "hfk.extract_staircase", "hfk.delta_sequence", "diagram.turaev_genus_diagram",
    "diagram.dealternating_number_diagram", "braid.lemma_word",
)
_CALLS_AND_TOTAL = ("hfk.width_torus", "braid.words_equal", "braid.cyclically_equal")
_DIAGRAM = (
    "diagram.closure_diagram", "diagram.state_components", "diagram.turaev_genus_diagram",
    "diagram.dealternating_number_diagram", "diagram.change_crossings",
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(workload: str, child: dict) -> dict[str, tuple[float | None, str]]:
    """Per-layer metrics of one traced process; None marks a missing source.

    A layer the workload does not reach reports 0.
    """
    stats, missing, extra = child["stats"], set(child["missing"]), child["extra"]
    out: dict[str, tuple[float | None, str]] = {}

    def put(name: str, unit: str, value: float, *sources: str) -> None:
        out[name] = (None if missing.intersection(sources) else value, unit)

    def seconds(name: str, key: str) -> float:
        return stats[name][key] / 1e9

    for name in _CALLS_AND_SELF:
        put(f"{name}.calls", "count", stats[name]["calls"], name)
        put(f"{name}.self_s", "s", seconds(name, "self_ns"), name)
    for name in _SELF_ONLY:
        put(f"{name}.self_s", "s", seconds(name, "self_ns"), name)
    for name in _CALLS_AND_TOTAL:
        put(f"{name}.calls", "count", stats[name]["calls"], name)
        put(f"{name}.total_s", "s", seconds(name, "total_ns"), name)

    width = "hfk.width_torus"
    scan = workload == "scan"
    pairs = child["items"] if scan else 0
    put("hfk.width_calls_per_pair", "ratio", _ratio(stats[width]["calls"], pairs), width)
    serial = statistics.median(child["untraced_latencies"]) if scan else 0.0
    jobs_s = extra.get("scan_jobs_s", 0.0)
    speedup = _ratio(serial, jobs_s)
    put("hfk.scan.serial_s", "s", serial)
    put("hfk.scan.jobs_s", "s", jobs_s)
    put("hfk.scan.jobs_speedup", "ratio", speedup)
    put("hfk.scan.jobs_efficiency", "ratio", _ratio(speedup, extra.get("workers", 0) * scan))

    nf, cyc = "braid.normal_form", "braid.cyclically_equal"
    letters = stats[nf]["amount"]
    put(f"{nf}.letters", "count", letters, nf)
    put(f"{nf}.letters_per_s", "1/s", _ratio(letters, seconds(nf, "self_ns")), nf)
    put(
        "braid.normal_forms_per_cyclic", "ratio",
        _ratio(child["normal_forms_in_cyclic"], stats[cyc]["calls"]), nf, cyc,
    )

    closure = "diagram.closure_diagram"
    crossings = stats[closure]["amount"]
    put(f"{closure}.crossings", "count", crossings, closure)
    busy = sum(seconds(name, "self_ns") for name in _DIAGRAM)
    put("diagram.crossings_per_s", "1/s", _ratio(crossings, busy), *_DIAGRAM)

    if workload == "cli":
        bare = statistics.median(extra["interpreter_s"])
        imported = statistics.median(extra["import_s"])
        command = statistics.median(child["untraced_latencies"])
        put("cli.interpreter_s", "s", bare)
        put("cli.import_s", "s", imported - bare)
        put("cli.command_s", "s", command - imported)
        put("cli.modules_loaded", "count", extra["modules_loaded"])
        put("cli.numpy_loaded", "flag", extra["numpy_loaded"])
    else:
        for name, unit in (("interpreter_s", "s"), ("import_s", "s"), ("command_s", "s"),
                           ("modules_loaded", "count"), ("numpy_loaded", "flag")):
            put(f"cli.{name}", unit, 0)
    put("trace.overhead_ratio", "ratio", child["traced_s"] / child["untraced_s"] - 1)
    return out


def trace(workload: str, seed: int, smoke: bool) -> dict:
    children = []
    for _ in range(2):
        _, versions, result = run_child(workload, seed, 0, "trace", smoke, go=True)
        children.append(result)
    first, second = (layer_metrics(workload, c) for c in children)
    differing = [
        f"{name}: {first[name][0]} then {second[name][0]}"
        for name in first
        if _is_count(name) and first[name][0] != second[name][0]
    ]
    metrics = {}
    for name, (value, unit) in first.items():
        if value is not None and not _is_count(name):
            value = (value + second[name][0]) / 2
        metrics[name] = (value, unit)
    return {
        "metrics": metrics,
        "samples": {name: 2 for name in metrics},
        "record_samples": {"traced_processes": 2, "requests_per_pass": children[0]["requests"]},
        "notes": {},
        "spans_file": children[-1]["spans_file"],
        "attempted": sum(c["attempted"] for c in children),
        "failed": [f for c in children for f in c["failed"]],
        "differing_counts": differing,
        "missing": sorted(set(children[0]["missing"])),
        "versions": versions,
        "workers": max(c["workers"] for c in children),
    }


# ----------------------------------------------------------------------
# run record and output


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform

    return platform.processor() or "unknown"


def run_record(workload: str, seed: int, outcome: dict) -> dict:
    cores = len(os.sched_getaffinity(0))
    if outcome["workers"] > cores:
        raise BenchmarkError(
            f"{workload} started {outcome['workers']} workers on {cores} usable cores"
        )
    return {
        "usable_cores": cores,
        "cpu_model": _cpu_model(),
        "python": outcome["versions"]["python"],
        "numpy": outcome["versions"]["numpy"],
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "workload": workload,
        "samples": outcome.get("record_samples", outcome["samples"]),
        "max_workers": outcome["workers"],
    }


def _number(value: float | None) -> str:
    return "missing" if value is None else f"{value:.6g}"


def report(workload: str, seed: int, outcome: dict) -> dict:
    """Print the readable report and return the final result object."""
    failed = outcome["failed"]
    attempted = outcome["attempted"]
    for line in failed[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {workload} (seed {seed})")
    for name, (value, unit) in outcome["metrics"].items():
        note = outcome["notes"].get(name, "")
        samples = outcome["samples"][name]
        print(f"  {name:<42} {_number(value):>14} {unit:<6} n={samples} {note}".rstrip())
    print(f"  {'fail_ratio':<42} {len(failed) / attempted:>14.6g} ratio  "
          f"n={attempted} ({len(failed)} failed)")
    if "speed" in outcome:
        scale = outcome["speed"]
        print(f"  times scaled to the reference host speed: measured x {scale['run']:.4f} "
              f"on average ({scale['run_samples']} {scale['kind']} reference samples), "
              f"set-up x {scale['setup']:.4f}")
    if "spans_file" in outcome:
        print(f"  timings: mean of two traced processes; spans in {outcome['spans_file']}")
    for name in outcome.get("missing", []):
        print(f"  missing target: {name}")
    for line in outcome.get("differing_counts", []):
        print(f"  COUNT DIFFERS between traced runs: {line}", file=sys.stderr)
    print("run record: " + json.dumps(run_record(workload, seed, outcome), sort_keys=True))
    metrics = {}
    for name, (value, unit) in outcome["metrics"].items():
        metrics[name] = {"value": value, "unit": unit}
        if value is None:
            metrics[name]["missing"] = True
    return {
        "correct": not failed and not outcome.get("differing_counts"),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }


def _declared(kind: str) -> list[str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in declared[kind]]


def smoke() -> int:
    """Every workload at a tiny size, both modes; answers and names checked."""
    ok = True
    for workload in WORKLOADS:
        for kind, outcome in (
            ("end_to_end", measure(workload, 1, 0, True)),
            ("per_layer", trace(workload, 1, True)),
        ):
            result = report(workload, 1, outcome)
            names = list(result["metrics"])
            if sorted(names) != sorted(_declared(kind)):
                print(f"{workload}: metric names differ from BENCHMARK.json {kind}", file=sys.stderr)
                ok = False
            ok = ok and result["correct"]
    print("smoke run " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args()
    if not (ROOT / "src" / "torusknot" / "__init__.py").is_file():
        print(f"error: no torusknot package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results, differing = {}, False
        for name in names:
            if args.trace:
                outcome = trace(name, args.seed, False)
            else:
                outcome = measure(name, args.seed, args.seconds, False)
            results[name] = report(name, args.seed, outcome)
            differing = differing or bool(outcome.get("differing_counts"))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[args.workload]
    else:  # all workloads in one object, metrics prefixed by workload
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
