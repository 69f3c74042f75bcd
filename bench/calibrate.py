"""Host-speed calibration: fixed work that never touches the package.

On a shared host the speed of one core drifts by a quarter or more over
minutes and drops for seconds at a time, so two runs of the same code can
differ more than any bound worth setting.  Each run therefore interleaves
its rounds of requests with samples of a fixed reference task and reports
the times of round k scaled to a nominal host speed::

    reported = measured * REFERENCE_S / mean(reference samples of rounds k-2 .. k+2)

The reference tasks use only the standard library, numpy and
:mod:`oracle`, never ``torusknot``, so a change to the package moves the
reported times exactly as it moves the measured ones; only the host's speed
cancels.  They run in a process of their own (:class:`Reference`), so the
memory and state the workload builds up cannot change how fast they run.
There are two tasks, each matched to the work it calibrates:

* ``python`` runs in the reference process, for the in-process workloads:
  exact integer semigroup expansions, union-find state counts, braid-word
  rewriting and small numpy array operations, the same kinds of work the
  package does.
* ``process`` starts a cold interpreter that imports numpy, argparse and
  json, for the ``cli`` workload and for set-up time, which are dominated by
  process start and imports.

``REFERENCE_S`` holds the typical time of each task on the machine the
first numbers in ``bench/README.md`` come from; it only fixes the unit.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle

REFERENCE_S = {"python": 0.0145, "process": 0.2200}

_PAIRS = ((5, 23), (7, 30), (4, 41), (6, 35), (3, 61), (8, 45), (9, 38), (5, 72))
_CLOSURES = ((3, 7), (4, 9), (5, 6), (3, 25), (4, 17), (6, 11))


def python_task() -> int:
    """One sample of in-process reference work; returns a checksum."""
    total = 0
    for p, q in _PAIRS:
        total += oracle.width(p, q)[2]
    for p, q in _CLOSURES:
        total += oracle.turaev_genus(p, oracle.torus_letters(p, q))[0]
    rng = random.Random(7)
    for _ in range(8):
        letters = oracle.random_word(5, 80, rng)
        total += sum(oracle.artin_rewrite(letters, rng, 320))
    for n in range(40, 640):
        a = np.arange(n, dtype=np.int64) % 7 - 3
        total += int(np.flatnonzero(np.cumsum(a[::-1])[::-1]).size)
    return total


def process_task() -> None:
    """One sample of cold-process reference work."""
    done = subprocess.run(
        [sys.executable, "-c", "import numpy, argparse, json"], capture_output=True, timeout=60
    )
    if done.returncode != 0:
        raise RuntimeError(f"reference process failed: {done.stderr.decode()[-300:]}")


TASKS = {"python": python_task, "process": process_task}


def timed(task) -> float:
    start = time.perf_counter()
    task()
    return time.perf_counter() - start


class Reference:
    """A process that runs one reference task each time it is asked.

    Close it (or use it as a context manager) to stop the process.
    """

    WARM_UP = 3  # samples taken and dropped at start

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.proc = subprocess.Popen(
            [sys.executable, __file__, kind], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, cwd=Path(__file__).parent,
        )
        for _ in range(self.WARM_UP):
            self.sample()

    def sample(self) -> float:
        """Seconds one run of the task took, timed inside the reference process."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process exited with code {self.proc.wait()}")
        return float(line)

    def close(self) -> None:
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serve(kind: str) -> None:
    task = TASKS[kind]
    for _ in sys.stdin:
        print(repr(timed(task)), flush=True)


if __name__ == "__main__":
    _serve(sys.argv[1])
