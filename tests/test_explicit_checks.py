"""Invariant checks that must survive ``python -O``, which strips ``assert``."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = r'''
import sys

assert False, "only reached without -O"
if not sys.flags.optimize:
    raise SystemExit("not running under -O")

import importlib

bounds = importlib.import_module("torusknot.bounds")  # the package re-exports bounds()
diagram = importlib.import_module("torusknot.diagram")
from torusknot.diagram import MalformedPDCode, closure_diagram, import_pd
from torusknot.words import torus_braid_word
from torusknot.hfk import NotLSpaceForm, Staircase, extract_staircase
from torusknot.laurent import LaurentPolynomial


def expect(error, call, label):
    try:
        call()
    except error:
        print("fired", label)
    else:
        raise SystemExit(f"{label}: no {error.__name__}")


expect(ValueError, lambda: Staircase(()), "staircase length")
expect(ValueError, lambda: Staircase((1, 2)), "staircase start")
for terms in ({-1: 1, 0: -2, 1: 1}, {-1: 1, 0: -1, 2: 1}, {-1: -1, 0: 1, 1: -1}):
    expect(
        NotLSpaceForm,
        lambda: extract_staircase(LaurentPolynomial.from_terms(terms)),
        f"L-space form {terms}",
    )
expect(MalformedPDCode, lambda: import_pd('{"crossings": [[1, 2, 1, 2, "+"]]}'), "pd planarity")
# The same crossing built directly, past import_pd's planarity check.
non_planar = diagram.Diagram(["+"], [1, 2, 1, 2])
expect(MalformedPDCode, lambda: diagram.turaev_genus_diagram(non_planar), "turaev parity")
diagram._witness_alternates = lambda cycles, witness: False
expect(
    RuntimeError,
    lambda: diagram.dealternating_number_diagram(closure_diagram(torus_braid_word(3, 4))),
    "alternation witness",
)
expect(ValueError, lambda: bounds._best([], len), "empty diagram pool")
hfk = importlib.import_module("torusknot.hfk")
hfk._recounts = lambda p, q, at: (0, 0, 0)  # wrong past 0: a recount contradicts the walk
expect(RuntimeError, lambda: hfk.width_torus(4, 5), "width certificate")
'''


def test_checks_fire_under_python_dash_O():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr + done.stdout
    assert done.stdout.count("fired") == 10, done.stdout
