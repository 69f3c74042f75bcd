"""The package namespace: its exported names, loaded on first use."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torusknot

# The package's exports, as listed before the namespace became lazy, less
# the removed permutation_cycles.
_EXPORTED = [
    "BoundBracket", "BraidWord", "CheckResult", "ConjectureViolation",
    "ConstraintComponent", "DaltReport", "Diagram", "DisconnectedDiagram",
    "InconsistentConstraints", "IndexOutOfRange", "KnotTooLarge", "KnownUpper", "LaurentPolynomial", "LemmaCheck",
    "MalformedPDCode", "NonExactDivision", "NormalForm", "NotCoprime",
    "NotLSpaceForm", "ParseError", "SearchBudgetExceeded", "Staircase",
    "StrandMismatch", "TorusFamily", "UnknownMacro", "UnsupportedFamily",
    "UnsupportedTorusFamily", "WidthReport", "WordTooLong", "__version__",
    "alexander_closed_form", "alexander_torus", "all_a", "all_b", "bounds",
    "bounds_report", "brute_force_dealternating", "change_crossings",
    "closure_diagram", "cyclically_equal", "dealternating_number_diagram",
    "delta_sequence", "export_pd", "extract_staircase", "hfk_from_staircase",
    "import_pd", "is_alternating", "known_dealternating_upper", "lemma_word",
    "normal_form", "normalize_torus_params", "parse_braid",
    "run_checks", "scan_conjecture",
    "state_components", "torus_braid_word", "turaev_genus_diagram",
    "underlying_permutation", "verify_lemmas", "width_formula", "width_torus",
    "words_equal",
]
# The submodules that define exports, which dir() lists as before; the
# package attribute ``bounds`` is the function, not the submodule.
_SUBMODULES = [
    "alexander", "bounds", "braid", "diagram", "hfk", "laurent", "verify", "words"
]


def _fresh(code: str) -> object:
    """Run ``code`` in a new interpreter; return what it printed, as JSON."""
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), os.environ.get("PYTHONPATH")]
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_exported_names_are_unchanged():
    assert sorted(torusknot.__all__) == _EXPORTED
    assert len(set(torusknot.__all__)) == 62


def test_dir_lists_the_same_public_names():
    public = _fresh(
        "import json, torusknot\n"
        "print(json.dumps([n for n in dir(torusknot) if not n.startswith('_')]))"
    )
    exported = [name for name in _EXPORTED if name != "__version__"]
    assert public == sorted(set(exported) | set(_SUBMODULES))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from torusknot import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == _EXPORTED
    for name, value in namespace.items():
        assert value is getattr(torusknot, name)


def test_exports_are_the_defining_modules_values():
    for name in torusknot.__all__[1:]:
        module = sys.modules[getattr(torusknot, name).__module__]
        assert getattr(module, name) is getattr(torusknot, name)


def test_submodule_imports_still_work():
    from torusknot import alexander, braid, diagram, hfk, laurent, verify

    for module in (alexander, braid, diagram, hfk, laurent, verify):
        assert module is sys.modules[module.__name__]
        assert getattr(torusknot, module.__name__.rpartition(".")[2]) is module
    import torusknot.verify as verify_module

    assert verify_module is verify
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        torusknot.no_such_name


@pytest.mark.parametrize(
    "first",
    [
        "import torusknot.cli; torusknot.cli.main(['bounds', '4', '5'])",
        "importlib.import_module('torusknot.bounds')",
        "import torusknot.bounds",
        "torusknot.bounds_report(4, 5)",
        "torusknot.bounds",
        "from torusknot import *",
    ],
)
def test_bounds_is_the_function_in_every_import_order(first):
    kinds = _fresh(
        "import importlib, io, json, sys, contextlib, torusknot\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    {first}\n"
        "from torusknot import bounds\n"
        "module = importlib.import_module('torusknot.bounds')\n"
        "print(json.dumps([\n"
        "    torusknot.bounds is module.bounds,\n"
        "    bounds is module.bounds,\n"
        "    sys.modules['torusknot.bounds'] is module,\n"
        "    type(module).__name__,\n"
        "]))"
    )
    assert kinds == [True, True, True, "module"]


def test_import_torusknot_loads_no_submodule():
    before, after = _fresh(
        "import json, sys, torusknot\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('torusknot.'))\n"
        "before = loaded()\n"
        "torusknot.hfk.width_torus  # a submodule attribute loads that submodule\n"
        "print(json.dumps([before, loaded()]))"
    )
    assert before == []
    assert after == ["torusknot._gate", "torusknot.hfk"]


def test_hfk_loads_no_polynomial_code():
    # widths need no Laurent polynomial: importing hfk loads the (p, q) gate
    # alone, and width_formula loads the closed-form table when it is called
    before, after = _fresh(
        "import json, sys, torusknot.hfk\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('torusknot.'))\n"
        "before = loaded()\n"
        "torusknot.hfk.width_formula(4, 5)\n"
        "print(json.dumps([before, loaded()]))"
    )
    assert before == ["torusknot._gate", "torusknot.hfk"]
    assert after == [
        "torusknot._gate", "torusknot.alexander", "torusknot.hfk", "torusknot.laurent"
    ]


def test_tracer_targets_resolve_to_package_callables(monkeypatch):
    # bench/tracer.py reports a target it cannot find as missing instead of
    # failing, so a rename here would silently blank a per-layer metric.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look it up
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for name, module_name, attribute, _ in tracer.TARGETS:
        assert module_name.startswith("torusknot."), name
        owner = importlib.import_module(module_name)
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{name}: {module_name}.{attribute} is not a callable"
