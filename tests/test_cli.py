"""Command-line interface: output documents and exit codes."""

import argparse
import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from torusknot.cli import main
from torusknot.diagram import closure_diagram, export_pd
from torusknot.words import torus_braid_word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def test_alexander_text_and_json(capsys):
    code, out, _ = run(capsys, "alexander", "4", "5")
    assert code == 0
    assert out.strip() == "t^{-6}-t^{-5}+t^{-2}-1+t^2-t^5+t^6"
    code, document, _ = run_json(capsys, "alexander", "4", "5")
    assert code == 0
    assert document["polynomial"] == "t^{-6}-t^{-5}+t^{-2}-1+t^2-t^5+t^6"
    assert document["coefficients"]["-6"] == 1
    assert document["coefficients"]["0"] == -1


def test_alexander_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "alexander", "4", "6")
    assert code == 2
    assert out == ""
    assert "error:" in err and "gcd" in err


def test_width_json_document_is_exact(capsys):
    code, document, _ = run_json(capsys, "width", "4", "5")
    assert code == 0
    assert document == {"delta_max": 6, "delta_min": 4, "width": 3}


def test_hfk_table_layout(capsys):
    code, out, _ = run(capsys, "hfk", "2", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["s", "m", "rank"]
    assert lines[1].split() == ["1", "0", "1"]
    assert lines[-1].startswith("width 1")


def test_scan_clean_and_json(capsys):
    code, out, _ = run(capsys, "scan", "--bound", "40")
    assert code == 0
    assert "0 violations" in out
    code, document, _ = run_json(capsys, "scan", "--bound", "40")
    assert code == 0
    assert document["violations"] == []
    assert document["pairs_checked"] > 0


def test_braid_eq_exit_codes(capsys):
    code, out, _ = run(capsys, "braid-eq", "--strands", "3", "121", "212")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "braid-eq", "--strands", "3", "12", "21")
    assert code == 1 and out.strip() == "not equal"
    code, out, _ = run(
        capsys, "braid-eq", "--strands", "4", "--cyclic", "123", "231"
    )
    assert code == 0 and "cyclically equal" in out
    code, _, err = run(capsys, "braid-eq", "--strands", "3", "1x", "11")
    assert code == 2 and "error:" in err


def test_verify_lemmas_cli(capsys):
    code, document, _ = run_json(capsys, "verify-lemmas", "--n-max", "1")
    assert code == 0
    assert len(document) == 11
    assert all(entry["passed"] for entry in document)


def test_turaev_genus_sources(capsys):
    code, document, _ = run_json(capsys, "turaev-genus", "--tabulated", "6", "6")
    assert code == 0
    assert document == {"crossings": 30, "s_A": 6, "s_B": 14, "turaev_genus": 6}
    code, document, _ = run_json(capsys, "turaev-genus", "--strands", "2", "111")
    assert code == 0
    assert document["turaev_genus"] == 0


def test_dalt_from_word_and_pd(capsys, tmp_path):
    code, document, _ = run_json(capsys, "dalt", "--torus", "4", "4")
    assert code == 0
    assert document["minimum_changes"] == 4
    assert document["witness"] == [1, 4, 7, 10]

    pd_file = tmp_path / "d.json"
    pd_file.write_text(export_pd(closure_diagram(torus_braid_word(4, 4))))
    code, document, _ = run_json(capsys, "dalt", "--pd", str(pd_file))
    assert code == 0
    assert document["minimum_changes"] == 4


def test_dalt_requires_a_source(capsys):
    code, _, err = run(capsys, "dalt")
    assert code == 2
    assert "diagram source" in err


def test_dalt_missing_pd_file(capsys):
    code, _, err = run(capsys, "dalt", "--pd", "/no/such/file.json")
    assert code == 2
    assert "error:" in err


def test_states_assignments(capsys):
    code, document, _ = run_json(
        capsys, "states", "--torus", "2", "3", "--assignment", "all-A"
    )
    assert code == 0
    assert document == {"assignment": "AAA", "components": 2}
    code, document, _ = run_json(
        capsys, "states", "--torus", "2", "3", "--assignment", "abb"
    )
    assert code == 0
    assert document["assignment"] == "ABB"
    code, _, err = run(
        capsys, "states", "--torus", "2", "3", "--assignment", "AAAA"
    )
    assert code == 2 and "error:" in err


def test_bounds_cli(capsys):
    code, document, _ = run_json(capsys, "bounds", "4", "5")
    assert code == 0
    assert document["turaev_genus"]["lower"] == 2
    assert document["turaev_genus"]["upper"] == 2
    code, out, _ = run(capsys, "bounds", "6", "7")
    assert code == 0
    assert "turaev genus: [6, 6]" in out
    assert "attained by the generated diagram" in out


def test_verify_paper_single_check(capsys):
    code, document, _ = run_json(
        capsys, "verify-paper", "--only", "golden-alexander"
    )
    assert code == 0
    assert len(document) == 1
    assert document[0]["name"] == "golden-alexander"
    assert document[0]["passed"] is True


def test_verify_paper_text_summary(capsys):
    code, out, _ = run(
        capsys,
        "verify-paper",
        "--only",
        "golden-alexander",
        "--only",
        "golden-hfk",
    )
    assert code == 0
    assert "PASS golden-alexander" in out
    assert "2/2 checks passed" in out


def test_verify_paper_runs_a_repeated_check_once(capsys):
    argv = "verify-paper --only golden-hfk --only golden-alexander --only golden-hfk"
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "PASS golden-hfk",
        "PASS golden-alexander",
    ]
    assert lines[-1] == "2/2 checks passed"


def test_deeply_nested_word_exits_two(capsys):
    deep = "(" * 3000 + "1" + ")" * 3000
    code, out, err = run(capsys, "braid-eq", "--strands", "3", deep, "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "nested too deeply" in err


def test_exhausted_cyclic_search_exits_two(capsys, monkeypatch):
    from torusknot.braid import cyclically_equal

    monkeypatch.setattr(cyclically_equal, "__defaults__", (1,))
    code, out, err = run(capsys, "braid-eq", "--strands", "4", "--cyclic", "112", "111")
    assert code == 2 and out == ""
    assert "error: cyclic-equivalence search exceeded max_states = 1" in err


def test_deeply_nested_pd_file_exits_two(capsys, tmp_path):
    pd_file = tmp_path / "deep.json"
    pd_file.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run(capsys, "dalt", "--pd", str(pd_file))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "nested too deeply" in err
    assert err.count("\n") == 1


def test_non_planar_pd_exits_two(capsys, tmp_path):
    pd_file = tmp_path / "bad.json"
    pd_file.write_text(json.dumps({"crossings": [[1, 2, 1, 2, "+"]]}))
    for command in ("states", "turaev-genus", "dalt"):
        extra = ["--assignment", "all-A"] if command == "states" else []
        code, out, err = run(capsys, command, "--pd", str(pd_file), *extra)
        assert code == 2 and out == ""
        assert "not planar" in err


@pytest.mark.parametrize(
    "field,named",
    [("label", "crossing 0"), ("strands", '"strands"'), ("circles", '"circles"')],
)
def test_boolean_in_pd_exits_two(capsys, tmp_path, field, named):
    from test_diagram import _with_true

    pd_file = tmp_path / "bool.json"
    pd_file.write_text(_with_true(field))
    code, out, err = run(capsys, "dalt", "--pd", str(pd_file))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize(
    "argv,named",
    [
        ("dalt --torus 4 5 --tabulated 4 5", "--tabulated and --torus"),
        ("dalt --strands 3 1212 --torus 4 5", "--torus and --strands"),
        ("turaev-genus --pd x.json --strands 3", "--pd and --strands"),
        ("states --tabulated 4 5 --torus 4 5 --assignment all-A", "--tabulated and --torus"),
        ("dalt --strands 0 --torus 4 5", "--torus and --strands"),
        ("dalt 1212", "'1212' needs --strands"),
        ("turaev-genus --torus 4 5 12", "'12' needs --strands"),
    ],
)
def test_diagram_commands_take_one_source(capsys, argv, named):
    code, out, err = run(capsys, *argv.split())
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err


def test_diagram_commands_name_the_missing_source(capsys):
    code, out, err = run(capsys, "dalt")
    assert (code, out) == (2, "")
    assert err == (
        "error: a diagram source is required: --pd, --tabulated, --torus, "
        "or --strands with a word\n"
    )


def test_non_ascii_digits_exit_two(capsys):
    # fullwidth one and two: str.isdigit accepts them
    code, out, err = run(capsys, "braid-eq", "--strands", "3", "\uff11\uff12", "12")
    assert code == 2 and out == ""
    assert err == "error: unexpected '\uff11' at offset 0\n"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["alexander", "4"])
    assert info.value.code == 2


def test_compact_json_single_line(capsys):
    code, out, _ = run(capsys, "width", "4", "5", "--json", "--compact")
    assert code == 0
    assert out.count("\n") == 1
    assert json.loads(out) == {"delta_max": 6, "delta_min": 4, "width": 3}


@pytest.mark.parametrize(
    "argv",
    [
        "alexander 100000 100001",
        "hfk 100000 100001",
        "width 100000 100001",
        "bounds 100000 100001",
        "braid-eq --strands 2 (1)^99999999999 1",
        "dalt --strands 100000 {delta_p}",
        "states --torus 100000 100001 --assignment all-A",
        "turaev-genus --tabulated 4 40000000001",
        "bounds 4 40000000000",
        "scan --bound 100000",
        "scan --bound 60000",
        "verify-lemmas --n-max 100000",
    ],
)
def test_oversized_inputs_exit_two_before_allocating(capsys, argv):
    # Import what the commands load first: the peak below is the input's alone.
    for name in ("alexander", "bounds", "braid", "diagram", "hfk", "verify"):
        importlib.import_module(f"torusknot.{name}")
    tracemalloc.start()
    try:
        code = main(argv.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "above the cap" in capsys.readouterr().err
    assert peak < 2**20  # bytes: the refusal comes before any big allocation


def test_width_above_the_alexander_cap_answers(capsys):
    # The Alexander cap (p * q <= 2^22) no longer applies to widths.
    from torusknot.hfk import width_formula

    code, out, err = run(capsys, "width", "3000", "3001", "--json", "--compact")
    assert code == 0 and err == ""
    assert json.loads(out)["width"] == width_formula(3000, 3001)
    assert run(capsys, "alexander", "3000", "3001")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        "verify-lemmas --n-max 0",
        "scan --bound -5",
    ],
)
def test_vacuous_verifications_exit_two(capsys, argv):
    # Each of these used to print PASS and exit 0 after checking nothing.
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and ("n_max" in err or "no coprime pair" in err)


@pytest.mark.parametrize("command", ["scan", "verify-paper"])
def test_worker_count_is_no_option(capsys, command):
    # the scan sizes its own pool
    with pytest.raises(SystemExit) as info:
        main([command, "--jobs", "2"])
    assert info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", ["verify-paper --scan-bound 30", "verify-paper --n-max 1"])
def test_verify_paper_has_one_setting(capsys, argv):
    # the paper's checks run as the paper states them; scan --bound and
    # verify-lemmas --n-max run further
    with pytest.raises(SystemExit) as info:
        main(argv.split())
    assert info.value.code == 2
    assert f"unrecognized arguments: {argv.partition(' ')[2]}" in capsys.readouterr().err


# the values that used to fail the parse (exit 2) or be clamped to the cores
@pytest.mark.parametrize("env", ["abc", "2.5", " ", "64"])
def test_jobs_environment_variable_is_ignored(capsys, monkeypatch, inline_pool, env):
    monkeypatch.setenv("TORUSKNOT_JOBS", env)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    code, out, err = run(capsys, "scan", "--bound", "30")
    assert (code, out, err) == (0, "checked 241 coprime pairs below 30: 0 violations\n", "")
    code, out, err = run(capsys, "verify-paper", "--only", "conjecture-scan")
    assert (code, err) == (0, "") and out.startswith("PASS conjecture-scan: 18675 coprime pairs")
    # the scan below 30 runs serially, the one below 250 on both usable cores
    assert inline_pool == [2]


# ----------------------------------------------------------------------
# golden transcript: stdout, stderr and exit code of every subcommand

# Each command runs in text, --json and --json --compact mode.  "{pd}"
# stands for a PD file of the closure of the standard T(3,4) braid.
_TRANSCRIPT_COMMANDS = [
    "alexander 4 5",
    "alexander 4 6",
    "hfk 4 5",
    "hfk 1 3",
    "width 5 7",
    "scan --bound 30",
    "braid-eq --strands 3 121 212",
    "braid-eq --strands 3 12 21",
    "braid-eq --strands 4 --cyclic 123 231",
    "braid-eq --strands 3 1x 11",
    "verify-lemmas --n-max 1",
    "turaev-genus --tabulated 5 7",
    "turaev-genus --pd {pd}",
    "dalt --torus 4 4",
    "dalt --strands 3 1212",
    "dalt",
    "states --torus 2 3 --assignment all-B",
    "states --strands 3 1122 --assignment ABAB",
    "states --torus 2 3 --assignment AAAA",
    "bounds 4 5",
    "bounds 5 7",
    "verify-paper --only width-formulas --only state-counts --only braid-lemmas",
]
_SUBCOMMANDS = [
    "alexander", "hfk", "width", "scan", "braid-eq", "verify-lemmas",
    "turaev-genus", "dalt", "states", "bounds", "verify-paper",
]
# argparse's own exits: no command, an unknown command, an unknown option
# (refused with the top-level usage, which lists every command) and an
# option with no command
_PARSER_CASES = ["", "bogus", "bounds 5 8 --bogus", "--json"]
_TRANSCRIPT_CASES = [
    command + mode
    for command in _TRANSCRIPT_COMMANDS
    for mode in ("", " --json", " --json --compact")
] + ["--help"] + [f"{name} --help" for name in _SUBCOMMANDS] + _PARSER_CASES
_GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")
# verify-paper timings vary from run to run; every other field is pinned.
_SECONDS = re.compile(r'(?<=\()[0-9.]+(?=s\))|(?<="seconds": )[0-9.e-]+')


def _transcript(case: str, pd_path: str) -> dict:
    """Exit code, stdout and stderr of ``torusknot <case>``, timings masked."""
    argv = [pd_path if arg == "{pd}" else arg for arg in case.split()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    return {
        "exit": code,
        "stdout": _SECONDS.sub("<s>", out.getvalue()),
        "stderr": err.getvalue(),
    }


def _write_pd(directory: Path) -> str:
    path = directory / "t34.json"
    path.write_text(export_pd(closure_diagram(torus_braid_word(3, 4))))
    return str(path)


@pytest.fixture(scope="module")
def golden():
    return json.loads(_GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", _TRANSCRIPT_CASES)
def test_golden_transcript(case, golden, monkeypatch, tmp_path):
    argparse_text = "--help" in case or case in _PARSER_CASES
    if argparse_text and golden["python"] != "%d.%d" % sys.version_info[:2]:
        pytest.skip(f"argparse text was recorded under Python {golden['python']}")
    monkeypatch.setenv("COLUMNS", "80")
    assert _transcript(case, _write_pd(tmp_path)) == golden["cases"][case]


# The package needs only the standard library: every command runs with
# numpy blocked.
_NUMPY_FREE = _SUBCOMMANDS
_NUMPY_BLOCKED = """
import json, sys
sys.modules["numpy"] = None  # from here on, every numpy import raises ImportError
import torusknot, torusknot.cli
from test_cli import _transcript
cases, pd_path = json.loads(sys.argv[1]), sys.argv[2]
print(json.dumps({case: _transcript(case, pd_path) for case in cases}))
"""


def test_numpy_free_commands_match_golden(golden, tmp_path):
    cases = [
        case
        for case in _TRANSCRIPT_CASES
        if case.partition(" ")[0] in _NUMPY_FREE
        and "--help" not in case
        and case not in _PARSER_CASES
    ]
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_BLOCKED, json.dumps(cases), _write_pd(tmp_path)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    transcripts = json.loads(done.stdout)
    assert len(cases) == 66  # 22 commands, each in three output modes
    for case in cases:
        assert transcripts[case] == golden["cases"][case], case


# The layer modules each command loads, besides torusknot.cli and its
# body's module: every command imports what it runs when it runs, and
# nothing at start-up.  _gate is the (p, q) gate that every layer shares.
_ALEXANDER = {"alexander", "laurent", "_gate"}
_WIDTH = {"hfk", "_gate"}  # no polynomial
_WORDS = {"words", "_gate"}  # no normal form
_DIAGRAM = _WORDS | {"diagram"}  # a diagram built from a braid word
_BOUNDS = _WIDTH | _DIAGRAM | {"bounds"}
_LOADS = {
    "alexander": _ALEXANDER,
    "hfk": _ALEXANDER | _WIDTH,  # the staircase of alexander_torus
    "width": _WIDTH,
    "scan": _WIDTH,
    "braid-eq": _WORDS | {"braid"},
    "verify-lemmas": _WORDS | {"braid"},
    "turaev-genus": _DIAGRAM,
    "dalt": _DIAGRAM,
    "states": _DIAGRAM,
    "bounds": _BOUNDS,
    "verify-paper": _ALEXANDER | _BOUNDS | {"braid", "verify"},
}
# The module of torusknot.cli that holds each command's body, loaded only
# once the command line has parsed.
_BODIES = {
    "alexander": "_floer",
    "hfk": "_floer",
    "width": "_floer",
    "scan": "_floer",
    "braid-eq": "_braids",
    "verify-lemmas": "_braids",
    "turaev-genus": "_diagrams",
    "dalt": "_diagrams",
    "states": "_diagrams",
    "bounds": "_brackets",
    "verify-paper": "_paper",
}


def _expected_modules(case: str) -> list[str]:
    words = case.split()
    if case in _PARSER_CASES:  # refused before any command runs
        names = set()
    elif "--help" in words:  # only verify-paper's arguments need a module
        names = _LOADS["verify-paper"] if words[0] == "verify-paper" else set()
    else:
        layers = {"diagram"} if "--pd" in words else _LOADS[words[0]]
        names = layers | {f"cli.{_BODIES[words[0]]}"}
    return sorted(f"torusknot.{name}" for name in names | {"cli"})


_RECORD_LOADS = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("torusknot."))

import torusknot
after = {"import torusknot": loaded()}
import torusknot.cli
after["import torusknot.cli"] = loaded()
from test_cli import _transcript  # imports more of the package; purged below
cases, pd_path = json.loads(sys.argv[1]), sys.argv[2]
for case in cases:
    for name in loaded():
        if name != "torusknot.cli":
            del sys.modules[name]
    _transcript(case, pd_path)
    after[case] = loaded()
print(json.dumps(after))
"""


def test_each_command_loads_only_what_it_uses(tmp_path):
    # One golden case per command (the output mode loads nothing), every
    # --help and every refusal by the parser; each runs after the other
    # package modules are unloaded.
    help_cases = [c for c in _TRANSCRIPT_CASES if "--help" in c]
    cases = _TRANSCRIPT_COMMANDS + help_cases + _PARSER_CASES
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")]
    done = subprocess.run(
        [sys.executable, "-c", _RECORD_LOADS, json.dumps(cases), _write_pd(tmp_path)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    after = json.loads(done.stdout)
    assert after.pop("import torusknot") == []
    assert after.pop("import torusknot.cli") == ["torusknot.cli"]
    assert len(after) == 38  # 22 commands, 12 --help cases and 4 refusals
    for case in cases:
        assert after[case] == _expected_modules(case), case


def test_a_command_builds_only_its_own_parser(capsys, monkeypatch):
    built = []
    build = argparse.ArgumentParser.__init__

    def counted(parser, *args, **options):
        built.append(options.get("prog"))
        build(parser, *args, **options)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "width", "4", "5")[0] == 0
    assert built == ["torusknot", "torusknot width"]
    built.clear()
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert built == ["torusknot"]
    assert "verify-paper" in capsys.readouterr().out  # every command is listed


def test_the_table_names_every_command_body():
    from torusknot import cli

    bodies = {name: command.body() for name, command in cli._COMMANDS.items()}
    assert list(bodies) == _SUBCOMMANDS
    assert all(callable(body) for body in bodies.values())
    # every module of the package but __main__ holds bodies, and each public
    # function there is the body of a command in the table
    modules = {m.name for m in pkgutil.iter_modules(cli.__path__)} - {"__main__"}
    assert modules == {command.module for command in cli._COMMANDS.values()}
    defined = {
        function
        for name in modules
        for attribute, function in vars(
            importlib.import_module(f"torusknot.cli.{name}")
        ).items()
        if inspect.isfunction(function)
        and function.__module__ == f"torusknot.cli.{name}"
        and not attribute.startswith("_")
    }
    assert defined == set(bodies.values())


@pytest.mark.parametrize("argv", ["width 4 5", "hfk 300 301"])
def test_a_closed_output_pipe_is_no_error(argv):
    # The reader is gone before the command writes: a short output fails at
    # the flush, a long one (hfk 300 301) already in print.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "torusknot.cli", *argv.split()],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")


# The seven command shapes of the benchmark's cold-process workload.  Each
# runs in its own fresh interpreter, with no pytest loaded, and reports the
# standard-library modules it loaded beyond those the interpreter started with.
_COLD_SHAPES = [
    "alexander 4 5",
    "width 5 7 --json",
    "braid-eq --strands 3 121 212",
    "dalt --tabulated 5 7",
    "turaev-genus --pd {pd}",
    "states --torus 2 3 --assignment all-B",
    "bounds 5 8",
]
_COLD_LOADS = """
import sys
at_start = set(sys.modules)
from torusknot.cli import main
code = main(sys.argv[1:])
watched = ("dataclasses", "inspect", "json")
print(code, *[m for m in watched if m in sys.modules and m not in at_start])
"""


@pytest.mark.parametrize("case", _COLD_SHAPES)
def test_cold_commands_load_neither_dataclasses_nor_idle_json(case, tmp_path):
    argv = [_write_pd(tmp_path) if arg == "{pd}" else arg for arg in case.split()]
    done = subprocess.run(
        [sys.executable, "-c", _COLD_LOADS, *argv],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0 and not done.stderr, done.stderr
    code, *loaded = done.stdout.splitlines()[-1].split()
    assert code == "0"
    # JSON is read or written only for --pd and --json
    expect_json = "--json" in argv or "--pd" in argv
    assert loaded == (["json"] if expect_json else []), case


if __name__ == "__main__":
    # Re-record tests/cli_golden.json from the current code:
    #     PYTHONPATH=src python tests/test_cli.py
    # Only do this for a deliberate change of the command-line output.
    import os
    import tempfile

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as scratch:
        pd_path = _write_pd(Path(scratch))
        cases = {case: _transcript(case, pd_path) for case in _TRANSCRIPT_CASES}
    document = {"python": "%d.%d" % sys.version_info[:2], "cases": cases}
    _GOLDEN_PATH.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
