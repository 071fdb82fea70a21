"""Command-line interface behavior via click's test runner."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import meshddbs
from meshddbs.cli import main


def run(*args, **kw):
    return CliRunner().invoke(main, list(args), **kw)


def test_build_emits_json():
    r = run("build", "--family", "eprime", "--k", "2", "--p", "4")
    assert r.exit_code == 0
    obj = json.loads(r.output)
    assert obj["family"] == "eprime"
    assert len(obj["vertices"]) == 29


def test_build_writes_file(tmp_path):
    out = tmp_path / "g.json"
    r = run("build", "--family", "o", "--k", "2", "--p", "3", "--out", str(out))
    assert r.exit_code == 0
    obj = json.loads(out.read_text())
    assert obj["parity"] == "odd"
    assert len(obj["vertices"]) == 14


def test_build_edge_rejects_radius():
    r = run("build", "--family", "edge", "--k", "2", "--p", "3")
    assert r.exit_code == 1


def test_build_parity_either_lattice_for_cycle_own_lattice_for_others():
    r = run("build", "--family", "cycle", "--k", "2", "--p", "2",
            "--parity", "odd")
    assert r.exit_code == 0
    assert json.loads(r.output)["parity"] == "odd"
    r = run("build", "--family", "e", "--k", "2", "--p", "3",
            "--parity", "odd")
    assert r.exit_code == 1


def test_build_parity_on_the_family_lattice_is_the_default():
    args = ["build", "--family", "o", "--k", "2", "--p", "3"]
    plain, odd = run(*args), run(*args, "--parity", "odd")
    assert plain.exit_code == odd.exit_code == 0
    assert odd.output == plain.output


def test_build_precondition_fails_cleanly():
    r = run("build", "--family", "g3", "--k", "3", "--p", "6")
    assert r.exit_code == 1
    assert "16" in r.output


def test_verify_round_trip(tmp_path):
    out = tmp_path / "g.json"
    assert run("build", "--family", "e", "--k", "2", "--p", "4",
               "--out", str(out)).exit_code == 0
    r = run("verify", "--in", str(out))
    assert r.exit_code == 0
    assert "all conditions hold" in r.output


def test_verify_fails_on_broken_graph(tmp_path):
    out = tmp_path / "g.json"
    run("build", "--family", "eprime", "--k", "2", "--p", "4",
        "--out", str(out))
    obj = json.loads(out.read_text())
    obj["edges"] = obj["edges"][:-1]
    out.write_text(json.dumps(obj))
    r = run("verify", "--in", str(out))
    assert r.exit_code == 1
    assert "FAIL" in r.output


def test_verify_malformed_file_exits_one_without_traceback(tmp_path):
    out = tmp_path / "g.json"
    run("build", "--family", "e", "--k", "2", "--p", "3", "--out", str(out))
    obj = json.loads(out.read_text())
    obj["edges"] = [["a", "b"]]
    out.write_text(json.dumps(obj))
    # a real process, because click's test runner swallows tracebacks
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(meshddbs.__file__)))
    r = subprocess.run(
        [sys.executable, "-m", "meshddbs.cli", "verify", "--in", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert r.returncode == 1
    assert "Traceback" not in r.stdout + r.stderr
    assert "out of range" in r.stderr


def test_verify_deeply_nested_file_exits_one_without_traceback(tmp_path):
    out = tmp_path / "deep.json"
    out.write_text("[" * 100000)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(meshddbs.__file__)))
    r = subprocess.run(
        [sys.executable, "-m", "meshddbs.cli", "verify", "--in", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert r.returncode == 1
    assert "Traceback" not in r.stdout + r.stderr
    assert "invalid JSON" in r.stderr


def test_verify_non_mesh_edge_exits_one_without_traceback(tmp_path):
    out = tmp_path / "g.json"
    run("build", "--family", "e", "--k", "2", "--p", "3", "--out", str(out))
    obj = json.loads(out.read_text())
    obj["edges"].append([0, 1])  # (-4, -2) -- (-4, 2): doubled distance 4
    out.write_text(json.dumps(obj))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(meshddbs.__file__)))
    r = subprocess.run(
        [sys.executable, "-m", "meshddbs.cli", "verify", "--in", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert r.returncode == 1
    assert "Traceback" not in r.stdout + r.stderr
    assert r.stderr.startswith("Error: ")
    assert "is not a mesh edge" in r.stderr


def _write(path, text):
    path.write_text(text)
    return str(path)


#: One malformed input per command: arguments (given a temporary directory) and message.
CLI_ERRORS = {
    "export-malformed-file": (
        lambda d: ["export", "--in", _write(d / "g.json", "{"), "--format", "json"],
        "invalid JSON",
    ),
    "build-out-missing-directory": (
        lambda d: ["build", "--family", "e", "--k", "2", "--p", "3",
                   "--out", str(d / "missing" / "g.json")],
        "No such file or directory",
    ),
    "ball-k-zero": (
        lambda d: ["ball", "--parity", "even", "--k", "0", "--p", "3"],
        "dimension k",
    ),
    "table-delta-above-2k": (
        lambda d: ["table", "--parity", "even", "--k", "2", "--p", "3", "--delta", "5"],
        "exceeds the mesh degree",
    ),
    "solve-max-nodes-zero": (
        lambda d: ["solve", "--k", "2", "--delta", "3", "--diameter", "2",
                   "--max-nodes", "0"],
        "max_nodes",
    ),
    "build-parity-off-lattice": (
        lambda d: ["build", "--family", "e", "--k", "2", "--p", "3", "--parity", "odd"],
        "family 'e' lives on the even lattice, not odd",
    ),
    "solve-max-seconds-inf": (
        lambda d: ["solve", "--k", "2", "--delta", "4", "--diameter", "2",
                   "--max-seconds", "inf"],
        "max_seconds",
    ),
    "table-two-term-beyond-float": (
        lambda d: ["table", "--parity", "even", "--k", "200", "--p", "2000", "--delta", "1"],
        "two_term_value of row parity=even k=200 delta=1 p=2000 is beyond float range",
    ),
    "build-beyond-cap": (
        lambda d: ["build", "--family", "e", "--k", "8", "--p", "200"],
        "has 14363328905089393 vertices, beyond the build cap of 10000000",
    ),
}


@pytest.mark.parametrize("args, message", list(CLI_ERRORS.values()), ids=list(CLI_ERRORS))
def test_command_error_exits_one_with_message(tmp_path, args, message):
    r = run(*args(tmp_path))
    assert r.exit_code == 1
    assert message in r.output
    assert isinstance(r.exception, SystemExit)  # no uncaught error


def test_verify_missing_file():
    r = run("verify", "--in", "/nonexistent/g.json")
    assert r.exit_code == 1


def test_ball_count_and_oracle():
    r = run("ball", "--parity", "even", "--k", "3", "--p", "4")
    assert r.exit_code == 0
    assert r.output.strip() == "129"
    r = run("ball", "--parity", "even", "--k", "3", "--p", "4", "--enumerate")
    assert "129" in r.output
    assert "oracle-match=true" in r.output


def test_table_csv_and_pretty():
    r = run("table", "--parity", "even", "--k", "2", "--p", "3..5",
            "--delta", "4")
    assert r.exit_code == 0
    lines = r.output.strip().split("\n")
    assert lines[0].startswith("parity,k,delta,p,construction")
    assert len(lines) == 4
    r = run("table", "--parity", "odd", "--k", "2..3", "--p", "4",
            "--delta", "2", "--format", "pretty")
    assert r.exit_code == 0
    assert "odd" in r.output


def test_table_reaches_large_dimension_and_radius():
    # sizes come from recurrences, so k = 8 at p = 100 needs no graph
    r = run("table", "--parity", "odd", "--k", "2..8", "--p", "98..100",
            "--delta", "4")
    assert r.exit_code == 0
    lines = r.output.strip().split("\n")
    assert len(lines) == 22
    for line in lines[1:]:
        cells = line.split(",")
        assert int(cells[5]) <= int(cells[4]) <= int(cells[6]), line


def test_table_rejects_reversed_range():
    r = run("table", "--parity", "even", "--k", "5..2", "--p", "3",
            "--delta", "2")
    assert r.exit_code == 2


def test_table_rejects_malformed_range():
    r = run("table", "--parity", "even", "--k", "3..x", "--p", "3",
            "--delta", "2")
    assert r.exit_code == 2


def test_solve_reports_result():
    r = run("solve", "--k", "2", "--delta", "4", "--diameter", "2")
    assert r.exit_code == 0
    assert "optimum=5" in r.output
    assert "optimal=true" in r.output
    payload = [ln for ln in r.output.splitlines() if ln.startswith("result=")]
    obj = json.loads(payload[0][len("result="):])
    assert obj["optimum"] == 5


def test_solve_modes_and_cap():
    r = run("solve", "--k", "2", "--delta", "3", "--diameter", "2",
            "--mode", "induced")
    assert r.exit_code == 0
    assert "optimal=false" in r.output
    r = run("solve", "--k", "2", "--delta", "2", "--diameter", "9")
    assert r.exit_code == 1
    assert "region cap" in r.output


def test_solve_region_cap_and_time_budget():
    r = run("solve", "--k", "2", "--delta", "3", "--diameter", "5")
    assert r.exit_code == 1
    r = run("solve", "--k", "2", "--delta", "3", "--diameter", "5",
            "--region-cap", "61", "--max-seconds", "120")
    assert r.exit_code == 0
    assert "optimum=14" in r.output
    assert "optimal=true" in r.output
    for flag, value in (("--region-cap", "0"), ("--max-seconds", "0")):
        r = run("solve", "--k", "2", "--delta", "3", "--diameter", "2", flag, value)
        assert r.exit_code == 1
        assert flag.lstrip("-").replace("-", "_") in r.output
        assert isinstance(r.exception, SystemExit)  # no uncaught error


def test_export_dot_and_json(tmp_path):
    out = tmp_path / "g.json"
    run("build", "--family", "o", "--k", "2", "--p", "3", "--out", str(out))
    r = run("export", "--in", str(out), "--format", "dot")
    assert r.exit_code == 0
    assert r.output.startswith("graph mesh {")
    assert "peripheries=2" in r.output
    r = run("export", "--in", str(out), "--format", "json")
    assert r.exit_code == 0
    assert json.loads(r.output)["family"] == "o"


def test_usage_errors_exit_two():
    assert run("build", "--family", "nope", "--k", "2", "--p", "3").exit_code == 2
    assert run("ball", "--parity", "even", "--k", "2").exit_code == 2  # missing p
    assert run("nope").exit_code == 2


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_block(heading, lang):
    """The first ``lang`` code block of README.md's ``## heading`` section."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n## {heading}\n"):]
    start = section.index(f"```{lang}\n") + len(lang) + 4
    return section[start:section.index("\n```", start)]


def test_readme_command_line_examples_run(tmp_path, monkeypatch):
    # in order: later lines read the g.json the first one writes
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line)[1:]
                for line in _readme_block("Command line", "sh").splitlines()
                if line.startswith("meshddbs ")]
    assert commands
    for args in commands:
        r = run(*args)
        assert r.exit_code == 0, (args, r.output)


def test_readme_library_example_runs_and_states_true_values():
    ns = {}
    exec(_readme_block("Library", "python"), ns)  # runs the block's own asserts
    # the values its comments state
    assert ns["family_size"]("oprime", 3, p=5) == 108
    assert ns["count_points"](ns["cg"].graph.parity, 3, 5) == 292
    assert (ns["res"].optimum, ns["res"].optimal) == (8, True)
