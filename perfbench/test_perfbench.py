"""Self-test of the benchmark: every workload at reduced size.

    python3 -m pytest perfbench/test_perfbench.py

Checks that the oracle passes on the real program, that it flags a
wrong answer, and that each mode emits exactly the metrics that
BENCHMARK.json names.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import run

assert run.use_checkout_sources()

import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_small_run_is_correct_and_emits_every_metric(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)  # keep trace files out of the tree
    workload = workloads.WORKLOADS[name]
    items = workload.inputs(7, small=True)
    values, units, attempted, failed = run.collect(workload, items, 7, 0, trace)
    assert failed == 0
    assert attempted == (2 if trace else 1) * len(items)
    assert set(values) == set(units)
    assert all(isinstance(v, (int, float)) for v in values.values())
    if not trace:
        assert all(values[m] > 0 for m in units)
    else:
        assert abs(values["trace.unattributed_s"]) < 0.2 * values["trace.wall_s"]


def test_layers_account_for_traced_wall(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    workload = workloads.WORKLOADS["verify_sweep"]
    values, _, _, _ = run.collect(workload, workload.inputs(3, small=True), 3, 0, 1)
    layers = sum(values[f"{layer}.self_s"] for layer in
                 ("constructions", "lattice_core", "verification", "formulas", "solver"))
    assert layers + values["trace.unattributed_s"] == pytest.approx(values["trace.wall_s"])
    assert values["constructions.rebuild_ratio"] == 1
    traces = json.loads((tmp_path / "verify_sweep-seed3.json").read_text())
    assert traces["passes"][0]["spans"]


def test_inputs_repeat_per_seed():
    for workload in workloads.WORKLOADS.values():
        assert workload.inputs(5) == workload.inputs(5)
    assert workloads.VerifySweep.inputs(1) != workloads.VerifySweep.inputs(2)


def test_independent_ball_counts():
    assert workloads.ball(workloads.EVEN, 2, 3) == 25
    assert workloads.ball(workloads.ODD, 3, 5) == 292
    assert workloads.ball(workloads.ODD, 0, 4) == 2


def _wrong(api, name, corrupt):
    fn = getattr(api, name)
    setattr(api, name, lambda *args: corrupt(fn(*args)))
    return api


@pytest.mark.parametrize("name,call,corrupt", [
    ("verify_sweep", "build_family",
     lambda cg: workloads.build_family(cg.family, cg.graph.k, cg.p - 1)),
    ("bound_table", "sweep_table",
     lambda rows: [dataclasses.replace(r, construction=r.ball_upper + 1) for r in rows]),
    ("solve_ladder", "solve_exact",
     lambda res: dataclasses.replace(res, optimum=res.optimum + 1)),
])
def test_oracle_counts_a_wrong_answer(name, call, corrupt, capsys):
    workload = workloads.WORKLOADS[name]
    items = workload.inputs(7, small=True)
    api = _wrong(workloads.plain_api(), call, corrupt)
    _, failed, _ = workloads.run_pass(workload, items, api)
    assert failed == len(items)
    assert "FAILED" in capsys.readouterr().err


def test_raising_call_counts_as_failed(capsys):
    workload = workloads.WORKLOADS["solve_ladder"]
    items = workload.inputs(7, small=True)

    def boom(req):
        raise RuntimeError("boom")

    api = SimpleNamespace(**{**vars(workloads.plain_api()), "solve_exact": boom})
    _, failed, proven = workloads.run_pass(workload, items, api)
    assert failed == len(items) and proven == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bound_table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
