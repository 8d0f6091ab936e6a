"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_metric_names_and_units_are_well_formed():
    names = list(run.E2E_UNITS) + list(run.LAYER_UNITS)
    assert len(names) == len(set(names))
    for name in names + list(run.WORKLOADS):
        assert NAME_RE.match(name), name
    for unit in list(run.E2E_UNITS.values()) + list(run.LAYER_UNITS.values()):
        assert UNIT_RE.match(unit), unit


def test_traced_metrics_cover_every_layer():
    layers = {name.split(".")[0] for name in run.LAYER_UNITS}
    assert set(tracer.LAYERS) <= layers
    assert "trace.overhead_s" in run.LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_end_to_end(workload):
    result = _bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_traced(workload):
    result = _bench(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.LAYER_UNITS
    if workload == "shift_scan":
        assert metrics["controller.iters"] == 0
        assert metrics["gate.fired"] == 0 and metrics["gate.checks"] > 0
    else:
        assert metrics["controller.iters"] > 0 and metrics["controller.decisions_per_traj"] > 0


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    workloads.import_program()
    monkeypatch.setattr(
        tracer, "WRAPS", tracer.WRAPS + (("archadapt.orchestrator", "no_such_function", "x.y", None),)
    )
    import archadapt.orchestrator as orch

    original = orch.train
    with pytest.raises(tracer.TracerError, match="no_such_function"):
        with tracer.Tracer().installed():
            pass
    assert orch.train is original  # wrappers installed before the failure are undone


def test_tracer_flags_a_predicted_layer_with_no_calls(monkeypatch, tmp_path):
    aa = workloads.import_program()
    monkeypatch.setattr(tracer, "WRAPS", tuple(w for w in tracer.WRAPS if not w[2].startswith("cli.")))
    bench = run.Bench(aa, "toy_adapt", 3, "smoke", tmp_path)
    run.traced_metrics(bench, 0.0)
    assert any("['cli']" in p for p in bench.problems)
