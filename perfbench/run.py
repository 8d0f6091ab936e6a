"""archadapt benchmark: one workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload toy_adapt --seed 1 --seconds 20 --trace 0

Run from the root of a checkout holding ``src/archadapt``. The workload's
inputs are made from ``--seed``. ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` measures the same runs untraced and
traced and reports the per-layer metrics. Either way the outputs are
checked, a JSON detail line (machine, quartiles, hashes, check results)
is printed, and the last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``. Spans and the detail go
to ``.perfbench_out/`` in the checkout.

Exit codes: 0 after a result line, 2 when the checkout holds no program,
3 when the tracer cannot wrap a name the program no longer has.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads before numpy loads: one process drives the load and the
# matrices are small, so a single thread is both within nproc and the
# steadiest choice.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import LAYERS, Tracer, TracerError  # noqa: E402

WORKLOADS = ("toy_adapt", "full_sweep", "shift_scan")

# Layers each workload is predicted to drive; a traced run in which one of
# them records no call fails its checks.
EXPECTED_LAYERS = {
    "toy_adapt": LAYERS,
    "full_sweep": ("datagen", "gaussian", "evaluator", "search_space", "controller", "orchestrator"),
    "shift_scan": ("datagen", "gaussian", "gate", "evaluator", "search_space", "orchestrator"),
}

E2E_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "cli.config_s": "s",
    "datagen.snapshot_s": "s",
    "datagen.snapshots": "count",
    "datagen.rows": "count",
    "gaussian.fit_s": "s",
    "gaussian.fits": "count",
    "gaussian.fit_flops": "flop",
    "gaussian.w2_s": "s",
    "gaussian.w2_calls": "count",
    "gaussian.js_s": "s",
    "gaussian.js_calls": "count",
    "gate.s": "s",
    "gate.checks": "count",
    "gate.fired": "count",
    "evaluator.s": "s",
    "evaluator.calls": "count",
    "evaluator.distinct_ratio": "ratio",
    "evaluator.oracle_s": "s",
    "evaluator.oracle_archs": "count",
    "search_space.madds_s": "s",
    "search_space.madds_calls": "count",
    "search_space.enumerate_s": "s",
    "controller.init_s": "s",
    "controller.train_s": "s",
    "controller.iters": "count",
    "controller.iter_ms": "ms",
    "controller.decode_s": "s",
    "controller.decisions_per_traj": "count",
    "controller.sample_ms": "ms",
    "controller.score_ms": "ms",
    "controller.grad_ms": "ms",
    "controller.backward_ms": "ms",
    "controller.update_ms": "ms",
    "controller.train_iters_per_s": "1/s",
    "orchestrator.self_s": "s",
    "orchestrator.write_s": "s",
    "orchestrator.bytes_written": "B",
    "quality.search_regret": "objective",
    "quality.sweep_reward": "objective",
    "trace.overhead_s": "s",
}

SETUP_REPEATS = 5
MIN_RUNS = 3
REDRIVE_SECONDS = 1.0
REDRIVE_MAX = 300
CHILD_TIMEOUT_S = 150


class Bench:
    """State of one benchmark invocation."""

    def __init__(self, aa, workload: str, seed: int, scale: str, out_root: Path):
        self.aa = aa
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.out = out_root / f"{workload}-seed{seed}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.inputs = workloads.make_inputs(aa, workload, seed, scale, self.out / "inputs")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference = None  # first run's RunOutput
        self.probe = SpeedProbe()

    def run_once(self, tracer: Tracer | None = None) -> tuple[float, float] | None:
        """One workload run; returns its wall and normalized time, or None if it failed."""
        out_dir = self.out / ("ref" if self.reference is None else "cur")
        shutil.rmtree(out_dir, ignore_errors=True)
        self.attempted += 1
        try:
            with self.probe.measuring():
                start = time.perf_counter()
                if tracer is None:
                    output = workloads.run(self.aa, self.inputs, out_dir)
                else:
                    with tracer.span(f"workload.{self.workload}"):
                        output = workloads.run(self.aa, self.inputs, out_dir)
                elapsed = time.perf_counter() - start
        except Exception as exc:  # a failed run is counted, not fatal
            self.failed += 1
            self.problems.append(f"run {self.attempted} raised {type(exc).__name__}: {exc}")
            return None
        if self.reference is None:
            self.reference = output
        elif output.files != self.reference.files:
            self.failed += 1
            self.problems.append(f"run {self.attempted}: outputs differ from the first run of this seed")
            return None
        return elapsed, elapsed * self.probe.factor()

    def timed_loop(self, seconds: float, tracer_factory=None):
        """Repeat the workload for ``seconds`` (at least MIN_RUNS times).

        Returns the wall times, the normalized times and the tracers.
        """
        times, norms, tracers = [], [], []
        failures = 0
        start = time.perf_counter()
        while failures < MIN_RUNS and (len(times) < MIN_RUNS or time.perf_counter() - start < seconds):
            tracer = tracer_factory() if tracer_factory else None
            if tracer is None:
                timing = self.run_once()
            else:
                with tracer.installed():
                    timing = self.run_once(tracer)
            if timing is None:
                failures += 1
                continue
            times.append(timing[0])
            norms.append(timing[1])
            if tracer is not None:
                tracers.append(tracer)
        return times, norms, tracers

    def warm_up(self) -> None:
        smoke = workloads.make_inputs(self.aa, self.workload, self.seed, "smoke", self.out / "inputs")
        workloads.run(self.aa, smoke, self.out / "warmup")

    def child(self, mode: str) -> tuple[float, dict]:
        """Run perfbench/child.py in a fresh interpreter; returns (wall s, its JSON)."""
        cmd = [sys.executable, str(Path(__file__).resolve().parent / "child.py"),
               mode, self.workload, str(self.seed), self.scale, str(self.out / f"child-{mode}")]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"child {mode} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return elapsed, json.loads(proc.stdout.strip().splitlines()[-1])

    def check_outputs(self) -> dict:
        """Invariant checks on the reference output; returns quality figures."""
        from checks import Checker

        quality = {"search_regret": None, "sweep_reward": None}
        if self.reference is None:
            self.problems.append("no run completed")
            return quality
        checker = Checker(self.aa, self.inputs)
        ref = self.reference
        if ref.records is not None:
            quality["search_regret"] = checker.check_records(ref.records)
        if self.workload == "full_sweep":
            quality["sweep_reward"] = checker.check_sweep(ref.rows, workloads.LAMBDAS)
        if self.workload == "shift_scan":
            checker.check_distances(ref.rows)
        if checker.problems:
            self.problems.extend(checker.problems)
            self.failed = self.attempted  # every run produced these same bytes
        return quality

    def iterations_per_run(self) -> int:
        """REINFORCE updates one run makes, read off its outputs."""
        ref, per_train = self.reference, self.inputs.cfg.trainer.iterations
        if ref is None:
            return 0
        if self.workload == "full_sweep":
            return len(ref.rows) * per_train
        return sum(rec["adapted"] for rec in ref.records) * per_train

    def hashes(self) -> dict:
        if self.reference is None:
            return {}
        return {name: hashlib.sha256(raw).hexdigest() for name, raw in self.reference.files.items()}


def quartiles(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"p25": q1, "median": q2, "p75": q3, "n": len(values)}


def layer_values(tr: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced run (times in s unless named _ms)."""
    calls, incl, own, x = tr.calls, tr.incl, tr.self_time, tr.extra
    iters = x["controller.iters"]
    trajectories = x["controller.trajectories"]
    train = "controller.train"
    return {
        "cli.config_s": incl["cli.parse_config_file"] + incl["cli.build_run_config"],
        "datagen.snapshot_s": incl["datagen.gen_snapshot"],
        "datagen.snapshots": calls["datagen.gen_snapshot"],
        "datagen.rows": x["datagen.rows"],
        "gaussian.fit_s": incl["gaussian.fit_gaussian"],
        "gaussian.fits": calls["gaussian.fit_gaussian"],
        "gaussian.fit_flops": x["gaussian.fit_flops"],
        "gaussian.w2_s": incl["gaussian.wasserstein2_gaussian"],
        "gaussian.w2_calls": calls["gaussian.wasserstein2_gaussian"],
        "gaussian.js_s": incl["gaussian.js_divergence_mc"],
        "gaussian.js_calls": calls["gaussian.js_divergence_mc"],
        "gate.s": own["gate.accuracy_drop"] + incl["gate.should_adapt"],
        "gate.checks": calls["gate.should_adapt"],
        "gate.fired": x["gate.fired"],
        "evaluator.s": own["evaluator.surrogate_accuracy"],
        "evaluator.calls": calls["evaluator.surrogate_accuracy"],
        "evaluator.distinct_ratio": (
            len(tr.distinct) / calls["evaluator.surrogate_accuracy"]
            if calls["evaluator.surrogate_accuracy"] else 0.0
        ),
        "evaluator.oracle_s": incl["evaluator.oracle_best"],
        "evaluator.oracle_archs": x["evaluator.oracle_archs"],
        "search_space.madds_s": incl["search_space.madds"],
        "search_space.madds_calls": calls["search_space.madds"],
        "search_space.enumerate_s": incl["search_space.enumerate_space"],
        "controller.init_s": incl["controller.init_params"],
        "controller.train_s": incl[train],
        "controller.iters": iters,
        "controller.iter_ms": 1e3 * incl[train] / iters if iters else 0.0,
        "controller.decode_s": incl["controller.greedy_decode"] + incl["controller.embed_state"],
        "controller.decisions_per_traj": (
            x["controller.decisions"] / trajectories if trajectories else 0.0
        ),
        # evaluator and MAdds calls made inside train(), per iteration
        "_train_children_ms": 1e3 * (incl[train] - own[train]) / iters if iters else 0.0,
        "orchestrator.self_s": (
            own["orchestrator.run_adaptation"]
            + own["orchestrator.lambda_sweep"]
            + own["orchestrator.compare_distance_metrics"]
        ),
        "orchestrator.write_s": incl["orchestrator.write_records"],
        "orchestrator.bytes_written": x["orchestrator.bytes_written"],
    }


def redrive(aa, last_train, seed: int) -> dict[str, float]:
    """Time the public sample/score/objective_gradients on trained params."""
    if last_train is None:
        return {"controller.sample_ms": 0.0, "controller.score_ms": 0.0, "controller.grad_ms": 0.0}
    import numpy as np

    ctl = aa.controller
    params, prev_arch, shift, cfg = last_train
    pstate = ctl.embed_state(params, prev_arch, shift, cfg)
    rng = np.random.default_rng(seed)
    samples, scores, grads = [], [], []
    start = time.perf_counter()
    while len(samples) < REDRIVE_MAX and (len(samples) < 20 or time.perf_counter() - start < REDRIVE_SECONDS):
        t0 = time.perf_counter()
        traj = ctl.sample(params, pstate, rng)
        t1 = time.perf_counter()
        ctl.score(params, pstate, traj.arch)
        t2 = time.perf_counter()
        ctl.objective_gradients(params, traj, 1.0, cfg)
        t3 = time.perf_counter()
        samples.append(t1 - t0)
        scores.append(t2 - t1)
        grads.append(t3 - t2)
    return {
        "controller.sample_ms": 1e3 * statistics.median(samples),
        "controller.score_ms": 1e3 * statistics.median(scores),
        "controller.grad_ms": 1e3 * statistics.median(grads),
    }


def traced_metrics(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Untraced then traced runs; returns (per-layer metrics, detail)."""
    # Run times here are normalized like run_s (probe.py), so the overhead
    # is not swamped by the machine's speed changing between the halves.
    plain_wall, plain, _ = bench.timed_loop(seconds / 2)
    _, traced, tracers = bench.timed_loop(seconds / 2, tracer_factory=Tracer)
    per_run = [layer_values(t) for t in tracers]
    values = {name: statistics.median(run[name] for run in per_run) for name in per_run[0]} if per_run else {}
    for tr in tracers:
        calls = tr.layer_calls()
        silent = [layer for layer in EXPECTED_LAYERS[bench.workload] if calls[layer] == 0]
        if silent:
            bench.problems.append(f"traced run recorded no call in predicted layers {silent}")
            bench.failed += 1
    for name in ("gate.checks", "gate.fired", "controller.iters", "evaluator.calls", "datagen.rows"):
        if len({run[name] for run in per_run}) > 1:
            bench.problems.append(f"{name} differs between traced runs of one seed")
    if tracers:
        tracers[-1].write_spans(bench.out / "spans.csv.gz")
    values.update(redrive(bench.aa, tracers[-1].last_train if tracers else None, bench.seed))
    values["controller.backward_ms"] = values["controller.grad_ms"] - values["controller.score_ms"]
    if values.get("controller.iters"):
        values["controller.update_ms"] = (
            values["controller.iter_ms"] - values["controller.sample_ms"]
            - values["controller.backward_ms"] - values["_train_children_ms"]
        )
    if plain:
        values["controller.train_iters_per_s"] = values.get("controller.iters", 0.0) / statistics.median(plain)
    if plain and traced:
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    detail = {
        "run_s_normalized_untraced": quartiles(plain) if plain else None,
        "run_s_normalized_traced": quartiles(traced) if traced else None,
        "derived": ["controller.backward_ms = grad - score",
                    "controller.update_ms = iter - sample - backward - (evaluator + madds) per iteration"],
        "spans": str(bench.out / "spans.csv.gz"),
        "predictions": predictions(bench.workload, values, statistics.median(plain_wall)) if per_run and plain else {},
    }
    return values, detail


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    setups, setup_norms = [], []
    for _ in range(SETUP_REPEATS):
        try:
            wall, reply = bench.child("setup")
            setups.append(wall)
            setup_norms.append(wall * reply["probe_factor"])
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            bench.problems.append(f"set-up in a fresh interpreter failed: {exc}")
            break
    bench.attempted += 1
    try:
        _, rss = bench.child("rss")
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        bench.failed += 1
        bench.problems.append(f"peak-RSS run failed: {exc}")
        rss = {"maxrss_kb": 0, "files": {}}
    times, norms, _ = bench.timed_loop(seconds)
    if rss["files"] and bench.reference is not None and rss["files"] != bench.hashes():
        bench.failed += 1
        bench.problems.append("the fresh-process run's outputs differ from the in-process runs")
    values = {
        "run_s": statistics.median(norms) if norms else 0.0,
        "setup_s": statistics.median(setup_norms) if setup_norms else 0.0,
        "peak_rss_mb": rss["maxrss_kb"] / 1024.0,
    }
    detail = {
        "run_s_normalized": quartiles(norms) if norms else None,
        "run_s_wall": quartiles(times) if times else None,
        "setup_s_normalized": quartiles(setup_norms) if setup_norms else None,
        "setup_s_wall": quartiles(setups) if setups else None,
        "run_wall_times": times,
        "run_normalized_times": norms,
        "train_iters_per_s": bench.iterations_per_run() / values["run_s"] if norms else 0.0,
    }
    return values, detail


def predictions(workload: str, values: dict, run_s: float) -> dict:
    """Predictions the README states per workload; run_s is the untraced wall median."""
    out = {}
    if workload in ("toy_adapt", "full_sweep") and run_s > 0:
        share = (values["datagen.snapshot_s"] + values["gaussian.fit_s"]
                 + values["gaussian.w2_s"] + values["gaussian.js_s"]) / run_s
        out["datagen_gaussian_share"] = {"value": share, "predicted": "< 0.05", "holds": share < 0.05}
    if workload == "shift_scan":
        out["controller_iters"] = {"value": values["controller.iters"], "predicted": "== 0",
                                   "holds": values["controller.iters"] == 0}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(workloads.SIZES), default="full",
                        help="workload size; smoke is for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        aa = workloads.import_program()
    except (workloads.SetupError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import machine

    out_root = workloads.ROOT / ".perfbench_out"
    bench = Bench(aa, args.workload, args.seed, args.scale, out_root)
    try:
        bench.warm_up()
    except Exception as exc:  # reported as a failed check below
        bench.problems.append(f"warm-up call raised {type(exc).__name__}: {exc}")
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "scale": args.scale, "seconds": args.seconds,
              "machine": machine.describe(workloads.ROOT, workloads.SRC)}
    try:
        if args.trace:
            values, extra = traced_metrics(bench, args.seconds)
        else:
            values, extra = end_to_end(bench, args.seconds)
    except TracerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    detail.update(extra)
    quality = bench.check_outputs()
    if args.trace:
        values["quality.search_regret"] = quality["search_regret"] or 0.0
        values["quality.sweep_reward"] = quality["sweep_reward"] or 0.0
        units = LAYER_UNITS
    else:
        units = E2E_UNITS
    detail.update(
        quality=quality,
        sha256=bench.hashes(),
        fail_ratio=bench.failed / bench.attempted,
        problems=bench.problems,
    )
    correct = not bench.problems
    if not correct:
        for problem in bench.problems:
            print(f"perfbench: {problem}", file=sys.stderr)
    (bench.out / f"detail-trace{args.trace}.json").write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps({"detail": detail}))
    result = {
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        # a metric no run could measure reads 0, next to correct=false
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
