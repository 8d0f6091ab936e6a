"""Tests for the adaptation loop, records, and experiment harnesses."""

import dataclasses
import json
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import archadapt as aa
from archadapt import orchestrator
from archadapt.controller import bucket_index
from archadapt.orchestrator import load_records

TOY = aa.SpaceConfig(
    n_units=2, depth_choices=(2, 3), kernel_choices=(3, 5),
    expansion_choices=(3,), input_resolution=32,
    stem_channels=16, unit_out_channels=(16, 24), unit_strides=(2, 2))

FAST_TRAINER = aa.TrainerConfig(
    learning_rate=0.005, iterations=60, lam=2.5e-4,
    hidden_size=16, encoder_hidden=16, arch_embed_dim=8,
    shift_embed_dim=4, token_embed_dim=8)


def _run_config(plan, **kw):
    base = dict(plan=plan, space=TOY,
                surrogate=aa.SurrogateConfig(bump_width=0.1,
                                             opt_intercept=0.55,
                                             opt_slope=0.4,
                                             depth_penalty=0.0),
                gate=aa.GateConfig(epsilon=0.02),
                trainer=FAST_TRAINER, master_seed=0)
    base.update(kw)
    return aa.RunConfig(**base)


class TestDeriveSeed:
    def test_deterministic(self):
        assert aa.derive_seed(0, 1, "train") == aa.derive_seed(0, 1, "train")

    def test_tag_sensitivity(self):
        seeds = {aa.derive_seed(0), aa.derive_seed(0, 1),
                 aa.derive_seed(0, 2), aa.derive_seed(0, 1, "train"),
                 aa.derive_seed(0, 1, "js"), aa.derive_seed(1, 1, "train")}
        assert len(seeds) == 6

    def test_range(self):
        for tag in range(20):
            s = aa.derive_seed(7, tag)
            assert 0 <= s < 2**32


class TestRunAdaptation:
    def test_repeat_snapshot_never_adapts(self):
        # Identical consecutive snapshots: zero shift, zero drop, gate holds.
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(4, 4), seed=1)
        records = aa.run_adaptation(_run_config(plan))
        assert len(records) == 1
        rec = records[0]
        assert rec.shift == pytest.approx(0.0, abs=1e-12)
        assert rec.drop == pytest.approx(0.0, abs=1e-12)
        assert not rec.adapted
        assert rec.new_arch == rec.prev_arch
        assert not rec.trace

    def test_one_step_plan_is_invalid(self):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(4,), seed=1)
        with pytest.raises(aa.InvalidConfig, match="at least two steps"):
            aa.run_adaptation(_run_config(plan))

    def test_adapted_zero_shift_raises_naming_the_step(self):
        # 0.2 and 0.2004 of 1000 rows give the same 200 rows, so d_t = 0,
        # while the volume fraction moves the surrogate by about 4e-6.
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.2, 0.2004))
        cfg = _run_config(plan, surrogate=aa.SurrogateConfig(),
                          gate=aa.GateConfig(epsilon=0.0))
        with pytest.raises(aa.DivisionByZeroShift, match="step 1"):
            aa.run_adaptation(cfg)
        held = aa.run_adaptation(dataclasses.replace(cfg, gate=aa.GateConfig(epsilon=1e-3)))
        assert held[0].shift == 0.0 and not held[0].adapted

    def test_infinite_epsilon_never_adapts(self):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8), seed=2)
        cfg = _run_config(plan, gate=aa.GateConfig(epsilon=float("inf")))
        records = aa.run_adaptation(cfg)
        assert all(not r.adapted for r in records)
        assert all(r.new_arch == r.prev_arch for r in records)

    def test_lineage_and_fields(self):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8), seed=3)
        cfg = _run_config(plan, gate=aa.GateConfig(epsilon=0.0))
        records = aa.run_adaptation(cfg)
        assert [r.t for r in records] == [1, 2]
        # the chain must be connected: each step starts from the last arch
        for prev, cur in zip(records, records[1:]):
            assert cur.prev_arch == prev.new_arch
        for r in records:
            assert r.shift >= 0.0
            assert 0.0 <= r.v_prev <= 1.0
            assert 0.0 <= r.v_new <= 1.0
            assert r.madds_prev > 0.0
            assert r.madds_new > 0.0
            aa.decode(r.prev_arch, TOY)
            aa.decode(r.new_arch, TOY)
            if r.adapted:
                assert len(r.trace) == 60
            else:
                assert r.new_arch == r.prev_arch

    def test_explicit_initial_arch(self):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4), seed=4)
        start = "k3e3,k3e3;k3e3,k3e3"
        cfg = _run_config(plan, initial_arch=start,
                          gate=aa.GateConfig(epsilon=float("inf")))
        records = aa.run_adaptation(cfg)
        assert records[0].prev_arch == start

    def test_deterministic_records(self):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8), seed=5)
        cfg = _run_config(plan, gate=aa.GateConfig(epsilon=0.0))
        a = aa.run_adaptation(cfg)
        b = aa.run_adaptation(cfg)
        for ra, rb in zip(a, b):
            assert ra.new_arch == rb.new_arch
            assert ra.shift == rb.shift
            assert ra.v_new == rb.v_new


class TestSnapshotsDrawnOnce:
    def test_in_place_write_raises_and_leaves_steps_intact(self):
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.25, 0.5, 1.0),
                             base_samples=80, seed=2)

        def scale_in_place(snap):
            snap.features *= 2.0
            return snap.features

        with pytest.raises(ValueError, match="read-only"):
            aa.run_adaptation(_run_config(plan), feature_extractor=scale_in_place)
        snapshots = orchestrator._snapshots(plan)
        for snap in snapshots:
            with pytest.raises(ValueError, match="read-only"):
                scale_in_place(snap)
        for i, snap in enumerate(snapshots):
            alone = aa.gen_snapshot(plan, i)
            assert snap.features.tobytes() == alone.features.tobytes()
            assert np.array_equal(snap.labels, alone.labels) and snap.meta == alone.meta


class TestFeatureExtractor:
    PLAN = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.25, 0.5, 1.0),
                         base_samples=80, seed=2)

    def test_called_once_on_the_last_snapshot(self):
        seen = []

        def doubled(snap):
            seen.append(snap.meta.t)
            return 2.0 * snap.features

        records = aa.run_adaptation(_run_config(self.PLAN, gate=aa.GateConfig(epsilon=1.0)),
                                    feature_extractor=doubled)
        assert seen == [2]
        plain = aa.run_adaptation(_run_config(self.PLAN, gate=aa.GateConfig(epsilon=1.0)))
        # doubling the features scales every squared W2 shift by four
        for r, p in zip(records, plain):
            assert r.shift == pytest.approx(4.0 * p.shift, rel=1e-12)

    def test_wrong_row_count_names_both_counts(self):
        def drops_a_row(snap):
            return snap.features[:-1]

        with pytest.raises(aa.DimensionMismatch, match=r"returned 79 rows .* of 80"):
            aa.run_adaptation(_run_config(self.PLAN), feature_extractor=drops_a_row)


class TestRecordsFile:
    def _records(self, tmp_path, sub):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8), seed=5)
        cfg = _run_config(plan, gate=aa.GateConfig(epsilon=0.0))
        out = tmp_path / sub
        aa.run_adaptation(cfg, out_dir=out)
        return out

    def test_byte_identical_across_runs(self, tmp_path):
        p1 = self._records(tmp_path, "a") / "records.json"
        p2 = self._records(tmp_path, "b") / "records.json"
        assert p1.read_bytes() == p2.read_bytes()

    def test_no_volatile_fields(self, tmp_path):
        out = self._records(tmp_path, "c")
        rows = load_records(out / "records.json")
        for row in rows:
            assert "duration_s" not in row
        # wall-clock numbers live in the sidecar instead
        timings = json.loads((out / "timings.json").read_text())
        assert len(timings) == len(rows)

    def test_trace_files_written_for_adapted_steps(self, tmp_path):
        out = self._records(tmp_path, "d")
        rows = load_records(out / "records.json")
        for row in rows:
            if row["adapted"]:
                assert (out / row["trace_file"]).exists()
            else:
                assert row["trace_file"] is None


class TestDistanceComparison:
    def test_js_saturates_wd_grows(self):
        # Widely separated class prototypes: every new class batch is
        # essentially disjoint support, so JS pins to 1 while WD keeps
        # growing with the prototype scatter.
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8),
                             feature_dim=4, sigma=0.5, seed=6,
                             proto_radius=40.0, base_samples=600)
        rows = aa.compare_distance_metrics(plan, seeds=(0, 1), n_samples=4000)
        assert [r["step"] for r in rows] == [1, 2]
        assert rows[-1]["js"] >= 0.95
        assert abs(rows[-1]["js"] - rows[-2]["js"]) < 0.05
        assert rows[-1]["wd"] > rows[-2]["wd"]

    def test_deterministic(self):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4),
                             feature_dim=4, seed=7, base_samples=400)
        a = aa.compare_distance_metrics(plan, seeds=(0,), n_samples=2000)
        b = aa.compare_distance_metrics(plan, seeds=(0,), n_samples=2000)
        assert a == b

    def test_no_seeds_is_invalid(self):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4), feature_dim=4, seed=7)
        with pytest.raises(aa.InvalidConfig, match="seed"):
            aa.compare_distance_metrics(plan, seeds=())

    def test_rows_do_not_depend_on_the_core_count(self, monkeypatch):
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.4, 0.55, 0.7, 0.85, 1.0),
                             feature_dim=6, base_samples=900, seed=9)
        rows = {}
        for cores in (1, 2, 3):
            monkeypatch.setattr(orchestrator, "_cores", lambda: cores)
            rows[cores] = json.dumps(
                aa.compare_distance_metrics(plan, seeds=(4, 5), n_samples=700)
            )
        assert rows[1] == rows[2] == rows[3]

    def test_a_failing_step_raises_its_error_in_the_caller(self, monkeypatch):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 6, 8),
                             feature_dim=4, seed=7, base_samples=400)
        step2 = orchestrator.derive_seed(0, 2, "js")
        real_js = orchestrator.js_divergence_mc

        def js(fit, base, n_samples, seed):
            if seed == step2:
                raise aa.NotSPD("step 2")
            return real_js(fit, base, n_samples=n_samples, seed=seed)

        monkeypatch.setattr(orchestrator, "js_divergence_mc", js)
        monkeypatch.setattr(orchestrator, "_cores", lambda: 2)
        threads = threading.active_count()
        with pytest.raises(aa.NotSPD, match="step 2"):
            aa.compare_distance_metrics(plan, seeds=(0,), n_samples=200)
        assert threading.active_count() == threads


class TestInThreads:
    """orchestrator._in_threads, the thread map behind compare_distance_metrics."""

    @pytest.fixture(autouse=True)
    def _two_cores(self, monkeypatch):
        monkeypatch.setattr(orchestrator, "_cores", lambda: 2)

    def _run(self, fn, n_calls):
        threads = threading.active_count()
        try:
            return orchestrator._in_threads(fn, [(i,) for i in range(n_calls)])
        finally:
            assert threading.active_count() == threads

    @pytest.mark.parametrize("cores", [1, 2, 3, 8])
    def test_results_in_call_order(self, monkeypatch, cores):
        monkeypatch.setattr(orchestrator, "_cores", lambda: cores)
        names = set()

        def fn(i):
            names.add(threading.current_thread().name)
            return i * i

        assert self._run(fn, 5) == [i * i for i in range(5)]
        assert len(names) == min(cores, 5)
        assert self._run(fn, 0) == []

    def test_one_call_starts_no_thread(self):
        names = []
        self._run(lambda i: names.append(threading.current_thread().name), 1)
        assert names == [threading.current_thread().name]

    def test_lowest_index_failure_is_raised_and_later_calls_skipped(self):
        called = set()
        three_failed = threading.Event()

        def fn(i):
            called.add(i)
            if i == 3:
                three_failed.set()
                raise aa.InvalidData("call 3")
            if i == 2:
                assert three_failed.wait(timeout=10)
                raise aa.NotSPD("call 2")
            return i

        # The caller takes calls 0, 2, 4 and the thread 1, 3, 5. Call 3 fails
        # first; call 2 still runs, and its error is the one raised.
        with pytest.raises(aa.NotSPD, match="call 2"):
            self._run(fn, 6)
        assert called == {0, 1, 2, 3}

    def test_interrupt_in_the_caller_skips_calls_not_started(self):
        called = set()
        thread_busy = threading.Event()

        def fn(i):
            called.add(i)
            if i == 0:
                assert thread_busy.wait(timeout=10)
                raise KeyboardInterrupt
            if i == 1:
                thread_busy.set()
                time.sleep(0.2)  # the caller is interrupted meanwhile
            return i

        with pytest.raises(KeyboardInterrupt):
            self._run(fn, 6)
        assert called == {0, 1}

    def test_stress_more_threads_than_cores(self, monkeypatch):
        monkeypatch.setattr(orchestrator, "_cores", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for failing in (set(), {0}, {96, 193, 290, 387}, {399}):
                called = set()

                def fn(i):
                    called.add(i)
                    if i in failing:
                        raise aa.InvalidData(f"call {i}")
                    return float(np.sum(np.arange(i + 1.0)))

                started = time.perf_counter()
                if not failing:
                    assert self._run(fn, 400) == [i * (i + 1) / 2 for i in range(400)]
                else:
                    first = min(failing)
                    with pytest.raises(aa.InvalidData, match=f"call {first}$"):
                        self._run(fn, 400)
                    assert set(range(first + 1)) <= called
                assert time.perf_counter() - started < 30
        finally:
            sys.setswitchinterval(interval)

    def test_core_count_without_affinity_call(self, monkeypatch):
        monkeypatch.undo()
        monkeypatch.delattr(orchestrator.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(orchestrator.os, "cpu_count", lambda: None)
        assert orchestrator._cores() == 1
        monkeypatch.setattr(orchestrator.os, "cpu_count", lambda: 3)
        assert orchestrator._cores() == 3


class TestLambdaSweep:
    def _cfg(self):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 8), seed=8)
        return _run_config(plan, gate=aa.GateConfig(epsilon=0.0))

    def test_rows_shape(self):
        rows = aa.lambda_sweep(self._cfg(), (0.0, 1e-3))
        assert [r["lam"] for r in rows] == [0.0, 1e-3]
        for row in rows:
            aa.decode(row["arch"], TOY)
            assert 0.0 <= row["v"] <= 1.0
            assert row["madds"] > 0.0

    def test_zero_first_shift_raises_before_training(self, monkeypatch):
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.2, 0.2004))
        trained = []
        monkeypatch.setattr(orchestrator, "_train_many", lambda *a: trained.append(a))
        with pytest.raises(aa.DivisionByZeroShift, match="step 1"):
            aa.lambda_sweep(_run_config(plan), (0.0, 1e-3))
        assert trained == []

    def test_no_lambdas_no_rows(self):
        assert aa.lambda_sweep(self._cfg(), ()) == []

    def test_duplicate_lambda_identical_rows(self):
        # Same lambda twice must reuse the same training seed and params
        # start, hence produce identical results.
        rows = aa.lambda_sweep(self._cfg(), (1e-3, 1e-3))
        assert rows[0]["arch"] == rows[1]["arch"]
        assert rows[0]["v"] == rows[1]["v"]


class TestWdAblation:
    def test_paired_runs(self):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8), seed=9)
        cfg = _run_config(plan, gate=aa.GateConfig(epsilon=0.0))
        out = aa.wd_ablation(cfg)
        assert set(out) == {"with", "without"}
        assert len(out["with"]) == len(out["without"]) == 2

    def test_requires_positive_lambda(self):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4), seed=9)
        trainer = dataclasses.replace(FAST_TRAINER, lam=0.0)
        cfg = _run_config(plan, trainer=trainer)
        with pytest.raises(aa.InvalidConfig):
            aa.wd_ablation(cfg)


class TestBucketResolution:
    def test_edges_resolved_from_observed_shifts(self):
        from archadapt.orchestrator import resolve_bucket_edges
        trainer = aa.TrainerConfig(bucket_count=4)
        resolved = resolve_bucket_edges(trainer, [0.5, 2.0, 8.0])
        assert resolved.bucket_edges is not None
        assert len(resolved.bucket_edges) == 3
        edges = resolved.bucket_edges
        assert all(a < b for a, b in zip(edges, edges[1:]))
        # edges span the observed range
        assert edges[0] >= 0.5 * 0.999
        assert edges[-1] <= 8.0 * 1.001

    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(min_value=1e-12, max_value=1e6),
           ratio=st.floats(min_value=1.0 + 1e-6, max_value=1e8),
           count=st.integers(min_value=2, max_value=16))
    def test_extreme_shifts_land_in_the_end_buckets(self, lo, ratio, count):
        from archadapt.orchestrator import resolve_bucket_edges
        hi = lo * ratio
        assume(hi > lo)
        resolved = resolve_bucket_edges(aa.TrainerConfig(bucket_count=count),
                                        [hi, (lo + hi) / 2.0, lo])
        assert bucket_index(lo, resolved) == 0
        # a single edge sits at lo, so every larger shift is in bucket 1
        assert bucket_index(hi, resolved) == (count - 2 if count > 2 else 1)

    def test_shifts_a_few_ulp_apart_widen_the_range(self):
        from archadapt.orchestrator import resolve_bucket_edges
        resolved = resolve_bucket_edges(aa.TrainerConfig(), [1.0, 1.0 + 2.3e-16])
        edges = resolved.bucket_edges
        assert len(edges) == 7
        assert edges[0] == 0.1 and edges[-1] == 10.0
        assert all(a < b for a, b in zip(edges, edges[1:]))

    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(min_value=1e-12, max_value=1e6),
           ratio=st.floats(min_value=1.0, max_value=1.0 + 1e-12),
           count=st.integers(min_value=2, max_value=16))
    def test_nearly_equal_shifts_give_increasing_edges(self, lo, ratio, count):
        from archadapt.orchestrator import resolve_bucket_edges
        hi = lo * ratio
        resolved = resolve_bucket_edges(aa.TrainerConfig(bucket_count=count), [hi, lo])
        edges = resolved.bucket_edges
        assert len(edges) == count - 1
        assert all(a < b for a, b in zip(edges, edges[1:]))
        # the edges still span the shifts (a single edge sits at or below lo)
        assert edges[0] <= lo and (count == 2 or hi <= edges[-1])

    def test_explicit_edges_kept(self):
        from archadapt.orchestrator import resolve_bucket_edges
        trainer = aa.TrainerConfig(bucket_count=4, bucket_edges=(1.0, 2.0, 3.0))
        resolved = resolve_bucket_edges(trainer, [0.5, 8.0])
        assert resolved.bucket_edges == (1.0, 2.0, 3.0)

    @pytest.mark.parametrize("shift", [5e-324, 1e308])
    def test_one_extreme_shift_gives_valid_edges(self, shift):
        # lo / 10 underflows to 0 for the smallest subnormal, lo * 10
        # overflows to inf near the float maximum.
        from archadapt.orchestrator import resolve_bucket_edges
        for count in range(2, 17):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                resolved = resolve_bucket_edges(aa.TrainerConfig(bucket_count=count), [shift])
            edges = resolved.bucket_edges
            assert len(edges) == count - 1
            assert np.isfinite(edges).all()
            assert all(a < b for a, b in zip(edges, edges[1:]))

    @settings(max_examples=300, deadline=None)
    @given(shifts=st.lists(st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True),
                           min_size=1, max_size=4),
           count=st.integers(min_value=2, max_value=16))
    def test_any_positive_shifts_give_valid_edges(self, shifts, count):
        from archadapt.orchestrator import resolve_bucket_edges
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges = resolve_bucket_edges(aa.TrainerConfig(bucket_count=count), shifts).bucket_edges
        assert len(edges) == count - 1
        assert np.isfinite(edges).all()
        assert all(a < b for a, b in zip(edges, edges[1:]))
