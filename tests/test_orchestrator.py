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

    def test_a_1d_output_raises_naming_2d(self):
        with pytest.raises(aa.DimensionMismatch, match="2-D"):
            aa.run_adaptation(_run_config(self.PLAN), feature_extractor=lambda s: s.features[:, 0])

    @staticmethod
    def _drawn_fits(plan, extractor):
        """The fits ``_drawn_fits`` hands over, up to an error, and that error."""
        fits = []
        with orchestrator._pool(plan) as pool:
            try:
                orchestrator._drawn_fits(plan, pool, fits.append, extractor)
            except aa.ArchAdaptError as exc:
                return fits, exc
        return fits, None

    def test_fits_are_the_public_fits_made_on_the_pool(self, monkeypatch):
        # A float32 output is fitted as fit_prefixes fits it, block by block
        # on the pool, and a repeated step shares the fit of the step before.
        plan = dataclasses.replace(self.PLAN, steps=(0.25, 0.5, 0.5, 1.0))
        ends = [aa.snapshot_meta(plan, i).n_samples for i in range(plan.n_steps)]

        def float32_features(snap):
            return (3.0 * snap.features + 1.0).astype(np.float32)

        threads = []
        real_stats = orchestrator._block_stats

        def block_stats(block):
            threads.append(threading.current_thread())
            return real_stats(block)

        monkeypatch.setattr(orchestrator, "_block_stats", block_stats)
        monkeypatch.setattr(orchestrator, "_cores", lambda: 2)
        fits, error = self._drawn_fits(plan, float32_features)
        assert error is None
        want = aa.fit_prefixes(float32_features(aa.gen_snapshot(plan, plan.n_steps - 1)), ends)
        assert [(f.mean.tobytes(), f.cov.tobytes(), f.n_samples) for f in fits] == [
            (f.mean.tobytes(), f.cov.tobytes(), f.n_samples) for f in want]
        assert fits[2] is fits[1]
        assert len(threads) == 3 and threading.current_thread() not in threads

    def test_stream_hands_over_the_fits_before_a_bad_block(self):
        ends = [aa.snapshot_meta(self.PLAN, i).n_samples for i in range(self.PLAN.n_steps)]

        def nan_in_last_block(snap):
            features = snap.features.copy()
            features[ends[-2]:, 1] = np.nan
            return features

        fits, error = self._drawn_fits(self.PLAN, nan_in_last_block)
        assert isinstance(error, aa.InvalidData) and "non-finite" in str(error)
        assert [fit.n_samples for fit in fits] == ends[:-1]


class TestSetupPool:
    """_setup runs the oracle and the shifts on a thread pool while it fits."""

    PLAN = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.3, 0.45, 0.6, 0.8, 1.0),
                         feature_dim=6, base_samples=600, seed=4)

    def test_records_do_not_depend_on_the_core_count(self, monkeypatch, tmp_path):
        records = {}
        for cores in (1, 2, 3):
            monkeypatch.setattr(orchestrator, "_cores", lambda: cores)
            aa.run_adaptation(_run_config(self.PLAN), out_dir=tmp_path / str(cores))
            records[cores] = (tmp_path / str(cores) / "records.json").read_bytes()
        assert records[1] == records[2] == records[3]
        assert len(json.loads(records[1])["records"]) == self.PLAN.n_steps - 1

    def test_nan_rows_in_the_last_block_raise_and_leave_no_thread(self, monkeypatch):
        last_block = slice(orchestrator._snapshots(self.PLAN)[-2].meta.n_samples, None)

        def nan_in_last_block(snap):
            features = snap.features.copy()
            features[last_block, 0] = np.nan
            return features

        monkeypatch.setattr(orchestrator, "_cores", lambda: 3)
        threads = threading.active_count()
        with pytest.raises(aa.InvalidData, match="non-finite"):
            aa.run_adaptation(_run_config(self.PLAN), feature_extractor=nan_in_last_block)
        assert threading.active_count() == threads

    def test_a_shift_error_is_raised_before_an_earlier_oracle_error(self, monkeypatch):
        oracle_failed = threading.Event()
        real_w2 = orchestrator.wasserstein2_gaussian
        step3_rows = orchestrator._snapshots(self.PLAN)[3].meta.n_samples

        def oracle(*args):
            oracle_failed.set()
            raise aa.InvalidConfig("oracle")

        def w2(fit, prev):
            if fit.n_samples == step3_rows:
                assert oracle_failed.wait(timeout=10)
                raise aa.NotSPD("shift 3")
            return real_w2(fit, prev)

        monkeypatch.setattr(orchestrator, "oracle_best", oracle)
        monkeypatch.setattr(orchestrator, "wasserstein2_gaussian", w2)
        monkeypatch.setattr(orchestrator, "_cores", lambda: 2)
        threads = threading.active_count()
        with pytest.raises(aa.NotSPD, match="shift 3"):
            aa.run_adaptation(_run_config(self.PLAN))
        assert oracle_failed.is_set()
        assert threading.active_count() == threads

    def test_an_oracle_error_is_raised_when_the_shifts_hold(self, monkeypatch):
        def oracle(*args):
            raise aa.InvalidConfig("oracle")

        monkeypatch.setattr(orchestrator, "oracle_best", oracle)
        with pytest.raises(aa.InvalidConfig, match="oracle"):
            aa.run_adaptation(_run_config(self.PLAN))

    @pytest.mark.parametrize("space, initial_arch, error", [
        (aa.SpaceConfig(), "oracle", aa.SpaceTooLarge),
        (TOY, "k9e9", aa.ShapeError),
    ], ids=["oracle-space-too-large", "initial-arch-of-one-unit"])
    def test_a_bad_bootstrap_raises_before_anything_is_drawn(self, monkeypatch, space,
                                                            initial_arch, error):
        # Neither needs a snapshot, so neither waits for the plan to be drawn and fitted.
        draws = []
        monkeypatch.setattr(orchestrator, "gen_snapshot", lambda *args: draws.append(args))
        with pytest.raises(error):
            aa.run_adaptation(_run_config(self.PLAN, space=space, initial_arch=initial_arch))
        assert draws == []


def _nan_prototype(monkeypatch, cls):
    """Give class cls a NaN prototype in every draw, so the rows of that
    class, and only they, are non-finite."""
    real = aa.datagen.gen_prototypes

    def protos(n_classes, feature_dim, plan_seed, radius):
        out = real(n_classes, feature_dim, plan_seed, radius)
        if n_classes > cls:
            out[cls] = np.nan
        return out

    monkeypatch.setattr(aa.datagen, "gen_prototypes", protos)


class TestStreamedDraw:
    """Each step's rows are fitted on the pool while later rows are drawn."""

    PLAN = TestSetupPool.PLAN

    def test_the_oracle_runs_before_any_row_is_drawn(self, monkeypatch):
        oracle_ran = threading.Event()
        real_oracle, real_gen = orchestrator.oracle_best, orchestrator.gen_snapshot

        def oracle(*args):
            oracle_ran.set()
            return real_oracle(*args)

        def gen_snapshot(*args, **kwargs):
            assert oracle_ran.wait(timeout=10)
            return real_gen(*args, **kwargs)

        want = aa.run_adaptation(_run_config(self.PLAN))
        monkeypatch.setattr(orchestrator, "oracle_best", oracle)
        monkeypatch.setattr(orchestrator, "gen_snapshot", gen_snapshot)
        monkeypatch.setattr(orchestrator, "_cores", lambda: 1)
        got = aa.run_adaptation(_run_config(self.PLAN))
        assert [dataclasses.replace(r, duration_s=0.0) for r in got] == [
            dataclasses.replace(r, duration_s=0.0) for r in want]

    def test_each_block_is_fitted_while_later_rows_are_drawn(self, monkeypatch):
        last = self.PLAN.n_steps - 1
        ran = []  # row counts of the blocks whose stats ran, in the order they ran
        earlier_ran = threading.Event()
        real_stats, real_gen = orchestrator._block_stats, orchestrator.gen_snapshot

        def block_stats(block):
            out = real_stats(block)
            ran.append(len(block))
            if len(ran) == last:
                earlier_ran.set()
            return out

        def gen_snapshot(plan, step, on_step):
            def landed(i, rows):
                if i == last:  # its rows are drawn; every earlier block is fitted
                    assert earlier_ran.wait(timeout=10)
                on_step(i, rows)

            return real_gen(plan, step, on_step=landed)

        want = [r.shift for r in aa.run_adaptation(_run_config(self.PLAN))]
        monkeypatch.setattr(orchestrator, "_block_stats", block_stats)
        monkeypatch.setattr(orchestrator, "gen_snapshot", gen_snapshot)
        monkeypatch.setattr(orchestrator, "_cores", lambda: 2)
        got = [r.shift for r in aa.run_adaptation(_run_config(self.PLAN))]
        assert got == want
        ends = [aa.snapshot_meta(self.PLAN, i).n_samples for i in range(self.PLAN.n_steps)]
        assert sorted(ran) == sorted(b - a for a, b in zip([0, *ends], ends))

    def test_a_one_row_first_step_raises_before_anything_is_drawn(self, monkeypatch):
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.001, 1.0), base_samples=999)
        monkeypatch.setattr(orchestrator, "gen_snapshot", None)  # a draw would raise TypeError
        for run in (lambda: aa.run_adaptation(_run_config(plan)),
                    lambda: aa.run_adaptation(_run_config(plan), feature_extractor=lambda s: s.features),
                    lambda: aa.compare_distance_metrics(plan, seeds=(0,), n_samples=10)):
            with pytest.raises(aa.DegenerateInput, match="at least 2 samples to fit, got 1"):
                run()

    def test_a_nan_prototype_in_the_last_block_raises_after_step_1s_shift(self, monkeypatch):
        # Class 7 appears only in the last step's block of new rows.
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8), feature_dim=4,
                             base_samples=50, seed=5)
        _nan_prototype(monkeypatch, 7)
        real_w2 = orchestrator.wasserstein2_gaussian
        outcomes = {}
        for cores in (1, 2, 3):
            shifts = []

            def w2(fit, prev):
                shifts.append((fit.n_samples, prev.n_samples, real_w2(fit, prev)))
                return shifts[-1][2]

            monkeypatch.setattr(orchestrator, "wasserstein2_gaussian", w2)
            monkeypatch.setattr(orchestrator, "_cores", lambda: cores)
            threads = threading.active_count()
            with pytest.raises(aa.InvalidData) as raised:
                aa.run_adaptation(_run_config(plan))
            assert threading.active_count() == threads
            outcomes[cores] = (str(raised.value), shifts)
        assert outcomes[1] == outcomes[2] == outcomes[3]
        message, shifts = outcomes[1]
        assert message == "non-finite values in feature matrix"
        assert [s[:2] for s in shifts] == [(200, 100)] and np.isfinite(shifts[0][2])

    def test_outputs_hold_with_more_threads_than_cores_and_fast_switching(self, monkeypatch):
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, feature_dim=5, base_samples=600, seed=3,
                             steps=tuple(round(0.2 + 0.1 * i, 6) for i in range(9)))

        def outputs():
            shifts = [r.shift for r in aa.run_adaptation(_run_config(plan))]
            return shifts, aa.compare_distance_metrics(plan, seeds=(0, 1), n_samples=300)

        monkeypatch.setattr(orchestrator, "_cores", lambda: 1)
        want = outputs()
        monkeypatch.setattr(orchestrator, "_cores", lambda: 8)  # 8 threads, 9 steps
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = outputs()
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_a_js_error_at_seed_0_stops_the_call_before_seed_1_is_drawn(self, monkeypatch):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8), feature_dim=4,
                             base_samples=400, seed=7)
        drawn = []  # the plan seed of each draw
        real_gen = orchestrator.gen_snapshot

        def gen_snapshot(plan, step, on_step):
            drawn.append(plan.seed)
            return real_gen(plan, step, on_step=on_step)

        def js(fit, base, z, sq):
            raise aa.NotSPD("seed 0")

        monkeypatch.setattr(orchestrator, "gen_snapshot", gen_snapshot)
        monkeypatch.setattr(orchestrator, "_js_from_draws", js)
        monkeypatch.setattr(orchestrator, "_cores", lambda: 2)
        threads = threading.active_count()
        with pytest.raises(aa.NotSPD, match="seed 0"):
            aa.compare_distance_metrics(plan, seeds=(0, 1), n_samples=200)
        assert drawn == [0]
        assert threading.active_count() == threads

    def test_every_task_of_a_seed_finishes_before_the_next_seed_is_drawn(self, monkeypatch):
        # Slow tasks: a draw of seed 1 that overlapped seed 0's would find some unfinished.
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.4, 0.7, 1.0),
                             feature_dim=4, base_samples=400, seed=9)
        finished, at_draw = [], []  # tasks finished; how many had, at each draw
        real_gen, real_w2, real_js = (orchestrator.gen_snapshot, orchestrator.wasserstein2_gaussian,
                                      orchestrator._js_from_draws)

        def gen_snapshot(plan, step, on_step):
            at_draw.append(len(finished))
            return real_gen(plan, step, on_step=on_step)

        def slow(real):
            def task(*args):
                time.sleep(0.05)
                out = real(*args)
                finished.append(real.__name__)
                return out

            return task

        want = aa.compare_distance_metrics(plan, seeds=(0, 1), n_samples=200)
        monkeypatch.setattr(orchestrator, "gen_snapshot", gen_snapshot)
        monkeypatch.setattr(orchestrator, "wasserstein2_gaussian", slow(real_w2))
        monkeypatch.setattr(orchestrator, "_js_from_draws", slow(real_js))
        monkeypatch.setattr(orchestrator, "_cores", lambda: 2)
        assert aa.compare_distance_metrics(plan, seeds=(0, 1), n_samples=200) == want
        tasks = 2 * (plan.n_steps - 1)  # a W2 and a JS per later step
        assert at_draw == [0, tasks]
        assert len(finished) == 2 * tasks


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

    def test_zero_samples_raise_before_anything_is_drawn(self, monkeypatch):
        def gen_snapshot(*args):
            raise AssertionError("a snapshot was drawn")

        monkeypatch.setattr(orchestrator, "gen_snapshot", gen_snapshot)
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4), feature_dim=4, seed=7)
        with pytest.raises(aa.InvalidData, match="n_samples must be positive, got 0"):
            aa.compare_distance_metrics(plan, seeds=(0,), n_samples=0)

    def test_a_bad_seed_raises_before_anything_is_drawn(self, monkeypatch):
        # Seed 0 used to be drawn in full before seed -1 was rejected. Seed
        # 2**32 used to be accepted, with seed 0's JS draws.
        def gen_snapshot(*args, **kwargs):
            raise AssertionError("a snapshot was drawn")

        monkeypatch.setattr(orchestrator, "gen_snapshot", gen_snapshot)
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4), feature_dim=4, seed=7)
        for seed, message in ((-1, "seed must be >= 0, got -1"),
                              (2**32, r"seed must be < 2\*\*32, got 4294967296")):
            with pytest.raises(aa.InvalidConfig, match=message):
                aa.compare_distance_metrics(plan, seeds=(0, seed), n_samples=10)

    def test_no_w2_task_starts_before_the_draw_returns(self, monkeypatch):
        # The draw hands over its last block only once every earlier block is
        # fitted, then waits a little for a W2 task, which a W2 queued as fits
        # land would start.
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.4, 0.55, 0.7, 0.85, 1.0),
                             feature_dim=4, base_samples=400, seed=9)
        last = plan.n_steps - 1
        earlier_ran, w2_started = threading.Event(), threading.Event()
        ran, drawn, starts = [], [False], []  # starts: whether the draw had returned, per W2 task
        real_stats, real_gen, real_w2 = (orchestrator._block_stats, orchestrator.gen_snapshot,
                                         orchestrator.wasserstein2_gaussian)

        def block_stats(block):
            out = real_stats(block)
            ran.append(len(block))
            if len(ran) == last:
                earlier_ran.set()
            return out

        def gen_snapshot(plan, step, on_step):
            def landed(i, rows):
                if i == last:
                    assert earlier_ran.wait(timeout=10)
                    time.sleep(0.05)  # so that their tasks read as done
                on_step(i, rows)
                if i == last:
                    w2_started.wait(timeout=0.5)

            out = real_gen(plan, step, on_step=landed)
            drawn[0] = True
            return out

        def w2(fit, base):
            starts.append(drawn[0])
            w2_started.set()
            return real_w2(fit, base)

        want = aa.compare_distance_metrics(plan, seeds=(0,), n_samples=200)
        monkeypatch.setattr(orchestrator, "_block_stats", block_stats)
        monkeypatch.setattr(orchestrator, "gen_snapshot", gen_snapshot)
        monkeypatch.setattr(orchestrator, "wasserstein2_gaussian", w2)
        monkeypatch.setattr(orchestrator, "_cores", lambda: 2)
        assert aa.compare_distance_metrics(plan, seeds=(0,), n_samples=200) == want
        assert starts == [True] * last

    def test_the_js_draws_follow_the_queued_w2_tasks(self, monkeypatch):
        # The JS seed is derived only once a W2 task of the seed has started.
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.4, 0.7, 1.0),
                             feature_dim=4, base_samples=400, seed=9)
        w2_started = threading.Event()
        real_w2, real_derive = orchestrator.wasserstein2_gaussian, orchestrator.derive_seed

        def w2(fit, base):
            w2_started.set()
            return real_w2(fit, base)

        def derive_seed(master, *tags):
            if tags == ("js",):
                assert w2_started.wait(timeout=10), "the JS draws came before the W2 tasks"
            return real_derive(master, *tags)

        want = aa.compare_distance_metrics(plan, seeds=(0,), n_samples=200)
        monkeypatch.setattr(orchestrator, "wasserstein2_gaussian", w2)
        monkeypatch.setattr(orchestrator, "derive_seed", derive_seed)
        monkeypatch.setattr(orchestrator, "_cores", lambda: 2)
        assert aa.compare_distance_metrics(plan, seeds=(0,), n_samples=200) == want

    def test_base_root_is_taken_once_per_seed(self, monkeypatch):
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.4, 0.55, 0.7, 0.85, 1.0),
                             feature_dim=6, base_samples=900, seed=9)
        # Reference: the public W2 of each step against the base, per seed.
        want = [0.0] * (plan.n_steps - 1)
        ends = [aa.snapshot_meta(plan, i).n_samples for i in range(plan.n_steps)]
        for seed in (4, 5):
            fits = aa.fit_prefixes(aa.gen_snapshot(dataclasses.replace(plan, seed=seed),
                                                   plan.n_steps - 1).features, ends)
            for j, fit in enumerate(fits[1:]):
                want[j] += aa.wasserstein2_gaussian(fit, fits[0])
        calls = []  # the base factor's, taken by compare_distance_metrics itself
        real_chol = orchestrator._chol

        def counted(g, what):
            calls.append(g.cov.shape)
            return real_chol(g, what)

        monkeypatch.setattr(orchestrator, "_chol", counted)
        monkeypatch.setattr(orchestrator, "_cores", lambda: 2)
        rows = aa.compare_distance_metrics(plan, seeds=(4, 5), n_samples=300)
        assert len(calls) == 2  # not 2 * (n_steps - 1)
        assert [row["wd"] for row in rows] == [w / 2 for w in want]

    def test_js_shares_the_base_factor(self, monkeypatch):
        # One factor per fit, kept on it for both its W2 and its JS: the base's
        # and each later step's, 1 + 4 for five steps.
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.4, 0.55, 0.7, 0.85, 1.0),
                             feature_dim=6, base_samples=900, seed=9)
        want = aa.compare_distance_metrics(plan, seeds=(4,), n_samples=300)
        calls = []
        real_cholesky = np.linalg.cholesky

        def counted(a):
            calls.append(a.shape)
            return real_cholesky(a)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        monkeypatch.setattr(orchestrator, "_cores", lambda: 2)
        assert aa.compare_distance_metrics(plan, seeds=(4,), n_samples=300) == want
        assert calls == [(6, 6)] * plan.n_steps

    def test_base_root_is_taken_on_the_calling_thread(self, monkeypatch):
        # A base factor taken in the pool makes every W2 task wait on another task.
        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.4, 0.7, 1.0),
                             feature_dim=4, base_samples=400, seed=9)
        threads = []
        real_chol = orchestrator._chol

        def recorded(g, what):
            threads.append(threading.current_thread())
            return real_chol(g, what)

        monkeypatch.setattr(orchestrator, "_chol", recorded)
        monkeypatch.setattr(orchestrator, "_cores", lambda: 2)
        aa.compare_distance_metrics(plan, seeds=(4, 5, 6), n_samples=200)
        assert threads == [threading.current_thread()] * 3

    @pytest.mark.parametrize("plan", [
        aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.4, 0.55, 0.7, 0.85, 1.0),
                      feature_dim=6, base_samples=900, seed=9),
        aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8), feature_dim=4,
                      base_samples=400, seed=7),
    ], ids=["volume", "class"])
    def test_rows_are_the_public_distances_with_one_js_seed_per_seed(self, plan):
        # Reference: each step's public W2 and JS against the base, summed in
        # seed order; every step of a seed draws from the seed's one JS seed.
        seeds, n_samples = (4, 5), 700
        want = [[0.0, 0.0] for _ in range(1, plan.n_steps)]
        for seed in seeds:
            seeded = dataclasses.replace(plan, seed=seed)
            last = aa.gen_snapshot(seeded, plan.n_steps - 1)
            fits = aa.fit_prefixes(last.features, [aa.snapshot_meta(seeded, i).n_samples
                                                   for i in range(plan.n_steps)])
            for pair, fit in zip(want, fits[1:]):
                pair[0] += aa.wasserstein2_gaussian(fit, fits[0])
                pair[1] += aa.js_divergence_mc(fit, fits[0], n_samples=n_samples,
                                               seed=orchestrator.derive_seed(seed, "js"))
        rows = aa.compare_distance_metrics(plan, seeds=seeds, n_samples=n_samples)
        assert rows == [{"step": j, "wd": wd / 2, "js": js / 2}
                        for j, (wd, js) in enumerate(want, start=1)]

    def test_every_step_of_a_seed_shares_one_set_of_draws(self, monkeypatch):
        from test_gaussian import TestJS  # a sibling test module

        plan = aa.GrowthPlan(scenario=aa.VOLUME_GROWTH, steps=(0.4, 0.7, 1.0),
                             feature_dim=4, base_samples=400, seed=9)
        seeds, n_samples = (4, 5), 300
        calls = []  # (fit, base, z, sq, the base's kept factor) of each JS task
        real_js = orchestrator._js_from_draws

        def js(fit, base, z, sq):
            calls.append((fit, base, z, sq, vars(base).get("_factor")))
            return real_js(fit, base, z, sq)

        monkeypatch.setattr(orchestrator, "_js_from_draws", js)
        monkeypatch.setattr(orchestrator, "_cores", lambda: 2)
        aa.compare_distance_metrics(plan, seeds=seeds, n_samples=n_samples)
        js_seeds = [orchestrator.derive_seed(seed, "js") for seed in seeds]
        # A JS task's seed, by the first of the seed's shared draws.
        seed_of = {np.random.default_rng(s).standard_normal(): s for s in js_seeds}
        tasks = {s: [] for s in js_seeds}
        for call in calls:
            tasks[seed_of[call[2][0, 0]]].append(call)
        for js_seed, seed_tasks in tasks.items():
            assert len(seed_tasks) == plan.n_steps - 1
            for k in (1, 2, 3, 4):  # one base fit, z, sq and base factor object per seed
                assert len({id(call[k]) for call in seed_tasks}) == 1
            _, base, z, sq, factor = seed_tasks[0]
            assert np.array_equal(z, np.random.default_rng(js_seed).standard_normal((n_samples, 4)))
            assert np.array_equal(sq, np.sum(z * z, axis=1))
            assert np.array_equal(factor, np.linalg.cholesky(base.cov))
            for fit, *_ in seed_tasks:
                assert real_js(fit, base, z, sq) == TestJS._whole_array_reference(
                    fit, base, n_samples, js_seed)

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

    @pytest.mark.parametrize("nan_block", [False, True], ids=["root", "root_then_nan_block"])
    def test_a_base_root_error_is_raised_after_the_draw(self, monkeypatch, nan_block):
        # The base factor is taken once the draw is fitted, so a later step's fit
        # error comes before it.
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8), feature_dim=4,
                             base_samples=50, seed=5)  # class 7 is only in the last block

        def root(g, what):
            raise aa.NotSPD("base root")

        if nan_block:
            _nan_prototype(monkeypatch, 7)
        monkeypatch.setattr(orchestrator, "_chol", root)
        monkeypatch.setattr(orchestrator, "_cores", lambda: 2)
        threads = threading.active_count()
        with pytest.raises(aa.InvalidData if nan_block else aa.NotSPD,
                           match="non-finite values" if nan_block else "base root"):
            aa.compare_distance_metrics(plan, seeds=(0,), n_samples=200)
        assert threading.active_count() == threads

    def test_a_failing_step_raises_its_error_in_the_caller(self, monkeypatch):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 6, 8),
                             feature_dim=4, seed=7, base_samples=400)
        step2_rows = aa.snapshot_meta(plan, 2).n_samples
        real_js = orchestrator._js_from_draws

        def js(fit, base, z, sq):
            if fit.n_samples == step2_rows:
                raise aa.NotSPD("step 2")
            return real_js(fit, base, z, sq)

        monkeypatch.setattr(orchestrator, "_js_from_draws", js)
        monkeypatch.setattr(orchestrator, "_cores", lambda: 2)
        threads = threading.active_count()
        with pytest.raises(aa.NotSPD, match="step 2"):
            aa.compare_distance_metrics(plan, seeds=(0,), n_samples=200)
        assert threading.active_count() == threads

    def _compare_with_js_hook(self, monkeypatch, plan, hook):
        """compare_distance_metrics of seed 0 on three cores, calling hook(step)
        in place of each step's JS; no thread outlives the call."""
        steps = {aa.snapshot_meta(plan, j).n_samples: j for j in range(1, plan.n_steps)}

        def js(fit, base, z, sq):
            hook(steps[fit.n_samples])
            return 0.0

        monkeypatch.setattr(orchestrator, "_js_from_draws", js)
        monkeypatch.setattr(orchestrator, "_cores", lambda: 3)
        threads = threading.active_count()
        try:
            return aa.compare_distance_metrics(plan, seeds=(0,), n_samples=200)
        finally:
            assert threading.active_count() == threads

    def test_one_step_plan_gives_no_rows(self, monkeypatch):
        # A pool of min(n_steps - 1, cores) = 0 threads would raise ValueError.
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2,), feature_dim=4,
                             seed=7, base_samples=400)
        assert self._compare_with_js_hook(monkeypatch, plan, lambda step: None) == []

    def test_earliest_failing_step_is_raised_when_a_later_one_fails_first(self, monkeypatch):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 6, 8),
                             feature_dim=4, seed=7, base_samples=400)
        three_failed = threading.Event()

        def fails(step):
            if step == 3:
                three_failed.set()
                raise aa.InvalidData("step 3")
            if step == 2:
                assert three_failed.wait(timeout=10)
                time.sleep(0.2)  # step 3's error is stored well before this one
                raise aa.NotSPD("step 2")

        with pytest.raises(aa.NotSPD, match="step 2"):
            self._compare_with_js_hook(monkeypatch, plan, fails)
        assert three_failed.is_set()

    def test_interrupt_in_a_step_reaches_the_caller(self, monkeypatch):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 6, 8),
                             feature_dim=4, seed=7, base_samples=400)

        def fails(step):
            if step == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            self._compare_with_js_hook(monkeypatch, plan, fails)

    def test_core_count_without_affinity_call(self, monkeypatch):
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

    @pytest.mark.parametrize("lam", [-1e-3, float("nan"), float("inf")])
    def test_bad_lambda_raises_before_anything_is_drawn(self, monkeypatch, lam):
        # Such a lambda used to pass the snapshots, fits and oracle first.
        def no_draws(*args):
            raise AssertionError("a snapshot was drawn")

        monkeypatch.setattr(orchestrator, "gen_snapshot", no_draws)
        with pytest.raises(aa.InvalidConfig, match="lam"):
            aa.lambda_sweep(self._cfg(), (0.0, lam))

    def test_every_row_decodes_under_one_condition(self, monkeypatch):
        calls = []
        embed_state = orchestrator.embed_state
        monkeypatch.setattr(orchestrator, "embed_state",
                            lambda *args: calls.append(args) or embed_state(*args))
        rows = aa.lambda_sweep(self._cfg(), (0.0, 1e-3, 1e-2))
        assert len(rows) == 3 and len(calls) == 1

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
