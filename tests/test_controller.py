"""Tests for the policy controller: sampling, gradients, updates, training."""

import dataclasses
import itertools

import numpy as np
import pytest

import archadapt as aa
from archadapt.controller import (
    TrainerConfig,
    TrainerState,
    _advance_baseline,
    arch_onehot,
    bucket_index,
    default_bucket_edges,
    objective_gradients,
    objective_value,
    write_trace,
)
from archadapt.datagen import SnapshotMeta

TOY = aa.SpaceConfig(
    n_units=2, depth_choices=(2, 3), kernel_choices=(3, 5),
    expansion_choices=(3,), input_resolution=32,
    stem_channels=16, unit_out_channels=(16, 24), unit_strides=(2, 2))

TINY = aa.SpaceConfig(
    n_units=1, depth_choices=(2, 3), kernel_choices=(3, 5),
    expansion_choices=(3, 6), input_resolution=16,
    stem_channels=8, unit_out_channels=(8,), unit_strides=(2,))

SMALL_CFG = TrainerConfig(hidden_size=16, encoder_hidden=16, arch_embed_dim=8,
                          shift_embed_dim=4, token_embed_dim=8)


def _pstate(params, cfg, space=TOY, shift=1.0):
    return aa.embed_state(params, aa.min_arch(space), shift, cfg)


def _toy_meta():
    return SnapshotMeta(t=1, n_classes=1, n_samples=500,
                        volume_fraction=1.0, max_classes=4)


def _check_ascent_step(batch_size, **overrides):
    """One plain-ascent iteration without a baseline moves the parameters by
    lr times the mean of the sampled trajectories' gradients, each taken at
    its own reward. Returns those gradients."""
    meta = _toy_meta()
    evaluate = aa.make_evaluator(
        aa.SurrogateConfig(bump_width=0.3, opt_intercept=0.85, depth_penalty=0.05), TOY)
    cfg = dataclasses.replace(SMALL_CFG, iterations=1, batch_size=batch_size, lam=0.01,
                              use_baseline=False, use_adam=False,
                              learning_rate=0.05, seed=4, **overrides)
    prev = aa.min_arch(TOY)
    params = aa.init_params(TOY, cfg, seed=4)
    pstate = aa.embed_state(params, prev, 1.0, cfg)
    rng = np.random.default_rng(cfg.seed)
    grads = []
    for _ in range(batch_size):
        traj = aa.sample(params, pstate, rng)
        r = aa.reward(evaluate(traj.arch, meta), evaluate(prev, meta),
                      aa.madds(traj.arch, TOY), aa.madds(prev, TOY), cfg.lam, 1.0)
        grads.append(objective_gradients(params, traj, r, cfg))
    before = {k: v.copy() for k, v in params.arrays.items()}
    updated, _ = aa.train(params, prev, 1.0, meta, evaluate, cfg)
    for key in before:
        expected = before[key] + cfg.learning_rate * sum(g[key] for g in grads) / batch_size
        assert np.allclose(updated.arrays[key], expected, rtol=0, atol=1e-15), key
    return grads


class TestReward:
    def test_no_change_is_zero(self):
        assert aa.reward(0.7, 0.7, 200.0, 200.0, lam=2.5e-4, shift=0.5) == 0.0

    def test_worked_example(self):
        # 0.1 - (2.5e-4 / 0.5) * 100 = 0.05
        r = aa.reward(0.8, 0.7, 300.0, 200.0, lam=2.5e-4, shift=0.5)
        assert r == pytest.approx(0.05, abs=1e-15)

    def test_increasing_in_shift_when_cost_grows(self):
        rewards = [aa.reward(0.8, 0.7, 300.0, 200.0, lam=2.5e-4, shift=d)
                   for d in (0.1, 0.5, 2.0, 10.0)]
        assert all(a < b for a, b in zip(rewards, rewards[1:]))

    def test_zero_shift_raises(self):
        with pytest.raises(aa.DivisionByZeroShift):
            aa.reward(0.8, 0.7, 300.0, 200.0, lam=2.5e-4, shift=0.0)

    def test_negative_shift_raises(self):
        with pytest.raises(aa.DivisionByZeroShift):
            aa.reward(0.8, 0.7, 300.0, 200.0, lam=2.5e-4, shift=-1.0)

    def test_zero_lam_ignores_shift(self):
        assert aa.reward(0.8, 0.7, 300.0, 200.0, lam=0.0, shift=0.5) == \
            pytest.approx(0.1)


class TestBuckets:
    def test_default_edges_count(self):
        edges = default_bucket_edges(8)
        assert len(edges) == 7
        assert list(edges) == sorted(edges)

    def test_clamps_below_and_above(self):
        cfg = dataclasses.replace(SMALL_CFG, bucket_count=8,
                                  bucket_edges=tuple(np.logspace(-2, 2, 7)))
        assert bucket_index(1e-9, cfg) == 0
        assert bucket_index(1e9, cfg) == 7

    def test_monotone_in_shift(self):
        cfg = dataclasses.replace(SMALL_CFG, bucket_count=8,
                                  bucket_edges=tuple(np.logspace(-2, 2, 7)))
        idx = [bucket_index(s, cfg) for s in np.logspace(-3, 3, 25)]
        assert idx == sorted(idx)

    def test_all_buckets_reachable(self):
        cfg = dataclasses.replace(SMALL_CFG, bucket_count=4,
                                  bucket_edges=(1.0, 2.0, 3.0))
        got = {bucket_index(s, cfg) for s in (0.5, 1.5, 2.5, 3.5)}
        assert got == {0, 1, 2, 3}


class TestSampling:
    def test_round_trip_valid_arch(self):
        params = aa.init_params(TOY, SMALL_CFG, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            traj = aa.sample(params, _pstate(params, SMALL_CFG), rng)
            assert aa.decode(aa.encode(traj.arch), TOY) == traj.arch

    def test_deterministic_given_rng_seed(self):
        params = aa.init_params(TOY, SMALL_CFG, seed=0)
        t1 = aa.sample(params, _pstate(params, SMALL_CFG),
                       np.random.default_rng(42))
        t2 = aa.sample(params, _pstate(params, SMALL_CFG),
                       np.random.default_rng(42))
        assert t1.arch == t2.arch
        assert t1.log_prob == t2.log_prob

    def test_score_recovers_sample_log_prob(self):
        params = aa.init_params(TOY, SMALL_CFG, seed=3)
        pstate = _pstate(params, SMALL_CFG)
        rng = np.random.default_rng(7)
        for _ in range(20):
            traj = aa.sample(params, pstate, rng)
            scored = aa.score(params, pstate, traj.arch)
            assert scored.log_prob == pytest.approx(traj.log_prob, abs=1e-12)
            assert scored.entropy == pytest.approx(traj.entropy, abs=1e-12)

    def test_normalization_random_params(self):
        params = aa.init_params(TOY, SMALL_CFG, seed=11)
        pstate = _pstate(params, SMALL_CFG)
        total = sum(np.exp(aa.score(params, pstate, arch).log_prob)
                    for arch in aa.enumerate_space(TOY))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_near_uniform_sampling_at_small_init(self):
        # Init weights are tiny, so the policy starts near uniform over
        # the 12 per-unit choices... over full archs the depth weighting
        # matters; just chi-square the sampled archs against the policy's
        # own scored probabilities.
        params = aa.init_params(TOY, SMALL_CFG, seed=5)
        pstate = _pstate(params, SMALL_CFG)
        space = aa.enumerate_space(TOY)
        probs = np.array([np.exp(aa.score(params, pstate, a).log_prob)
                          for a in space])
        index = {a: i for i, a in enumerate(space)}
        rng = np.random.default_rng(6)
        n_draws = 50000
        counts = np.zeros(len(space))
        for _ in range(n_draws):
            counts[index[aa.sample(params, pstate, rng).arch]] += 1
        expected = probs * n_draws
        chi2 = np.sum((counts - expected) ** 2 / expected)
        dof = len(space) - 1
        assert chi2 < dof + 4 * np.sqrt(2 * dof)


class TestGreedy:
    def test_idempotent(self):
        params = aa.init_params(TOY, SMALL_CFG, seed=9)
        pstate = _pstate(params, SMALL_CFG)
        a = aa.greedy_decode(params, pstate)
        b = aa.greedy_decode(params, pstate)
        assert a == b

    def test_uniform_params_tie_break_to_minimal(self):
        params = aa.init_params(TOY, SMALL_CFG, seed=0)
        zeroed = params.copy()
        for key in zeroed.arrays:
            zeroed.arrays[key] = np.zeros_like(zeroed.arrays[key])
        arch = aa.greedy_decode(zeroed, _pstate(zeroed, SMALL_CFG))
        assert arch == aa.min_arch(TOY)

    def test_greedy_is_modal_choice(self):
        # Greedy picks argmax at every decision. Checkable through the
        # public API: for any other architecture, at the first decision
        # where it diverges from the greedy path both trajectories share
        # a prefix, hence the same conditional distribution, so the
        # greedy branch's probability must be at least as large.
        params = aa.init_params(TOY, SMALL_CFG, seed=13)
        pstate = _pstate(params, SMALL_CFG)
        greedy = aa.greedy_decode(params, pstate)
        greedy_traj = aa.score(params, pstate, greedy)
        for arch in aa.enumerate_space(TOY):
            if arch == greedy:
                continue
            other = aa.score(params, pstate, arch)
            for gd, od in zip(greedy_traj.decisions, other.decisions):
                if gd.choice != od.choice:
                    assert gd.log_prob >= od.log_prob - 1e-12
                    break


class TestGradients:
    def _fd_check(self, space, cfg, seed, arch=None):
        params = aa.init_params(space, cfg, seed=seed)
        pstate = aa.embed_state(params, aa.min_arch(space), 1.0, cfg)
        if arch is None:
            traj = aa.sample(params, pstate, np.random.default_rng(seed))
        else:
            traj = aa.score(params, pstate, arch)
        advantage = 0.37
        grads = objective_gradients(params, traj, advantage, cfg)
        step = 1e-5
        worst = 0.0
        for key, g in grads.items():
            arr = params.arrays[key]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                up = objective_value(params, traj, advantage, cfg)
                arr[idx] = orig - step
                dn = objective_value(params, traj, advantage, cfg)
                arr[idx] = orig
                fd = (up - dn) / (2 * step)
                an = g[idx]
                # Relative 1e-4 with a 1e-6 floor: gradients below the
                # floor are compared at the central-difference noise
                # scale (~1e-10) instead of a vanishing relative band.
                tol = 1e-4 * max(abs(an), abs(fd), 1e-6)
                worst = max(worst, abs(an - fd) - tol)
                assert abs(an - fd) <= tol, (key, idx, an, fd)
        return worst

    def test_matches_finite_differences_tiny(self):
        cfg = TrainerConfig(hidden_size=4, encoder_hidden=4, arch_embed_dim=3,
                            shift_embed_dim=2, token_embed_dim=3,
                            entropy_weight=1e-3, weight_decay=1e-3)
        self._fd_check(TINY, cfg, seed=1)

    def test_matches_finite_differences_repeated_tokens(self):
        # Two units; kernel 3 feeds three steps and the single expansion
        # token feeds five, so several steps add into the same embedding
        # row and the scatter must accumulate rather than overwrite.
        cfg = TrainerConfig(hidden_size=4, encoder_hidden=4, arch_embed_dim=3,
                            shift_embed_dim=2, token_embed_dim=3,
                            entropy_weight=1e-3, weight_decay=1e-3)
        arch = aa.decode("k3e3,k3e3;k5e3,k3e3,k5e3", TOY)
        kernels = [k for unit in arch.units for k, _ in unit]
        assert kernels.count(3) == 3
        self._fd_check(TOY, cfg, seed=2, arch=arch)

    def test_rejects_nonfinite_reward(self):
        cfg = dataclasses.replace(SMALL_CFG, iterations=2)
        params = aa.init_params(TINY, cfg, seed=0)
        before = params.flat.copy()
        with pytest.raises(aa.NumericalError):
            aa.train(params, aa.min_arch(TINY), 1.0, _toy_meta(),
                     lambda arch, meta: float("nan"), cfg)
        assert np.array_equal(params.flat, before)


class TestNonFinite:
    def _fixture(self):
        evaluate = aa.make_evaluator(aa.SurrogateConfig(), TOY)
        cfg = dataclasses.replace(SMALL_CFG, iterations=3, seed=0)
        return _toy_meta(), evaluate, cfg

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_sampler_rejects_infinite_logit(self):
        params = aa.init_params(TOY, SMALL_CFG, seed=0)
        params.arrays["head_depth_b"][0] = np.inf
        pstate = _pstate(params, SMALL_CFG)
        with pytest.raises(aa.NumericalError):
            aa.sample(params, pstate, np.random.default_rng(0))
        with pytest.raises(aa.NumericalError):
            aa.greedy_decode(params, pstate)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_train_rejects_infinite_logit(self):
        meta, evaluate, cfg = self._fixture()
        params = aa.init_params(TOY, cfg, seed=0)
        params.arrays["head_kernel_w"][1, 0] = np.inf
        with pytest.raises(aa.NumericalError):
            aa.train(params, aa.min_arch(TOY), 1.0, meta, evaluate, cfg)

    def test_train_rejects_nonfinite_gradient_before_updating(self):
        # An unused shift bucket leaves the forward pass finite, but weight
        # decay makes its gradient infinite: the update must refuse it.
        meta, evaluate, cfg = self._fixture()
        params = aa.init_params(TOY, cfg, seed=0)
        unused = (bucket_index(1.0, cfg) + 1) % cfg.bucket_count
        params.arrays["shift_emb"][unused, 0] = np.inf
        before = params.flat.copy()
        with pytest.raises(aa.NumericalError, match="shift_emb"):
            aa.train(params, aa.min_arch(TOY), 1.0, meta, evaluate, cfg)
        assert np.array_equal(params.flat, before)


class TestUpdates:
    def test_zero_advantage_no_entropy_no_decay_is_identity(self):
        # A constant evaluator with lam 0 gives reward 0 for every sample.
        cfg = dataclasses.replace(SMALL_CFG, entropy_weight=0.0,
                                  weight_decay=0.0, use_baseline=False,
                                  use_adam=False, lam=0.0, iterations=3)
        params = aa.init_params(TINY, cfg, seed=2)
        before = params.flat.copy()
        updated, _ = aa.train(params, aa.min_arch(TINY), 1.0, _toy_meta(),
                              lambda arch, meta: 0.7, cfg)
        assert np.array_equal(updated.flat, before)

    def test_plain_sgd_matches_closed_form(self):
        # With the baseline, the adaptive rule, entropy and weight decay off,
        # one sample moves the parameters by exactly lr * R * grad(log pi).
        _check_ascent_step(1, entropy_weight=0.0, weight_decay=0.0)

    def test_baseline_ema(self):
        cfg = dataclasses.replace(SMALL_CFG, baseline_decay=0.9)
        state = TrainerState()
        assert _advance_baseline(state, 1.0, cfg) == 0.0
        assert state.baseline == pytest.approx(1.0)  # init to first reward
        assert _advance_baseline(state, 0.0, cfg) == pytest.approx(-1.0)
        assert state.baseline == pytest.approx(0.9 * 1.0 + 0.1 * 0.0)
        no_baseline = dataclasses.replace(cfg, use_baseline=False)
        assert _advance_baseline(state, 0.25, no_baseline) == 0.25
        assert state.baseline == pytest.approx(0.9)


class TestTrain:
    def _fixture(self):
        scfg = aa.SurrogateConfig(bump_width=0.3, opt_intercept=0.85,
                                  depth_penalty=0.05)
        return _toy_meta(), aa.make_evaluator(scfg, TOY)

    def test_single_iteration_single_update(self):
        meta, evaluate = self._fixture()
        cfg = dataclasses.replace(SMALL_CFG, iterations=1, lam=0.0, seed=0)
        params = aa.init_params(TOY, cfg, seed=0)
        before = {k: v.copy() for k, v in params.arrays.items()}
        updated, trace = aa.train(params, aa.min_arch(TOY), 1.0, meta,
                                  evaluate, cfg)
        assert len(trace) == 1
        changed = any(not np.array_equal(updated.arrays[k], before[k])
                      for k in before)
        assert changed

    def test_trace_rows_well_formed(self):
        meta, evaluate = self._fixture()
        cfg = dataclasses.replace(SMALL_CFG, iterations=5, lam=0.0, seed=1)
        params = aa.init_params(TOY, cfg, seed=1)
        _, trace = aa.train(params, aa.min_arch(TOY), 1.0, meta, evaluate, cfg)
        assert [r.iteration for r in trace] == list(range(5))
        for row in trace:
            assert np.isfinite(row.reward)
            assert row.entropy >= 0.0
            assert row.madds > 0.0

    def test_learns_on_toy_landscape(self):
        meta, evaluate = self._fixture()
        cfg = TrainerConfig(learning_rate=0.005, iterations=800, lam=0.0,
                            hidden_size=32, encoder_hidden=32,
                            arch_embed_dim=16, shift_embed_dim=8,
                            token_embed_dim=16, entropy_weight=2e-4, seed=0)
        params = aa.init_params(TOY, cfg, seed=1000)
        params, trace = aa.train(params, aa.min_arch(TOY), 1.0, meta,
                                 evaluate, cfg)
        first = np.mean([r.reward for r in trace[:100]])
        last = np.mean([r.reward for r in trace[-100:]])
        assert last > first

    def test_deterministic_for_seed(self):
        meta, evaluate = self._fixture()
        cfg = dataclasses.replace(SMALL_CFG, iterations=20, lam=0.0, seed=3)
        p1 = aa.init_params(TOY, cfg, seed=3)
        p2 = aa.init_params(TOY, cfg, seed=3)
        u1, t1 = aa.train(p1, aa.min_arch(TOY), 1.0, meta, evaluate, cfg)
        u2, t2 = aa.train(p2, aa.min_arch(TOY), 1.0, meta, evaluate, cfg)
        for key in u1.arrays:
            assert np.array_equal(u1.arrays[key], u2.arrays[key])
        assert [r.reward for r in t1] == [r.reward for r in t2]

    def test_batch_applies_mean_gradient(self):
        grads = _check_ascent_step(2)
        assert any(not np.allclose(grads[0][k], grads[1][k]) for k in grads[0])

    def test_shift_conditions_policy(self):
        # Different observed shifts land in different buckets and must
        # produce different policies.
        params = aa.init_params(TOY, SMALL_CFG, seed=6)
        cfg = dataclasses.replace(
            SMALL_CFG, bucket_edges=tuple(np.logspace(-2, 2, 7)))
        near = aa.embed_state(params, aa.min_arch(TOY), 0.005, cfg)
        far = aa.embed_state(params, aa.min_arch(TOY), 50.0, cfg)
        assert near.bucket != far.bucket
        arch = aa.min_arch(TOY)
        assert aa.score(params, near, arch).log_prob != aa.score(params, far, arch).log_prob


class TestArchEncoding:
    def test_onehot_layout(self):
        # Per unit: depth one-hot, then per layer slot a kernel one-hot and
        # an expansion one-hot, each with a trailing off slot.
        arch = aa.decode("k5e3,k3e3;k3e3,k5e3,k5e3", TOY)
        vec = arch_onehot(arch, TOY)
        unit0 = [1, 0] + [0, 1, 0, 1, 0] + [1, 0, 0, 1, 0] + [0, 0, 1, 0, 1]
        unit1 = [0, 1] + [1, 0, 0, 1, 0] + [0, 1, 0, 1, 0] + [0, 1, 0, 1, 0]
        assert vec.tolist() == unit0 + unit1

    def test_wrong_unit_count_is_shape_error(self):
        params = aa.init_params(TOY, SMALL_CFG, seed=0)
        one_unit = aa.Architecture(units=(((3, 3), (3, 3)),))
        with pytest.raises(aa.ShapeError):
            arch_onehot(one_unit, TOY)
        with pytest.raises(aa.ShapeError):
            aa.score(params, _pstate(params, SMALL_CFG), one_unit)
        with pytest.raises(aa.ShapeError):
            aa.embed_state(params, one_unit, 1.0, SMALL_CFG)

    def test_token_outside_choices_is_invalid_token(self):
        bad = aa.Architecture(units=(((3, 3), (7, 3)), ((3, 3), (3, 3))))
        with pytest.raises(aa.InvalidToken):
            arch_onehot(bad, TOY)


class TestFlatBuffer:
    def test_arrays_are_views_of_flat(self):
        params = aa.init_params(TOY, SMALL_CFG, seed=0)
        flat = params.flat
        assert flat.size == sum(a.size for a in params.arrays.values())
        params.arrays["gru_wz"][0, 0] = 123.0
        assert 123.0 in flat
        flat[:] = 0.0
        assert all(not a.any() for a in params.arrays.values())

    def test_replaced_entry_is_repacked(self):
        params = aa.init_params(TOY, SMALL_CFG, seed=0)
        names = list(params.arrays)
        params.arrays["gru_un"] = np.full_like(params.arrays["gru_un"], 2.0)
        flat = params.flat
        assert list(params.arrays) == names
        assert np.shares_memory(params.arrays["gru_un"], flat)
        assert np.all(params.arrays["gru_un"] == 2.0)
        flat[:] = 0.0
        assert not params.arrays["gru_un"].any()

    def test_copy_is_independent(self):
        params = aa.init_params(TOY, SMALL_CFG, seed=0)
        other = params.copy()
        other.flat[:] = 0.0
        assert params.flat.any()
        assert not np.shares_memory(params.flat, other.flat)

    def test_equality_is_a_bool(self):
        # Array fields make field-wise == ambiguous, so params compare by
        # identity; a policy state holds no arrays and compares by value.
        params = aa.init_params(TOY, SMALL_CFG, seed=0)
        assert (params == params.copy()) is False
        assert (params == params) is True
        assert _pstate(params, SMALL_CFG) == _pstate(params.copy(), SMALL_CFG)


class TestTraceFile:
    def test_write_trace_format(self, tmp_path):
        meta = _toy_meta()
        evaluate = aa.make_evaluator(aa.SurrogateConfig(), TOY)
        cfg = dataclasses.replace(SMALL_CFG, iterations=3, seed=0)
        params = aa.init_params(TOY, cfg, seed=0)
        _, trace = aa.train(params, aa.min_arch(TOY), 1.0, meta, evaluate, cfg)
        path = tmp_path / "trace.csv"
        write_trace(path, trace)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,reward,entropy,madds"
        assert len(lines) == 4
