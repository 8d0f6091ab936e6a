"""Tests for the policy controller: sampling, gradients, updates, training."""

import builtins
import dataclasses
import hashlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

import archadapt as aa
from archadapt import controller, search_space
from archadapt.controller import (
    TrainerConfig,
    _advance_baseline,
    _train_many,
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


def _rows(params_list):
    """Parameter sets of one layout as the rows of one (K, P) params object."""
    return params_list[0]._over(np.stack([p.flat for p in params_list]))


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

    def test_nan_shift_raises(self):
        # It used to give a NaN reward.
        with pytest.raises(aa.DivisionByZeroShift):
            aa.reward(0.8, 0.7, 300.0, 200.0, lam=2.5e-4, shift=float("nan"))

    def test_infinite_shift_raises(self):
        # lam / inf is 0: it used to drop the cost penalty.
        with pytest.raises(aa.InvalidData, match="finite"):
            aa.reward(0.8, 0.7, 300.0, 200.0, lam=2.5e-4, shift=float("inf"))

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


class TestEmbedState:
    @pytest.mark.parametrize("shift", [float("nan"), -1.0, float("inf")])
    def test_rejects_a_shift_that_is_not_finite_and_nonnegative(self, shift):
        params = aa.init_params(TOY, SMALL_CFG, seed=0)
        with pytest.raises(aa.InvalidData, match="shift"):
            _pstate(params, SMALL_CFG, shift=shift)


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
        # 50 lockstep rollouts of 1,000 runs, each run the one parameter set
        # (a stride-0 view) drawing from the one rng. Every decision takes a
        # fresh uniform, so the 50,000 draws are i.i.d. as aa.sample's.
        n_runs, n_rounds = 1000, 50
        runs = params._over(np.broadcast_to(params.flat, (n_runs, params.flat.size)))
        enc = controller._encode(runs.arrays, arch_onehot(pstate.prev_arch, TOY), pstate.bucket)
        counts = np.zeros(len(space))
        for _ in range(n_rounds):
            for arch in controller._rollout(runs, enc, rngs=[rng] * n_runs).archs:
                counts[index[arch]] += 1
        n_draws = n_runs * n_rounds
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
        zeroed.flat[:] = 0.0
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


class TestPolicyGradient:
    def test_sampled_mean_matches_exact_expectation(self):
        # REINFORCE is unbiased: the mean of the gradients of N sampled
        # trajectories, each at advantage R(a) - b, converges to the exact
        # sum over the 144 architectures of pi(a) (R(a) - b) grad log pi(a).
        # Per coordinate, z = (mean - exact) / sqrt(var / N), with var the
        # exact variance from the same enumeration, is about N(0, 1) by the
        # CLT. The bound |z| <= 5.5 on all P = 2269 coordinates fails a
        # correct sampler with probability at most P * 2 * (1 - Phi(5.5)),
        # about 1e-4, by the union bound; the seed is fixed, so the outcome
        # is too. A sampler drawing from probs**2, renormalized, gives max
        # |z| near 40. Scaling the initial parameters by 5 makes the policy
        # far from uniform, so such a sampler differs visibly.
        cfg = dataclasses.replace(SMALL_CFG, entropy_weight=0.0, weight_decay=0.0)
        params = aa.init_params(TOY, cfg, seed=7)
        params.flat[:] *= 5.0
        prev, meta = aa.min_arch(TOY), _toy_meta()
        pstate = aa.embed_state(params, prev, 1.0, cfg)
        evaluate = aa.make_evaluator(
            aa.SurrogateConfig(bump_width=0.3, opt_intercept=0.85, depth_penalty=0.05), TOY)
        archs = aa.enumerate_space(TOY)
        assert len(archs) == 144
        rewards = {arch: aa.reward(evaluate(arch, meta), evaluate(prev, meta), aa.madds(arch, TOY),
                                   aa.madds(prev, TOY), 0.01, 1.0) for arch in archs}
        baseline = 0.5 * np.mean(list(rewards.values()))

        def gradient(**how):
            stack, roll = controller._forward(params, pstate, **how)
            return controller._backward(stack, roll, [rewards[roll.archs[0]] - baseline], cfg)[0]

        scored = [aa.score(params, pstate, arch) for arch in archs]
        pi = np.exp([traj.log_prob for traj in scored])
        per_arch = np.array([gradient(actions=[d.choice for d in traj.decisions]) for traj in scored])
        exact = pi @ per_arch
        var = pi @ (per_arch - exact) ** 2

        n, rng = 4000, np.random.default_rng(7)
        mean = sum(gradient(rng=rng) for _ in range(n)) / n
        # The floor keeps coordinates that no architecture moves at z = 0.
        z = (mean - exact) / np.maximum(np.sqrt(var / n), 1e-12)
        assert exact.size == 2269
        assert np.abs(z).max() <= 5.5


class TestNonFinite:
    def _fixture(self):
        evaluate = aa.make_evaluator(aa.SurrogateConfig(), TOY)
        cfg = dataclasses.replace(SMALL_CFG, iterations=3, seed=0)
        return _toy_meta(), evaluate, cfg

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_sampler_rejects_infinite_logit(self):
        params = aa.init_params(TOY, SMALL_CFG, seed=0)
        params.arrays["head_b"][0] = np.inf  # first depth choice
        pstate = _pstate(params, SMALL_CFG)
        with pytest.raises(aa.NumericalError):
            aa.sample(params, pstate, np.random.default_rng(0))
        with pytest.raises(aa.NumericalError):
            aa.greedy_decode(params, pstate)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_train_rejects_infinite_logit(self):
        meta, evaluate, cfg = self._fixture()
        params = aa.init_params(TOY, cfg, seed=0)
        n_d = len(TOY.depth_choices)
        params.arrays["head_w"][n_d + 1, 0] = np.inf  # second kernel choice
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
        # One run's baseline: a one-element vector, NaN before any reward.
        cfg = dataclasses.replace(SMALL_CFG, baseline_decay=0.9)
        baseline = np.full(1, np.nan)
        assert _advance_baseline(baseline, np.array([1.0]), cfg) == 0.0
        assert baseline == pytest.approx(1.0)  # init to first reward
        assert _advance_baseline(baseline, np.array([0.0]), cfg) == pytest.approx(-1.0)
        assert baseline == pytest.approx(0.9 * 1.0 + 0.1 * 0.0)
        no_baseline = dataclasses.replace(cfg, use_baseline=False)
        assert _advance_baseline(baseline, np.array([0.25]), no_baseline) == 0.25
        assert baseline == pytest.approx(0.9)


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
        params.arrays["gru_w"][0, 0] = 123.0
        assert 123.0 in flat
        flat[:] = 0.0
        assert all(not a.any() for a in params.arrays.values())

    def test_replacing_an_entry_raises(self):
        params = aa.init_params(TOY, SMALL_CFG, seed=0)
        flat = params.flat
        with pytest.raises(TypeError):
            params.arrays["gru_u"] = np.full_like(params.arrays["gru_u"], 2.0)
        params.arrays["gru_u"][...] = 2.0
        assert params.flat is flat
        assert np.shares_memory(params.arrays["gru_u"], flat)
        assert np.count_nonzero(flat == 2.0) == params.arrays["gru_u"].size

    def test_init_keeps_the_draw_order(self):
        # The pieces of each array are drawn in the order documented by
        # init_params and stacked by rows.
        cfg = dataclasses.replace(SMALL_CFG, bucket_count=3)
        params = aa.init_params(TOY, cfg, seed=7)
        rng = np.random.default_rng(7)

        def draw(*shape):
            return rng.uniform(-0.1, 0.1, size=shape)

        n_d, n_k, n_e = 2, 2, 1
        h, eh, a, s, x = 16, 16, 8, 4, 8
        expected = {
            "enc_w1": draw(eh, arch_onehot(aa.min_arch(TOY), TOY).size),
            "enc_b1": draw(eh),
            "enc_w2": draw(a, eh),
            "enc_b2": draw(a),
            "shift_emb": draw(3, s),
            "init_w": draw(h, a + s),
            "init_b": draw(h),
            "token_emb": np.vstack([draw(1, x), draw(n_d, x), draw(n_k, x), draw(n_e, x)]),
        }
        gates = [(draw(h, x), draw(h, h), draw(h)) for _ in "rzn"]
        heads = [(draw(n, h), draw(n)) for n in (n_d, n_k, n_e)]
        expected["gru_w"], expected["gru_u"], expected["gru_b"] = map(np.concatenate, zip(*gates))
        expected["head_w"], expected["head_b"] = map(np.concatenate, zip(*heads))
        assert list(params.arrays) == list(expected)
        for name, arr in expected.items():
            assert np.array_equal(params.arrays[name], arr), name

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


class TestRolloutRecord:
    """The dense (step, run, head row) record a rollout writes."""

    @staticmethod
    def _kind_codes(arch, space):
        """Decision kind code of each step of arch's trajectory, from the grammar."""
        walk, codes = controller._grammar(space), []
        code = next(walk)
        for choice in search_space._validate(arch, space):
            codes.append(code)
            try:
                code = walk.send(choice)
            except StopIteration:
                pass
        return codes

    @staticmethod
    def _lockstep_rollout(space, n_runs):
        runs = _rows([aa.init_params(space, SMALL_CFG, seed=30 + k) for k in range(n_runs)])
        prev = aa.min_arch(space)
        enc = controller._encode(runs.arrays, arch_onehot(prev, space), 1)
        rngs = [np.random.default_rng(40 + k) for k in range(n_runs)]
        return controller._rollout(runs, enc, rngs=rngs)

    @pytest.mark.parametrize("space", [TOY, aa.SpaceConfig()], ids=["toy", "default"])
    @pytest.mark.parametrize("n_runs", [1, 3])
    def test_each_decision_fills_its_kind_rows(self, space, n_runs):
        kinds = list(controller._kinds(space).values())
        t_max = space.n_units * (1 + 2 * space.depth_choices[-1])
        for _ in range(5):
            roll = self._lockstep_rollout(space, n_runs)
            assert roll.hit.shape == roll.probs.shape == roll.logp.shape
            assert roll.hit.shape[:2] == roll.entropy.shape == (t_max, n_runs)
            for k, arch in enumerate(roll.archs):
                choices = search_space._validate(arch, space)
                length = len(choices)
                for t, code in enumerate(self._kind_codes(arch, space)):
                    rows = kinds[code][0]
                    hit, probs, logp = roll.hit[t, k], roll.probs[t, k], roll.logp[t, k]
                    assert hit.sum() == 1.0 and hit[rows.start + choices[t]] == 1.0
                    assert abs(probs[rows].sum() - 1.0) <= 1e-12
                    assert np.array_equal(probs[rows], np.exp(logp[rows]))
                    assert roll.entropy[t, k] == pytest.approx(-(probs * logp).sum(), abs=1e-12)
                    others = np.ones(hit.size, bool)
                    others[rows] = False
                    assert not probs[others].any() and not logp[others].any()
                for record in (roll.hit, roll.probs, roll.logp, roll.entropy):
                    assert not record[length:, k].any()

    @pytest.mark.parametrize("space", [TOY, aa.SpaceConfig()], ids=["toy", "default"])
    def test_score_of_max_arch_fills_every_step(self, space):
        params = aa.init_params(space, SMALL_CFG, seed=3)
        pstate = _pstate(params, SMALL_CFG, space)
        arch = aa.max_arch(space)
        _, roll = controller._forward(params, pstate, actions=search_space._validate(arch, space))
        t_max = space.n_units * (1 + 2 * space.depth_choices[-1])
        assert roll.hit.shape[0] == t_max
        assert np.array_equal(roll.hit.sum(axis=(1, 2)), np.ones(t_max))
        assert len(aa.score(params, pstate, arch).decisions) == t_max


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


# Sequential train digests (TestLockstep._digest), one "case sha256" line
# per case, written by tests/test_golden.py's regenerate(). An intended
# change to the controller's numbers re-pins them with the golden files.
LOCKSTEP_PINS = Path(__file__).resolve().parent / "data" / "golden" / "lockstep.sha256"
LOCKSTEP_CASES = {
    "adam": {},
    "batch2": {"batch_size": 2},
    "plain": {"use_adam": False, "use_baseline": False},
}


class TestLockstep:
    """_train_many trains K runs together, each as a lone train call would."""

    META = SnapshotMeta(t=1, n_classes=1, n_samples=500, volume_fraction=1.0, max_classes=4)
    SHIFT = 0.8

    def _setup(self, **overrides):
        evaluate = aa.make_evaluator(
            aa.SurrogateConfig(bump_width=0.3, opt_intercept=0.85, depth_penalty=0.05), TOY)
        base = dataclasses.replace(SMALL_CFG, iterations=25, learning_rate=0.01, **overrides)
        # Different seeds, lams and init params, so runs draw trajectories
        # of different lengths and kinds in the same iteration.
        cfgs = [dataclasses.replace(base, lam=lam, seed=seed)
                for lam, seed in ((0.0, 11), (0.02, 12), (0.2, 13))]
        return evaluate, cfgs

    def _fresh(self, cfgs):
        return [aa.init_params(TOY, cfg, seed=200 + i) for i, cfg in enumerate(cfgs)]

    def _lockstep(self, cfgs):
        """The fresh params of _fresh as the rows of one params object."""
        return _rows(self._fresh(cfgs))

    def _sequential(self, overrides):
        """One lone train call per run, from fresh params."""
        evaluate, cfgs = self._setup(**overrides)
        return [aa.train(p, aa.min_arch(TOY), self.SHIFT, self.META, evaluate, c)
                for p, c in zip(self._fresh(cfgs), cfgs)]

    @staticmethod
    def _digest(runs):
        """sha256 over each run's repr(trace) and final flat bytes, in run order."""
        digest = hashlib.sha256()
        for params, trace in runs:
            digest.update(repr(trace).encode())
            digest.update(params.flat.tobytes())
        return digest.hexdigest()

    @classmethod
    def pins(cls):
        """LOCKSTEP_PINS as today's code writes it, from sequential train calls."""
        return "".join(f"{case} {cls._digest(cls()._sequential(overrides))}\n"
                       for case, overrides in LOCKSTEP_CASES.items())

    @pytest.mark.parametrize("case", LOCKSTEP_CASES)
    def test_equals_sequential_train(self, case, monkeypatch):
        evaluate, cfgs = self._setup(**LOCKSTEP_CASES[case])
        prev = aa.min_arch(TOY)
        sequential = self._sequential(LOCKSTEP_CASES[case])

        lengths = []
        rollout = controller._rollout

        def recording(*args, **kwargs):
            roll = rollout(*args, **kwargs)
            lengths.append(tuple(roll.hit.sum(axis=(0, 2))))  # steps per run
            return roll

        monkeypatch.setattr(controller, "_rollout", recording)
        runs = self._lockstep(cfgs)
        traces = _train_many(runs, prev, self.SHIFT, self.META, evaluate, cfgs[0],
                             [c.lam for c in cfgs], [c.seed for c in cfgs])
        assert any(len(set(run_lengths)) > 1 for run_lengths in lengths)

        for (p_seq, t_seq), row, t_many in zip(sequential, runs.flat, traces):
            assert t_many == t_seq
            assert row.tobytes() == p_seq.flat.tobytes()
        pinned = dict(line.split() for line in LOCKSTEP_PINS.read_text().splitlines())
        assert self._digest(sequential) == pinned[case]

    def test_updates_each_params_in_place(self):
        evaluate, cfgs = self._setup()
        runs = self._lockstep(cfgs)
        flat = runs.flat
        before = flat.copy()
        traces = _train_many(runs, aa.min_arch(TOY), self.SHIFT, self.META, evaluate, cfgs[0],
                             [c.lam for c in cfgs], [c.seed for c in cfgs])
        assert len(traces) == len(cfgs) and runs.flat is flat
        assert all(not np.array_equal(row, b) for row, b in zip(flat, before))

    def test_train_returns_the_params_it_updated(self):
        evaluate, cfgs = self._setup()
        params = aa.init_params(TOY, cfgs[0], seed=0)
        flat = params.flat
        before = flat.copy()
        out, _ = aa.train(params, aa.min_arch(TOY), self.SHIFT, self.META, evaluate, cfgs[0])
        assert out is params and out.flat is flat
        assert not np.array_equal(flat, before)

    def test_no_runs_is_invalid(self):
        evaluate, _ = self._setup()
        params = aa.init_params(TOY, SMALL_CFG, seed=0)
        no_rows = params._over(np.empty((0, params.flat.size)))
        with pytest.raises(aa.InvalidConfig):
            _train_many(no_rows, aa.min_arch(TOY), self.SHIFT, self.META, evaluate, SMALL_CFG, [], [])

    def test_one_parameter_set_is_not_a_row(self):
        # A (P,) flat is one set, not K rows: train makes its one-row view.
        evaluate, cfgs = self._setup()
        params = aa.init_params(TOY, cfgs[0], seed=0)
        before = params.flat.copy()
        for n_runs in (1, params.flat.size):
            with pytest.raises(aa.InvalidConfig, match=r"\(K, P\)"):
                _train_many(params, aa.min_arch(TOY), self.SHIFT, self.META, evaluate, cfgs[0],
                            [0.0] * n_runs, [0] * n_runs)
        assert np.array_equal(params.flat, before)

    def test_one_cfg_per_run(self):
        # one lam and one seed per run
        evaluate, cfgs = self._setup()
        lams, seeds = [c.lam for c in cfgs], [c.seed for c in cfgs]
        for bad_lams, bad_seeds in ((lams[:2], seeds), (lams, seeds[:2])):
            with pytest.raises(aa.InvalidConfig):
                _train_many(self._lockstep(cfgs), aa.min_arch(TOY), self.SHIFT, self.META,
                            evaluate, cfgs[0], bad_lams, bad_seeds)

    @pytest.mark.parametrize("lam", [-1e-3, float("nan"), float("inf")])
    def test_lams_must_be_finite_and_nonnegative(self, lam):
        evaluate, cfgs = self._setup()
        with pytest.raises(aa.InvalidConfig, match="lam"):
            _train_many(self._lockstep(cfgs), aa.min_arch(TOY), self.SHIFT, self.META,
                        evaluate, cfgs[0], [0.0, lam, 0.1], [c.seed for c in cfgs])

    def test_nonfinite_gradient_in_one_run_stops_all_before_updating(self):
        # As in TestNonFinite: an unused shift bucket keeps the forward pass
        # finite, but weight decay makes its gradient infinite.
        evaluate, cfgs = self._setup()
        runs = self._lockstep(cfgs)
        unused = (bucket_index(self.SHIFT, cfgs[0]) + 1) % cfgs[0].bucket_count
        runs.arrays["shift_emb"][1, unused, 0] = np.inf
        before = runs.flat.copy()
        with pytest.raises(aa.NumericalError, match="shift_emb"):
            _train_many(runs, aa.min_arch(TOY), self.SHIFT, self.META, evaluate, cfgs[0],
                        [c.lam for c in cfgs], [c.seed for c in cfgs])
        assert np.array_equal(runs.flat, before)


def _sum_312(iterable, start=0):
    """CPython 3.12's builtin sum: floats added with Neumaier's compensation.

    Anything but a nonempty all-float sequence from the default start goes
    to the running interpreter's sum (the batch gradient adds arrays).
    """
    items = list(iterable)
    if start != 0 or not items or not all(type(x) is float for x in items):
        return builtins.sum(items, start)
    total, comp = 0 + items[0], 0.0
    for x in items[1:]:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    if comp and math.isfinite(comp):
        total += comp
    return total


class TestPythonVersion:
    """The pinned bytes do not depend on how the interpreter's sum adds floats."""

    def test_pins_hold_under_python_312_sum(self, monkeypatch):
        assert _sum_312([0.1] * 10) == 1.0  # Python 3.12's example; 0.9999999999999999 before
        meta = _toy_meta()
        evaluate = aa.make_evaluator(
            aa.SurrogateConfig(bump_width=0.3, opt_intercept=0.85, depth_penalty=0.05), TOY)
        cfg = dataclasses.replace(SMALL_CFG, iterations=10, learning_rate=0.01, lam=0.02, seed=8)

        def short_run():
            params = aa.init_params(TOY, cfg, seed=8)
            traj = aa.sample(params, _pstate(params, cfg), np.random.default_rng(9))
            _, trace = aa.train(params, aa.min_arch(TOY), 0.8, meta, evaluate, cfg)
            return repr(trace), repr((traj.log_prob, traj.entropy)), params.flat.tobytes()

        running = short_run()
        monkeypatch.setattr(controller, "sum", _sum_312, raising=False)
        assert short_run() == running
        assert TestLockstep.pins() == LOCKSTEP_PINS.read_text()


class TestNonFiniteConfig:
    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay", "entropy_weight", "lam"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_trainer_rejects(self, field, value):
        with pytest.raises(aa.InvalidConfig, match=field):
            TrainerConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", 0.0), ("learning_rate", -1e-3), ("iterations", 0), ("batch_size", 0),
        ("weight_decay", -1e-3), ("entropy_weight", -1e-3), ("lam", -1e-3),
        ("baseline_decay", 1.0), ("baseline_decay", -0.1), ("bucket_count", 0),
        ("hidden_size", 0), ("encoder_hidden", 0), ("arch_embed_dim", 0),
        ("shift_embed_dim", 0), ("token_embed_dim", 0), ("seed", -1),
    ])
    def test_trainer_rejects_out_of_range(self, field, value):
        # A negative seed used to reach np.random.default_rng in train.
        with pytest.raises(aa.InvalidConfig, match=field):
            TrainerConfig(**{field: value})

    # non-finite, then a wrong count and non-increasing edges
    @pytest.mark.parametrize("edges", [(float("nan"), 1.0), (0.5, float("inf")), (1.0,), (2.0, 1.0)])
    def test_trainer_rejects_bucket_edges(self, edges):
        with pytest.raises(aa.InvalidConfig, match="bucket_edges"):
            TrainerConfig(bucket_count=3, bucket_edges=edges)
