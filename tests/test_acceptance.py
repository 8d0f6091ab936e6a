"""Acceptance suite.

Ten go/no-go checks, each recording exactly one pass/fail line with its
tolerance and wall time. The lines are printed after the run by the
``pytest_terminal_summary`` hook in conftest.py, where pytest's output
capture no longer swallows them.
"""

import json
import time
from contextlib import contextmanager

import numpy as np

import archadapt as aa
from archadapt.cli import main as cli_main
from archadapt.controller import _train_many, objective_gradients, objective_value
from archadapt.gaussian import sqrt_spd

# -- reporting ---------------------------------------------------------

VERDICT_LINES = []


def _emit(line):
    VERDICT_LINES.append(line)
    print(line)


@contextmanager
def _criterion(num, name, tolerance):
    """Time the block and emit its verdict line; the block may append text
    on how far it passed (its margins) to the list it is given."""
    t0 = time.perf_counter()
    margins = []
    try:
        yield margins
    except BaseException:
        _emit(f"criterion {num:2d} FAIL  {name}  ({tolerance})  "
              f"[{time.perf_counter() - t0:.1f}s]")
        raise
    _emit(f"criterion {num:2d} PASS  {name}  ({tolerance})  "
          f"[{time.perf_counter() - t0:.1f}s]" + "".join(f"  {m}" for m in margins))


def _gaps(means):
    """Each mean, and the smallest step between neighbours (with its share
    of the larger one), as margin text."""
    gaps = [abs(b - a) for a, b in zip(means, means[1:])]
    i = int(np.argmin(gaps))
    return (f"means {', '.join(f'{m:.2f}' for m in means)}; smallest gap "
            f"{gaps[i]:.2f} ({100 * gaps[i] / max(means[i], means[i + 1]):.1f}%)")


# -- shared fixtures ---------------------------------------------------

TOY = aa.SpaceConfig(
    n_units=2, depth_choices=(2, 3), kernel_choices=(3, 5),
    expansion_choices=(3,), input_resolution=64,
    stem_channels=16, unit_out_channels=(16, 24), unit_strides=(1, 1))

# Same grammar at higher resolution: absolute MAdds large enough for the
# cost penalty to matter in raw millions.
TOY_128 = aa.SpaceConfig(
    n_units=2, depth_choices=(2, 3), kernel_choices=(3, 5),
    expansion_choices=(3,), input_resolution=128,
    stem_channels=16, unit_out_channels=(16, 24), unit_strides=(2, 2))

TINY = aa.SpaceConfig(
    n_units=1, depth_choices=(2, 3), kernel_choices=(3, 5),
    expansion_choices=(3, 6), input_resolution=16,
    stem_channels=8, unit_out_channels=(8,), unit_strides=(2,))

# Wide-bump landscape: accuracy varies slowly with capacity, so the cost
# penalty can trade MAdds for almost no accuracy.
PLATEAU = aa.SurrogateConfig(bump_width=0.3, opt_intercept=0.55,
                             opt_slope=0.4, depth_penalty=0.0)


def _s05_meta():
    # volume 1.0, single class: complexity score exactly 0.5
    return aa.SnapshotMeta(t=1, n_classes=1, n_samples=500,
                           volume_fraction=1.0, max_classes=4)


def _search_trainer(seed, lam=0.0, iterations=2000):
    return aa.TrainerConfig(
        learning_rate=0.005, iterations=iterations, lam=lam,
        hidden_size=32, encoder_hidden=32, arch_embed_dim=16,
        shift_embed_dim=8, token_embed_dim=16,
        entropy_weight=2e-4, seed=seed)


# -- criteria ----------------------------------------------------------

def test_criterion_01_gaussian_w2_correctness():
    with _criterion(1, "Gaussian W2 correctness",
                    "symmetry 1e-8, diagonal 1e-9, self 1e-10, "
                    "sqrt round-trip 1e-8, 200 pairs, <10s"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(0)
        for _ in range(200):
            q = int(rng.integers(1, 11))
            a = rng.normal(size=(q, q))
            b = rng.normal(size=(q, q))
            g1 = aa.GaussianSummary(mean=rng.normal(size=q),
                                    cov=a @ a.T + 0.2 * np.eye(q),
                                    n_samples=100)
            g2 = aa.GaussianSummary(mean=rng.normal(size=q),
                                    cov=b @ b.T + 0.2 * np.eye(q),
                                    n_samples=100)
            d12 = aa.wasserstein2_gaussian(g1, g2)
            d21 = aa.wasserstein2_gaussian(g2, g1)
            assert d12 >= 0.0
            assert abs(d12 - d21) <= 1e-8

            self_d = aa.wasserstein2_gaussian(g1, g1)
            assert 0.0 <= self_d <= 1e-10

            root = sqrt_spd(g1.cov)
            err = np.linalg.norm(root @ root - g1.cov)
            assert err <= 1e-8 * max(1.0, np.linalg.norm(g1.cov))

            # diagonal case against the axis-wise closed form
            v1 = rng.uniform(0.1, 4.0, size=q)
            v2 = rng.uniform(0.1, 4.0, size=q)
            m1 = rng.normal(size=q)
            m2 = rng.normal(size=q)
            dg1 = aa.GaussianSummary(mean=m1, cov=np.diag(v1), n_samples=100)
            dg2 = aa.GaussianSummary(mean=m2, cov=np.diag(v2), n_samples=100)
            expected = np.sum((m1 - m2) ** 2) + np.sum(
                (np.sqrt(v1) - np.sqrt(v2)) ** 2)
            got = aa.wasserstein2_gaussian(dg1, dg2)
            assert abs(got - expected) <= 1e-9
        assert time.perf_counter() - t0 < 10.0


def test_criterion_02_js_saturation_vs_wd():
    with _criterion(2, "JS saturates while WD discriminates",
                    "last two JS >= 0.95 differing < 0.02, "
                    "WD step-up >= 10%, <1min"):
        t0 = time.perf_counter()
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8),
                             feature_dim=4, sigma=0.3, seed=0,
                             proto_radius=60.0, base_samples=1000)
        rows = aa.compare_distance_metrics(plan, seeds=(0, 1, 2),
                                           n_samples=20000)
        js_prev, js_last = rows[-2]["js"], rows[-1]["js"]
        assert js_prev >= 0.95 and js_last >= 0.95
        assert abs(js_last - js_prev) < 0.02
        assert rows[-1]["wd"] >= 1.1 * rows[-2]["wd"]
        assert time.perf_counter() - t0 < 60.0


def test_criterion_03_policy_normalization():
    with _criterion(3, "policy normalization over 144 trajectories",
                    "|sum - 1| <= 1e-9, uniform + 5 random seeds"):
        cfg = _search_trainer(0)
        space = aa.enumerate_space(TOY)
        assert len(space) == 144

        def total_mass(params):
            pstate = aa.embed_state(params, aa.min_arch(TOY), 1.0, cfg)
            return sum(np.exp(aa.score(params, pstate, arch).log_prob)
                       for arch in space)

        uniform = aa.init_params(TOY, cfg, seed=0)
        uniform.flat[:] = 0.0
        assert abs(total_mass(uniform) - 1.0) <= 1e-9

        for seed in range(5):
            params = aa.init_params(TOY, cfg, seed=seed)
            assert abs(total_mass(params) - 1.0) <= 1e-9


def test_criterion_04_gradient_oracle():
    with _criterion(4, "REINFORCE gradients vs central differences",
                    "relative 1e-4 (floor 1e-6), H=4, 1 unit, <1min"):
        t0 = time.perf_counter()
        cfg = aa.TrainerConfig(hidden_size=4, encoder_hidden=4,
                               arch_embed_dim=3, shift_embed_dim=2,
                               token_embed_dim=3, entropy_weight=1e-3,
                               weight_decay=1e-3)
        params = aa.init_params(TINY, cfg, seed=1)
        pstate = aa.embed_state(params, aa.min_arch(TINY), 1.0, cfg)
        traj = aa.sample(params, pstate, np.random.default_rng(1))
        advantage = 0.37
        grads = objective_gradients(params, traj, advantage, cfg)
        step = 1e-5
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
                # The 1e-6 floor keeps near-zero gradients compared at
                # the central-difference noise scale rather than an
                # unattainable relative band.
                assert abs(an - fd) <= 1e-4 * max(abs(an), abs(fd), 1e-6), \
                    (key, idx, an, fd)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_05_search_correctness():
    with _criterion(5, "greedy decode matches brute-force optimum",
                    ">= 90% of 20 seeds match, >= 95% improve reward, "
                    "2000 iters, <5min"):
        t0 = time.perf_counter()
        meta = _s05_meta()
        scfg = aa.SurrogateConfig(bump_width=0.3, opt_intercept=0.85,
                                  depth_penalty=0.05)
        evaluate = aa.make_evaluator(scfg, TOY)
        prev = aa.min_arch(TOY)
        best, _, _ = aa.oracle_best(TOY, meta, scfg, lam=0.0)

        matches = 0
        improved = 0
        # The 20 seeds train in lockstep; each run is what train gives alone.
        cfgs = [_search_trainer(seed) for seed in range(20)]
        inits = [aa.init_params(TOY, cfg, seed=1000 + cfg.seed) for cfg in cfgs]
        runs = inits[0]._over(np.stack([p.flat for p in inits]))
        traces = _train_many(runs, prev, 1.0, meta, evaluate, cfgs[0],
                             [cfg.lam for cfg in cfgs], [cfg.seed for cfg in cfgs])
        for cfg, flat, trace in zip(cfgs, runs.flat, traces):
            params = runs._over(flat)
            decoded = aa.greedy_decode(
                params, aa.embed_state(params, prev, 1.0, cfg))
            matches += (decoded == best)
            first = np.mean([r.reward for r in trace[:100]])
            last = np.mean([r.reward for r in trace[-100:]])
            improved += (last > first)
        assert matches >= 18, f"only {matches}/20 matched the oracle"
        assert improved >= 19, f"only {improved}/20 improved reward"
        assert time.perf_counter() - t0 < 300.0


def test_criterion_06_gate_behavior():
    with _criterion(6, "gate holds on identical data, fires on drop",
                    "H_t = 0 exactly; engineered drop > 0.02; <10s"):
        t0 = time.perf_counter()
        scfg = aa.SurrogateConfig(bump_width=0.1, opt_intercept=0.55,
                                  opt_slope=0.4, depth_penalty=0.0)
        evaluate = aa.make_evaluator(scfg, TOY_128)
        gate = aa.GateConfig(epsilon=0.02)
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 8), seed=0)
        meta_prev = aa.gen_snapshot(plan, 0).meta
        meta_cur = aa.gen_snapshot(plan, 1).meta
        prev_arch, _, _ = aa.oracle_best(TOY_128, meta_prev, scfg)

        # identical consecutive snapshots
        h_same = aa.accuracy_drop(prev_arch, meta_prev, meta_prev, evaluate)
        assert h_same == 0.0
        assert not aa.should_adapt(h_same, gate)

        # engineered class-growth drop
        h_move = aa.accuracy_drop(prev_arch, meta_prev, meta_cur, evaluate)
        assert h_move > 0.02
        assert aa.should_adapt(h_move, gate)

        # determinism
        assert h_move == aa.accuracy_drop(prev_arch, meta_prev, meta_cur,
                                          evaluate)
        assert time.perf_counter() - t0 < 10.0


def test_criterion_07_wd_penalty_ablation():
    with _criterion(7, "cost penalty shrinks networks at equal accuracy",
                    "mean adapted MAdds lam=0 >= lam>0, "
                    "mean |dV| <= 0.02, 10 seeds, <15min") as margins:
        t0 = time.perf_counter()
        with_m, without_m, dvs = [], [], []
        for seed in range(10):
            plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8),
                                 seed=seed)
            cfg = aa.RunConfig(plan=plan, space=TOY_128, surrogate=PLATEAU,
                               gate=aa.GateConfig(epsilon=0.0),
                               trainer=_search_trainer(seed, lam=0.05,
                                                       iterations=800),
                               master_seed=seed)
            out = aa.wd_ablation(cfg)
            for rw, ro in zip(out["with"], out["without"]):
                if rw.adapted and ro.adapted:
                    with_m.append(rw.madds_new)
                    without_m.append(ro.madds_new)
                    dvs.append(abs(rw.v_new - ro.v_new))
        assert len(with_m) > 0
        assert np.mean(without_m) >= np.mean(with_m)
        assert np.mean(dvs) <= 0.02
        assert time.perf_counter() - t0 < 900.0
        margins.append(f"mean MAdds {np.mean(without_m):.2f} at lam=0, "
                       f"{np.mean(with_m):.2f} at lam>0; mean |dV| {np.mean(dvs):.4f}")


def test_criterion_08_lambda_sweep_monotone():
    with _criterion(8, "final MAdds non-increasing in lambda",
                    "lambda in {0, 1e-4, 1e-3, 1e-2}, 10 seeds, <15min") as margins:
        t0 = time.perf_counter()
        space = aa.SpaceConfig()  # full-size costs, hundreds of MAdds
        lambdas = (0.0, 1e-4, 1e-3, 1e-2)
        start = aa.encode(aa.min_arch(space))
        per_lam = {l: [] for l in lambdas}
        for seed in range(10):
            plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8),
                                 seed=seed)
            cfg = aa.RunConfig(plan=plan, space=space, surrogate=PLATEAU,
                               gate=aa.GateConfig(epsilon=0.0),
                               trainer=_search_trainer(seed, iterations=800),
                               master_seed=seed, initial_arch=start)
            for row in aa.lambda_sweep(cfg, lambdas):
                per_lam[row["lam"]].append(row["madds"])
        means = [np.mean(per_lam[l]) for l in lambdas]
        for bigger, smaller in zip(means, means[1:]):
            assert bigger >= smaller - 1e-9, means
        assert time.perf_counter() - t0 < 900.0
        margins.append(_gaps(means))


def test_criterion_09_reproducible_records(tmp_path):
    with _criterion(9, "adapt twice, byte-identical records.json",
                    "exact bytes"):
        config = tmp_path / "run.cfg"
        config.write_text(
            "plan.scenario = class_growth\n"
            "plan.steps = 2,4,8\n"
            "space.n_units = 2\n"
            "space.depth_choices = 2,3\n"
            "space.kernel_choices = 3,5\n"
            "space.expansion_choices = 3\n"
            "space.input_resolution = 128\n"
            "space.stem_channels = 16\n"
            "space.unit_out_channels = 16,24\n"
            "space.unit_strides = 2,2\n"
            "surrogate.bump_width = 0.3\n"
            "surrogate.opt_intercept = 0.55\n"
            "surrogate.opt_slope = 0.4\n"
            "surrogate.depth_penalty = 0.0\n"
            "gate.epsilon = 0.0\n"
            "trainer.iterations = 120\n"
            "trainer.learning_rate = 0.005\n"
            "trainer.lam = 0.05\n"
            "trainer.hidden_size = 16\n"
            "trainer.encoder_hidden = 16\n"
            "trainer.arch_embed_dim = 8\n"
            "trainer.shift_embed_dim = 4\n"
            "trainer.token_embed_dim = 8\n")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            code = cli_main(["adapt", "--config", str(config),
                             "--seed", "11", "--out", str(out)])
            assert code == 0
        b1 = (out1 / "records.json").read_bytes()
        b2 = (out2 / "records.json").read_bytes()
        assert b1 == b2
        # sanity: the run actually adapted somewhere
        rows = json.loads(b1.decode())["records"]
        assert any(r["adapted"] for r in rows)


def test_criterion_10_shift_scaled_adaptation():
    with _criterion(10, "adapted MAdds non-decreasing in shift",
                    "d_t varied by prototype radius {1, 5, 25}, "
                    "surrogate fixed, 10 seeds") as margins:
        means = []
        for radius in (1.0, 5.0, 25.0):
            collected = []
            for seed in range(10):
                plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH,
                                     steps=(2, 4, 8), seed=seed,
                                     proto_radius=radius)
                cfg = aa.RunConfig(plan=plan, space=TOY_128,
                                   surrogate=PLATEAU,
                                   gate=aa.GateConfig(epsilon=0.0),
                                   trainer=_search_trainer(seed, lam=0.05,
                                                           iterations=800),
                                   master_seed=seed)
                for rec in aa.run_adaptation(cfg):
                    if rec.adapted:
                        collected.append(rec.madds_new)
            assert collected
            means.append(np.mean(collected))
        for smaller, bigger in zip(means, means[1:]):
            assert bigger >= smaller - 1e-9, means
        margins.append(_gaps(means))
