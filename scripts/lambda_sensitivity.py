"""Sweep the cost penalty weight and report the searched architecture size.

One adaptation step per lambda with shared snapshots, controller init,
and sampling seed, so the only difference between rows is the penalty.
Larger lambda should never produce a larger network.

    python scripts/lambda_sensitivity.py --seeds 5
"""

import argparse

import numpy as np

import archadapt as aa

LAMBDAS = (0.0, 1e-4, 1e-3, 1e-2)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5,
                    help="number of master seeds to average over")
    ap.add_argument("--iterations", type=int, default=800)
    args = ap.parse_args()

    space = aa.SpaceConfig()  # full-size costs so small lambdas register
    surrogate = aa.SurrogateConfig(bump_width=0.3, opt_intercept=0.55,
                                   opt_slope=0.4, depth_penalty=0.0)
    start = aa.encode(aa.min_arch(space))

    per_lam = {lam: [] for lam in LAMBDAS}
    for seed in range(args.seeds):
        plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8),
                             seed=seed)
        trainer = aa.TrainerConfig(
            learning_rate=0.005, iterations=args.iterations,
            hidden_size=32, encoder_hidden=32, arch_embed_dim=16,
            shift_embed_dim=8, token_embed_dim=16, entropy_weight=2e-4)
        cfg = aa.RunConfig(plan=plan, space=space, surrogate=surrogate,
                           gate=aa.GateConfig(epsilon=0.0), trainer=trainer,
                           master_seed=seed, initial_arch=start)
        for row in aa.lambda_sweep(cfg, LAMBDAS):
            per_lam[row["lam"]].append(row["madds"])

    print(f"{'lambda':>8} {'mean madds':>11}")
    for lam in LAMBDAS:
        print(f"{lam:>8g} {np.mean(per_lam[lam]):>11.1f}")


if __name__ == "__main__":
    main()
