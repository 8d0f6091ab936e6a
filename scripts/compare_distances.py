"""Distance metric comparison on a class-growth plan.

Prints squared Wasserstein distance and Monte-Carlo Jensen-Shannon
divergence from the base snapshot to each later one. With well-separated
class prototypes the JS column pins to 1 after the first step while the
WD column keeps growing, which is the reason the shift signal uses WD.

    python scripts/compare_distances.py --radius 60 --sigma 0.3
"""

import argparse

import archadapt as aa


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radius", type=float, default=60.0,
                    help="class prototype separation")
    ap.add_argument("--sigma", type=float, default=0.3,
                    help="within-class noise scale")
    ap.add_argument("--samples", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=0,
                    help="first of the three plan seeds averaged over")
    args = ap.parse_args()

    plan = aa.GrowthPlan(scenario=aa.CLASS_GROWTH, steps=(2, 4, 8, 16),
                         feature_dim=4, sigma=args.sigma,
                         proto_radius=args.radius, base_samples=1000)
    rows = aa.compare_distance_metrics(plan, seeds=tuple(range(args.seed, args.seed + 3)),
                                       n_samples=args.samples)
    print(f"{'step':>4} {'wd':>12} {'js':>8}")
    for row in rows:
        print(f"{row['step']:>4} {row['wd']:>12.3f} {row['js']:>8.4f}")


if __name__ == "__main__":
    main()
