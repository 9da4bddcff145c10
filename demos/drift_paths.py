"""Show how drifting targets move and what that costs in variation budget.

Generates a few target paths on the unit sphere, prints how much total
variation each spends, how often the best action flips, and how the
per-step drift limits get rescaled when a path would blow its budget.
"""

import numpy as np

from driftpref.env import DriftConfig, generate_path, make_features, spread_drift_limits
from driftpref.regret import min_margin, switch_flags


def describe(label, cfg, horizon=400, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    feats = make_features(5, dim, np.random.default_rng(99))
    path = generate_path(horizon, dim, cfg, rng)
    flips = int(switch_flags(path.thetas, feats).sum())
    margin = min_margin(path.thetas, feats)
    print(f"  {label:<22} tv_used={path.tv_used:8.3f}  budget={cfg.tv_budget:8.1f}"
          f"  best-action flips={flips:3d}  min margin={margin:.4f}")


def main():
    print("drifting target paths (horizon 400, 5 actions, dim 4)")
    describe("slow walk", DriftConfig(0.005, 0.02, "sphere-walk", 100.0))
    describe("fast walk", DriftConfig(0.05, 0.2, "sphere-walk", 100.0))
    describe("frozen", DriftConfig(0.05, 0.2, "frozen", 100.0))

    # a tight budget forces the per-step limits down; the rescale keeps the
    # min/max ratio and the path never overdraws
    wild = DriftConfig(0.5, 2.0, "sphere-walk", tv_budget=3.0)
    tamed = spread_drift_limits(wild, horizon=400, dim=4)
    print("\nbudget rescue for a 400-step path with tv_budget=3.0:")
    print(f"  raw limits   [{wild.delta_min:.3f}, {wild.delta_max:.3f}]")
    print(f"  spread limits [{tamed.delta_min:.5f}, {tamed.delta_max:.5f}]"
          f"  (ratio kept: {tamed.delta_max / tamed.delta_min:.1f}x)")
    describe("raw (jump then stop)", wild)
    describe("spread evenly", tamed)


if __name__ == "__main__":
    main()
