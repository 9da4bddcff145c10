"""Sliding-window size against drift speed in the reward bandit.

Under per-step drift a long window keeps stale evidence in the estimate,
so the greedy ridge player picks yesterday's best arm.  A short window
forgets faster and tracks the moving target.  This sweep shows the mean
normalized reward gap per window size.
"""

from dataclasses import replace

import numpy as np

from driftpref.config import RunConfig
from driftpref.islands import run_reward_bandit

WINDOWS = (8, 20, 50, 200)
SEEDS = range(8)


def main():
    base = RunConfig(mode="reward-bandit", K=5, d=5, H=800,
                     ucb_alpha=0.0, lambda_reg=0.1)
    print(f"reward bandit, horizon {base.H}, drift limits "
          f"[{base.delta_min}, {base.delta_max}], greedy selection")
    print(f"{'window':>8} {'mean nmr':>10} {'per-seed range':>24}")
    results = {}
    for window in WINDOWS:
        cfg = replace(base, window_size=window)
        nmrs = [r.nmr for r in run_reward_bandit(cfg, SEEDS)]
        results[window] = float(np.mean(nmrs))
        print(f"{window:>8} {results[window]:>10.5f} "
              f"{min(nmrs):>12.5f}..{max(nmrs):.5f}")
    best = max(results, key=results.get)
    print(f"\nbest window: {best} "
          f"(nmr is -mean regret per step, so closer to 0 is better)")


if __name__ == "__main__":
    main()
