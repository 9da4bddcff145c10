"""The headline contrast: evolving reference vs frozen reference.

The target jumps early (a large drift spike inside a small total budget)
and then holds still.  A policy regularized toward a frozen reference
keeps paying a bias for the stale anchor; the evolving variant promotes
a repaired reference through the gate and the bias collapses.
"""

from dataclasses import replace

import numpy as np

from driftpref.verify import scaling_base_config
from driftpref.prefloop import run_preference_loop

SEEDS = (0, 1, 2)


def run_variant(cfg, mode):
    finals, biases, accepts = [], [], []
    for seed in SEEDS:
        res = run_preference_loop(replace(cfg, mode=mode), seed)
        finals.append(res.ledger.regret_cum[-1])
        # mean absolute bias over the last quarter of the run
        tail = res.ledger.bias[-cfg.H // 4:]
        biases.append(float(np.mean(np.abs(tail))))
        accepts.append(res.accepted_phases)
    return float(np.mean(finals)), float(np.mean(biases)), accepts


def main():
    cfg = replace(scaling_base_config(), H=800, warm_pairs=6400)
    print(f"jump-then-hold drift, horizon {cfg.H}, {len(SEEDS)} seeds")
    print(f"gate: eps_s={cfg.eps_s}, delta_H={cfg.delta_H}\n")
    evo_final, evo_bias, evo_accepts = run_variant(cfg, "evodpo")
    fix_final, fix_bias, _ = run_variant(cfg, "fixed-ref")
    print(f"{'variant':<18} {'final regret':>14} {'tail |bias|':>13} {'promotions':>11}")
    print(f"{'evolving ref':<18} {evo_final:>14.2f} {evo_bias:>13.5f} "
          f"{str(evo_accepts):>11}")
    print(f"{'frozen ref':<18} {fix_final:>14.2f} {fix_bias:>13.5f} {'[0, 0, 0]':>11}")
    print(f"\nthe frozen variant keeps paying the stale-reference bias every "
          f"step;\nthe evolving one repairs its anchor and flattens out "
          f"({evo_final / fix_final:.2f}x the regret).")


if __name__ == "__main__":
    main()
