"""Island search over bandit strategy knobs, with phase-level promotion.

Several islands jitter window/regularizer/width-bonus candidates around a
routing policy's picks; episode scores feed a pass/fail threshold and the
top survivors form preference pairs.  Each phase's pair fit re-tilts the
routing policy, and the same gate used by the preference loop decides
whether the reference tilt is promoted (the reference version below).
"""

from driftpref.config import RunConfig
from driftpref.islands import run_island_search


def main():
    cfg = RunConfig(mode="atlas", K=4, d=4, rounds=40, phase_length=10,
                    islands=3, proposals_per_island=2, eval_horizon=200,
                    eval_episodes=2, top_s=4, eps_s=0.0, delta_H=1e9)
    res = run_island_search(cfg, seed=1)

    print(f"{cfg.islands} islands x {cfg.rounds} rounds, "
          f"{cfg.proposals_per_island} proposals each, phase every "
          f"{cfg.phase_length} rounds\n")
    print("best episode score per round (higher is better, 0 = no regret):")
    for start in range(0, cfg.rounds, 10):
        chunk = -res.ledger.regret_step[start:start + 10]
        cells = " ".join(f"{v:7.3f}" for v in chunk)
        print(f"  rounds {start:>3}..{start + 9:<3} {cells}")

    print(f"\n{'phase':>6} {'pairs':>6} {'delta_S':>10} {'kl_hat':>10} {'decision':>9}")
    for rep in res.phases:
        print(f"{rep.phase_index:>6} {rep.n_pairs:>6} {rep.delta_s:>10.5f} "
              f"{rep.kl_hat:>10.5f} {rep.decision:>9}")

    print(f"\nfinal metric {res.final_metric:.4f}, reference version "
          f"{res.ref_version}, accepted {res.accepted_phases}/{res.gated_phases} "
          f"gated phases")


if __name__ == "__main__":
    main()
