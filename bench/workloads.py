"""The four benchmark workloads: pinned configs, CLI calls and trace predictions.

Standard library only, so the parent process can plan a run without
importing numpy. Each workload is a closed loop: one study at a time, in
one process, every call waiting for the previous one to finish.

Configs are pinned here as key = value text. They do not follow later
changes to driftpref's defaults, so a change to the program cannot change
what the benchmark measures.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0
TOLERANCE = {"rel": 1e-9, "abs": 1e-12}

# Copied from verify.scaling_base_config(), with H = 2000: warm start,
# V_T = 2, and a full window W = ceil(H^(2/3)) = 159 for most of the run.
# One seed per run: the solver work differs by under 1% between seeds, and
# shorter repetitions give more of them per run.
_PREF_CONFIG = """\
mode = evodpo
K = 5
d = 5
H = 2000
delta_min = 1.0
delta_max = 5.0
V_T = 2.0
drift_spread = false
kappa = 0.6666666666666666
lam = 0.1
dpo_lam = 2.0
beta = 0.6
beta_ref = 0.01
eps_s = 0.005
delta_H = 0.05
phase_length = 20
gate_size = 32
dataset_phases = 4
warm_scale = 60.0
warm_pairs = 25600
"""

# Default anchor panel and gate; 6 rounds of 6 islands x 2 proposals, with
# phase_length = 3 so two phases are gated (fit_dpo, gate, strategist_rules).
_ATLAS_CONFIG = """\
mode = atlas
rounds = 6
phase_length = 3
eval_horizon = 200
eval_episodes = 2
"""

_BANDIT_CONFIG = """\
mode = reward-bandit
H = 10000
"""

_VERIFY_CONFIG = """\
mode = verify
scaling = false
"""


@dataclass(frozen=True)
class Call:
    """One driftpref.cli.main invocation and the operations it performs."""

    argv: tuple[str, ...]
    ops: tuple[str, ...]
    mode: str | None = None  # run mode whose summary JSON this call writes


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    seeds_per_run: int
    step: str  # what steps_per_s counts
    steps_per_seed: int | None  # None: counted from the verify reports
    # (module, name) bindings that must record calls in a traced run
    exercised: tuple[tuple[str, str], ...]
    # layers, or "layer.function" names, that must record no calls
    bypassed: tuple[str, ...]

    def seeds(self, seed: int) -> tuple[int, ...]:
        """driftpref seeds for a benchmark seed; disjoint across seeds."""
        k = self.seeds_per_run
        return tuple(range(seed * k, seed * k + k))

    def config_text(self, seed: int) -> str:
        seeds = ",".join(str(s) for s in self.seeds(seed))
        return self.config + f"seeds = {seeds}\n"

    def calls(self, seed: int, config_path: str, out_dir: str) -> list[Call]:
        seeds = self.seeds(seed)
        common = ("--config", config_path, "--out", out_dir)
        if self.name == "pref-drift":
            arms = ("evodpo", "fixed-ref")
            runs = [
                Call(("run", "--mode", arm) + common,
                     tuple(f"{arm}/seed{s}" for s in seeds), mode=arm)
                for arm in arms
            ]
            summaries = tuple(f"{out_dir}/{arm}_summary.json" for arm in arms)
            return runs + [Call(("report",) + summaries + ("--out", out_dir),
                                ("report",))]
        if self.name == "atlas-search":
            return [Call(("run",) + common,
                         tuple(f"atlas/seed{s}/proposal{i}" for s in seeds
                               for i in range(ATLAS_PROPOSALS_PER_SEED)),
                         mode="atlas")]
        if self.name == "bandit-long":
            return [Call(("run",) + common,
                         tuple(f"reward-bandit/seed{s}" for s in seeds),
                         mode="reward-bandit")]
        return [Call(("verify",) + common, VERIFY_CHECKS)]


VERIFY_CHECKS = ("kl-perturbation", "switching-budget", "local-variation",
                 "self-normalized", "estimation-error")

ATLAS_PROPOSALS_PER_SEED = 6 * 6 * 2  # rounds x islands x proposals_per_island

WORKLOADS = {
    "pref-drift": Workload(
        name="pref-drift",
        config=_PREF_CONFIG,
        seeds_per_run=1,
        step="learner step (H x seeds x arms)",
        steps_per_seed=2000 * 2,
        exercised=(("prefloop", "generate_path"),
                   ("prefloop", "fit_logistic_window"),
                   ("prefloop", "fit_dpo"), ("prefloop", "gate"),
                   ("prefloop", "propose_reference"),
                   ("prefloop", "sample_categorical"),
                   ("cli", "run_preference_loop"), ("cli", "execute_report")),
        bypassed=("islands", "verify"),
    ),
    "atlas-search": Workload(
        name="atlas-search",
        config=_ATLAS_CONFIG,
        seeds_per_run=1,
        step="scored episode step (proposals x episodes x eval_horizon)",
        steps_per_seed=ATLAS_PROPOSALS_PER_SEED * 2 * 200,
        exercised=(("islands", "generate_path"), ("islands", "fit_dpo"),
                   ("islands", "gate"), ("islands", "propose_reference"),
                   ("islands", "sample_categorical"),
                   ("islands", "strategist_rules"),
                   ("islands", "run_reward_episode"),
                   ("islands", "island_step"), ("islands", "build_pairs_top_s"),
                   ("cli", "run_island_search")),
        bypassed=("estimator", "verify"),
    ),
    "bandit-long": Workload(
        name="bandit-long",
        config=_BANDIT_CONFIG,
        seeds_per_run=3,
        step="bandit step (H x seeds)",
        steps_per_seed=10000,
        exercised=(("islands", "generate_path"),
                   ("islands", "run_reward_episode"),
                   ("cli", "run_reward_bandit")),
        bypassed=("estimator", "prefloop", "verify", "islands.island_step",
                  "islands.run_island_search"),
    ),
    "verify-checks": Workload(
        name="verify-checks",
        config=_VERIFY_CONFIG,
        seeds_per_run=1,
        step="checked trial (sum of the reports' trials)",
        steps_per_seed=None,
        exercised=(("verify", "generate_path"),
                   ("verify", "fit_logistic_window"),
                   ("verify", "make_features"), ("verify", "gibbs"),
                   ("verify", "kl"), ("verify", "min_margin"),
                   ("verify", "switch_flags"), ("cli", "run_standard_checks")),
        bypassed=("islands", "prefloop"),
    ),
}
