"""Drifting-preference simulation library.

A log-linear policy learns from pairwise preference feedback while the
environment's utility parameter drifts on the unit sphere. The learner's
anchor distribution can evolve through a gated trust region (score must
improve, KL must stay small) or stay fixed; the package also ships a
sliding-window reward bandit, an island-based strategy search built on the
same gate machinery, and an empirical harness that checks the supporting
concentration and variation bounds.
"""

from .config import DRIFT_MODES, MODES, RunConfig, parse_config, parse_seeds
from .env import (
    DriftConfig,
    ThetaPath,
    generate_path,
    make_drift,
    make_features,
    spread_drift_limits,
)
from .errors import ConfigError, ContractError, ConvergenceError
from .estimator import (
    estimation_error_rhs,
    fit_logistic_window,
    min_curvature_constant,
    window_size,
)
from .islands import (
    IslandRunResult,
    StrategyCandidate,
    build_pairs_top_s,
    default_anchor_panel,
    run_island_search,
    run_reward_bandit,
    run_reward_episode,
    strategist_rules,
)
from .policies import gibbs, kl, softmax_rows
from .prefloop import (
    PhaseReport,
    RunRecord,
    fit_dpo,
    gate,
    propose_reference,
    run_preference_loop,
)
from .regret import (
    RegretLedger,
    min_margin,
    regret_decompose,
    slope_fit,
    switch_flags,
)
from .verify import (
    FrozenBiasReport,
    LemmaReport,
    ScalingReport,
    check_estimation_error,
    check_frozen_bias,
    check_kl_bound,
    check_local_variation,
    check_regret_scaling,
    check_self_normalized,
    check_switching_budget,
    local_window_variation,
    run_standard_checks,
    self_normalized_rhs,
)

__version__ = "0.1.0"
