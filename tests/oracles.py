"""Reference formulas the tests check the package against.

The package fits preference pairs as a logistic problem on winner-minus-loser
feature rows; these are the plain forms of the losses that fit minimizes, and
a minimizer that reaches the DPO optimum by another route. The report tables
are written in one %-format each; the row-by-row formatters here are the
reference for their bytes. The two Monte-Carlo bound checks score their
trials in stacks; the per-trial loops here are the reference for the LHS
and RHS of every trial. The preference loop builds its regret ledger in one
pass after its step loop; the per-step ledger loop here is the reference
for its regret and phase columns. The estimation-error check fits each
run's windows as one stack; the per-window loop here is the reference for
every trial's LHS, RHS and covariance floor. The preference loop draws its
pair from Python floats and reads each label's probability from one table;
the array draw, the per-step scalar label and the method-based softmax here
are the references for their bits. The one-shot feature draw here, one
np.linalg.norm call over every row, is the reference for make_features.
The warm start streams its contexts twice and never holds them; the
warm start here, which draws every context at once and gathers each pair's
rows from them, is the reference for its rows, its fit and its generator.
The island step scores its proposal slots in groups; the slot-by-slot step
here, one scorer call per slot, is the reference for its entries, its
island states and its generators. The preference loop batches its
utilities, draws and ledger; the run here takes one step at a time, one
window fit per step, and is the reference for its ledger and phase reports.
It is frozen: it is never optimized.
"""

import math

import numpy as np

from driftpref.cli import PHASE_COLUMNS
from driftpref.env import (
    DriftConfig,
    generate_path,
    make_drift,
    make_features,
    spread_drift_limits,
)
from driftpref.errors import ConvergenceError
from driftpref.estimator import (
    estimation_error_rhs,
    fit_logistic_window,
    min_curvature_constant,
    window_size,
)
from driftpref.islands import _SCALE_CAP, IslandEntry, StrategyCandidate
from driftpref.numerics import sigmoid
from driftpref.policies import softmax_rows
from driftpref.prefloop import (
    CANDIDATE_LABELS,
    PhaseReport,
    fit_dpo,
    propose_reference,
    sample_categorical,
)
from driftpref.regret import RegretLedger
from driftpref.verify import local_window_variation


def fmt_float(x) -> str:
    """17-significant-digit decimal; round-trips float64 exactly."""
    return format(float(x), ".17g")


def steps_csv_rows(ledger):
    """The steps table, one row per loop pass."""
    lines = [",".join(RegretLedger.COLUMNS)]
    for i in range(len(ledger)):
        lines.append(",".join([
            str(int(ledger.t[i])),
            str(int(ledger.phase[i])),
            fmt_float(ledger.bias[i]),
            fmt_float(ledger.error[i]),
            fmt_float(ledger.regret_step[i]),
            fmt_float(ledger.regret_cum[i]),
            str(int(ledger.oracle_arm[i])),
            str(int(ledger.switch[i])),
        ]))
    return "\n".join(lines) + "\n"


def phases_csv_rows(phases):
    """The phases table, one row per loop pass."""
    lines = [",".join(PHASE_COLUMNS)]
    for p in phases:
        lines.append(",".join([
            str(int(p.phase_index)),
            str(int(p.n_pairs)),
            fmt_float(p.delta_s),
            fmt_float(p.kl_hat),
            str(int(p.accepted)),
            fmt_float(p.beta),
            fmt_float(p.eps_s),
            fmt_float(p.delta_H),
        ]))
    return "\n".join(lines) + "\n"


def softplus(z):
    """log(1 + e^z) without overflow."""
    z = np.asarray(z, dtype=float)
    out = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    if out.ndim == 0:
        return float(out)
    return out


def log_sigmoid(z):
    """log(sigmoid(z)) = -softplus(-z)."""
    return -softplus(-np.asarray(z, dtype=float))


def dpo_loss(pi_rows, ref_rows, pairs, beta):
    """Mean DPO pair loss of a policy against a reference.

    Each (context, winner, loser) pair contributes -log sigmoid(beta * (the
    winner's log-ratio minus the loser's)); both tables are indexed by the
    pairs' context ids (Rafailov et al. 2023, "Direct Preference
    Optimization").
    """
    ctx, win, lose = np.array(pairs).T
    log_ratio = np.log(pi_rows) - np.log(ref_rows)
    margin = beta * (log_ratio[ctx, win] - log_ratio[ctx, lose])
    return float(np.mean(-log_sigmoid(margin)))


def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def tilted_policy(ref_rows, feats, w, beta):
    """pi(a | c) proportional to ref(a | c) * exp(feats[c, a] @ w / beta)."""
    return softmax(np.log(ref_rows) + feats @ w / beta)


def dpo_minimizer(ref_rows, feats, pairs, beta, lam, tol=1e-8, max_iter=100_000):
    """Tilt w minimizing len(pairs) * dpo_loss(tilted_policy(w)) + lam/2 |w|^2.

    Plain gradient descent from w = 0 with the fixed step 1/L, where L bounds
    the objective's curvature. The gradient runs through the policy tables:
    a pair's margin is beta times its winner's log-ratio minus its loser's,
    and d log pi(a | c) / dw = (feats[c, a] - E_pi[feats[c]]) / beta.
    """
    ctx, win, lose = np.array(pairs).T
    x = feats[ctx, win] - feats[ctx, lose]
    step = 1.0 / (0.25 * float(np.sum(x * x)) + lam)
    w = np.zeros(feats.shape[-1])
    for _ in range(max_iter):
        pi = tilted_policy(ref_rows, feats, w, beta)
        log_ratio = np.log(pi) - np.log(ref_rows)
        margin = beta * (log_ratio[ctx, win] - log_ratio[ctx, lose])
        dlog = (feats - np.einsum("ca,cad->cd", pi, feats)[:, None, :]) / beta
        dmargin = beta * (dlog[ctx, win] - dlog[ctx, lose])
        # d/dm of -log sigmoid(m) is -sigmoid(-m)
        grad = -(np.exp(log_sigmoid(-margin))[:, None] * dmargin).sum(axis=0) + lam * w
        if np.linalg.norm(grad) <= tol:
            return w
        w = w - step * grad
    raise AssertionError(f"gradient descent did not reach tol {tol} in {max_iter} steps")


def kl_row(p, q):
    """KL divergence of one probability row against another, 0 * log 0 = 0."""
    mask = p > 0.0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def kl_bound_trials(trials, K, d, seed, tag):
    """Per-trial (lhs, rhs) of the Gibbs-tilt KL perturbation check.

    Every trial draws from one generator seeded [seed, tag]: a context, a
    unit theta, a scale, theta_hat = theta + scale * noise, beta and a
    Dirichlet reference; lhs = kl(tilt by theta, tilt by theta_hat) and
    rhs = ||theta - theta_hat||^2 / (2 beta^2).
    """
    rng = np.random.default_rng([seed, tag])
    lhs, rhs = [], []
    for _ in range(trials):
        feats = make_features(K, d, rng)
        theta = rng.standard_normal(d)
        theta /= np.linalg.norm(theta)
        scale = rng.uniform(0.02, 1.0)
        theta_hat = theta + scale * rng.standard_normal(d)
        beta = rng.uniform(0.1, 2.0)
        ref = rng.dirichlet(np.ones(K))
        ref = (1.0 - K * 1e-6) * ref + 1e-6
        p = tilted_policy(ref, feats, theta, beta)
        q = tilted_policy(ref, feats, theta_hat, beta)
        lhs.append(kl_row(p, q))
        diff = float(np.linalg.norm(theta - theta_hat))
        rhs.append(diff * diff / (2.0 * beta * beta))
    return lhs, rhs


def self_normalized_trials(trials, window, d, seed, tag):
    """Per-trial lhs ||phi.T @ eta|| of the self-normalized tail check.

    Trial i draws from its own generator seeded [seed, tag, i]: two tables
    of unit rows whose difference is phi, a unit theta, and Bernoulli
    labels with means sigmoid(phi @ theta); eta is labels minus means.
    """
    lhs = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, tag, trial])
        rows1 = rng.standard_normal((window, d))
        rows1 /= np.linalg.norm(rows1, axis=1, keepdims=True)
        rows2 = rng.standard_normal((window, d))
        rows2 /= np.linalg.norm(rows2, axis=1, keepdims=True)
        phi = rows1 - rows2
        theta = rng.standard_normal(d)
        theta /= np.linalg.norm(theta)
        p = sigmoid(phi @ theta)
        labels = rng.uniform(size=window) < p
        eta = labels.astype(float) - p
        lhs.append(float(np.linalg.norm(phi.T @ eta)))
    return lhs


def preference_ledger(utils, learners, feats, thetas, ref_tilts, cfg):
    """A preference run's bias, error, regret and phase columns, step by step.

    ref_tilts[k] is the reference tilt in force after k gated phases. Each
    step's comparator is its own softmax of feats[t] @ (tilt + theta_t /
    beta_ref); its regret splits against the oracle value and the played row
    learners[t]. The running sum and the phase counter advance as the step
    loop did, the counter stopping at max_phases (0: one per boundary).
    """
    H = len(utils)
    max_phases = cfg.max_phases if cfg.max_phases > 0 else H // cfg.phase_length
    cols = {name: np.empty(H) for name in ("bias", "error", "regret_step", "regret_cum")}
    cols["phase"] = np.empty(H, dtype=int)
    cum, phase_index = 0.0, 0
    for t in range(H):
        u = utils[t]
        comparator = softmax_rows(feats[t] @ (ref_tilts[phase_index] + thetas[t] / cfg.beta_ref),
                                  floor=cfg.pi_min)
        best = float(u[np.argmax(u)])
        j_kl = float(comparator @ u)
        j_pi = float(learners[t] @ u)
        bias, error = best - j_kl, j_kl - j_pi
        cum += bias + error
        cols["phase"][t] = phase_index + 1
        cols["bias"][t], cols["error"][t] = bias, error
        cols["regret_step"][t], cols["regret_cum"][t] = bias + error, cum
        if (t + 1) % cfg.phase_length == 0 and phase_index < max_phases:
            phase_index += 1
    return cols


def estimation_error_trials(runs, checks_per_run, window, horizon, K, d, lam, delta,
                            v_total, seed, tag):
    """Per-trial (lhs, rhs, c) of the estimation-error check, one window fit at a time.

    Run r draws from its own generator seeded [seed, tag, r]: a fixed
    context, its drift path, then random pairs and their labels. At each
    check step t the window is the W rows before t; lhs is the fit's error
    ||theta_hat - theta_t||, c = lambda_min(X^T X + lam I) / W, and rhs the
    three-term bound with the window's drift total.
    """
    drift = spread_drift_limits(DriftConfig(1.0, 5.0, "sphere-walk", v_total), horizon, d)
    m0 = min_curvature_constant(1.0, 1.0)
    check_steps = np.unique(np.linspace(window, horizon - 1, checks_per_run).astype(int))
    lhs, rhs, c_values = [], [], []
    for run in range(runs):
        rng = np.random.default_rng([seed, tag, run])
        feats = make_features(K, d, rng)
        path = generate_path(horizon, d, drift, rng)
        first = rng.integers(0, K, size=horizon)
        second = rng.integers(0, K - 1, size=horizon)
        second = second + (second >= first)
        dphi = feats[first] - feats[second]
        z = np.einsum("td,td->t", dphi, path.thetas)
        labels = (rng.uniform(size=horizon) < sigmoid(z)).astype(float)
        v_local = local_window_variation(path.thetas, window)
        for t in check_steps:
            X = dphi[t - window:t]
            theta_hat, _ = fit_logistic_window(X, labels[t - window:t], lam)
            lhs.append(float(np.linalg.norm(theta_hat - path.thetas[t])))
            c = float(np.linalg.eigvalsh(X.T @ X + lam * np.eye(d))[0]) / window
            c_values.append(c)
            rhs.append(estimation_error_rhs(float(v_local[t]), window, lam, d, delta, m0, c,
                                            phi_max=2.0, theta_max=1.0))
    return lhs, rhs, c_values


def cumsum_draw(rng, probs):
    """One inverse-CDF draw through np.cumsum and np.searchsorted."""
    cdf = np.cumsum(probs)
    u = rng.uniform() * cdf[-1]
    return min(int(np.searchsorted(cdf, u, side="right")), probs.shape[0] - 1)


def step_label(u, utils_t, first, second):
    """A step's label from its uniform and a scalar sigmoid of the utility gap."""
    return u < sigmoid(utils_t[first] - utils_t[second])


def method_softmax_rows(logits, floor):
    """Row-wise softmax through the array methods, then the support floor."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    weights = np.exp(shifted)
    out = weights / weights.sum(axis=-1, keepdims=True)
    if floor == 0.0:
        return out
    return (1.0 - logits.shape[-1] * floor) * out + floor


def one_shot_features(n_actions, dim, rng, lead=()):
    """The feature draw with one np.linalg.norm call over every row."""
    rows = rng.standard_normal((*lead, n_actions, dim))
    norms = np.linalg.norm(rows, axis=-1)
    while np.any(norms == 0.0):
        bad = norms == 0.0
        rows[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(rows, axis=-1)
    return rows / norms[..., None]


def gathered_pair_rows(n_actions, dim, n_pairs, rng):
    """Each context's first-minus-second row, gathered from the one-shot draw of every context."""
    phi = one_shot_features(n_actions, dim, rng, (n_pairs,))
    first = rng.integers(n_actions, size=n_pairs)
    second = rng.integers(n_actions - 1, size=n_pairs)
    second += second >= first
    rows = np.arange(n_pairs)
    return phi[rows, first] - phi[rows, second]


def materialised_warm_start(cfg, rng, theta0):
    """The warm start's (estimate, tilt), fitted on rows gathered from every held context."""
    dphi = gathered_pair_rows(cfg.K, cfg.d, cfg.warm_pairs, rng)
    wins = rng.uniform(size=cfg.warm_pairs) < sigmoid(dphi @ theta0)
    theta_hat, _ = fit_logistic_window(dphi, wins.astype(float), cfg.lam)
    norm = float(np.linalg.norm(theta_hat))
    if norm <= 1e-12:
        return np.zeros(cfg.d), np.zeros(cfg.d)
    return theta_hat, (cfg.warm_scale / norm) * theta_hat


def slot_by_slot_island_step(states, policy_row, anchors, scorer, rngs, round_idx,
                             n_proposals, next_index):
    """The island step with one scorer call per proposal slot.

    Slot j of every island is drawn (island i from rngs[i]) and scored as
    one batch; then each island records its entry and updates its stall
    count before its next slot is drawn.
    """
    rows = [[] for _ in states]
    for j in range(n_proposals):
        slot = []
        for state, rng in zip(states, rngs):
            anchor_idx = sample_categorical(rng, policy_row)
            base = anchors[anchor_idx]
            s = state.proposal_scale
            w = int(np.clip(round(base.window_size * 2.0 ** rng.normal(0.0, 0.5 * s)), 1, 1024))
            lam = float(np.clip(base.lambda_reg * 10.0 ** rng.normal(0.0, 0.3 * s), 1e-3, 10.0))
            alpha = float(np.clip(base.ucb_alpha + rng.normal(0.0, 0.25 * s), 0.0, 2.0))
            slot.append((anchor_idx, StrategyCandidate(window_size=w, lambda_reg=lam,
                                                       ucb_alpha=alpha)))
        try:
            scores = [float(v) for v in scorer([cand for _, cand in slot], round_idx)]
        except (ConvergenceError, np.linalg.LinAlgError, FloatingPointError):
            scores = [math.nan] * len(slot)
        for i, (state, (anchor_idx, cand), score) in enumerate(
                zip(states, slot, scores, strict=True)):
            failure = not math.isfinite(score)
            rows[i].append(IslandEntry(
                index=next_index + i * n_proposals + j, island=state.island_id,
                round=round_idx, anchor=anchor_idx, candidate=cand,
                score=math.nan if failure else score, failure=failure,
            ))
            if failure:
                continue
            if score > state.best_score:
                state.best_score = score
                state.non_improving = 0
            else:
                state.non_improving += 1
                if state.non_improving >= 10:
                    state.proposal_scale = min(state.proposal_scale * 2.0, _SCALE_CAP)
                    state.non_improving = 0
    return [e for row in rows for e in row]


def reference_preference_run(cfg, seed):
    """A preference run read straight off the spec: (ledger columns, phase reports).

    The run's four streams are seeded [seed, 0..3] (path, contexts, agent,
    gate) and its warm batch [seed, 4]. Each step fits its window, the W
    steps before it, plays the learner softmax of its context against the
    reference tilt plus the estimate over beta, draws a first action and then
    a second among the rest, and labels the pair with one uniform. Every
    phase_length-th step closes a phase (up to max_phases of them): the
    last dataset_phases phases' winner-minus-loser rows fit a full and a
    half tilt, a gate subset of the phase's own steps scores them against
    the incumbent, and an evolving run promotes the best candidate when it
    clears eps_s and delta_H. The ledger comes from preference_ledger.
    """
    evolving = cfg.mode == "evodpo"
    H, K, d, L = cfg.H, cfg.K, cfg.d, cfg.phase_length
    W = window_size(H, cfg.kappa)
    max_phases = cfg.max_phases if cfg.max_phases > 0 else H // L
    path = generate_path(H, d, make_drift(cfg, H), np.random.default_rng([seed, 0]))
    rng_ctx = np.random.default_rng([seed, 1])
    rng_agent = np.random.default_rng([seed, 2])
    rng_gate = np.random.default_rng([seed, 3])
    if cfg.fixed_context:
        feats = np.stack([one_shot_features(K, d, rng_ctx)] * H)
    else:
        feats = one_shot_features(K, d, rng_ctx, (H,))
    utils = np.stack([feats[t] @ path.thetas[t] for t in range(H)])
    theta_hat, g_ref = np.zeros(d), np.zeros(d)
    if cfg.warm_scale > 0.0:
        theta_hat, g_ref = materialised_warm_start(
            cfg, np.random.default_rng([seed, 4]), path.thetas[0])
    steps = []  # (t, first, second, first wins) per step
    learners, ref_tilts, phases = [], [g_ref], []
    for t in range(H):
        if t > 0:
            window = steps[max(0, t - W):t]
            X = np.array([feats[s][a] - feats[s][b] for s, a, b, _ in window])
            labels = np.array([float(won) for *_, won in window])
            theta_hat, _ = fit_logistic_window(X, labels, cfg.lam, theta0=theta_hat)
        learner = method_softmax_rows(feats[t] @ (g_ref + theta_hat / cfg.beta), cfg.pi_min)
        learners.append(learner)
        first = cumsum_draw(rng_agent, learner)
        rest = learner.copy()
        rest[first] = 0.0
        second = cumsum_draw(rng_agent, rest)
        steps.append((t, first, second, step_label(rng_agent.uniform(), utils[t], first, second)))
        if (t + 1) % L == 0 and len(phases) < max_phases:
            dataset = steps[max(0, t + 1 - cfg.dataset_phases * L):]
            dphi = np.array([feats[s][a] - feats[s][b] if won else feats[s][b] - feats[s][a]
                             for s, a, b, won in dataset])
            w_full = fit_dpo(dphi, cfg.dpo_lam)
            w_half = fit_dpo(dphi[:math.ceil(len(dphi) / 2)], cfg.dpo_lam)
            take = min(cfg.gate_size, L)
            gate_feats = feats[t + 1 - L + rng_gate.choice(L, size=take, replace=False)]
            scorer = path.thetas[t] if cfg.true_theta_scores else theta_hat
            # the gate's tables as one einsum each, as the loop forms them; a
            # per-context product rounds differently in about half the tables
            u_rows = np.einsum("nkd,d->nk", gate_feats, scorer)
            tilts = [g_ref + w_full / cfg.beta, g_ref + w_half / cfg.beta, g_ref]
            cand_rows = [method_softmax_rows(np.einsum("nkd,d->nk", gate_feats, g), cfg.pi_min)
                         for g in tilts]
            best, delta_s, kl_hat = propose_reference(cand_rows, u_rows, cfg.beta_ref)
            accepted = evolving and delta_s >= cfg.eps_s and kl_hat <= cfg.delta_H
            promoted = accepted and best != 2
            version = phases[-1].ref_version_after if phases else 0
            phases.append(PhaseReport(
                phase_index=len(phases) + 1, n_pairs=len(dphi), delta_s=delta_s, kl_hat=kl_hat,
                decision=("accept" if accepted else "reject") if evolving else "inert",
                accepted=accepted, chosen=CANDIDATE_LABELS[best], ref_version_before=version,
                ref_version_after=version + promoted, beta=cfg.beta, eps_s=cfg.eps_s,
                delta_H=cfg.delta_H, gate_size=take))
            if promoted:
                g_ref = tilts[best]
            ref_tilts.append(g_ref)
    cols = preference_ledger(utils, learners, feats, path.thetas, ref_tilts, cfg)
    cols["t"] = np.arange(1, H + 1)
    cols["oracle_arm"] = np.array([int(np.argmax(u)) for u in utils])
    cols["switch"] = np.array([0] + [
        int(np.argmax(feats[t] @ path.thetas[t]) != np.argmax(feats[t] @ path.thetas[t - 1]))
        for t in range(1, H)])
    return cols, phases
