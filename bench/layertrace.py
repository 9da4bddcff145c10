"""Outside-in tracing of driftpref: self time and call counts per layer.

A layer is a driftpref module. The tracer wraps every public function of
each traced module and installs the wrapper at every place the function is
bound by name: its own module, and each module that imported it (for
example ``generate_path`` in ``prefloop``, ``islands`` and ``verify``).
Calls through any binding are recorded, and each binding keeps its own call
count, so a prediction such as "islands never calls fit_logistic_window"
can be checked binding by binding.

Self time is a call's duration minus the time of the traced calls made
inside it. ``numerics`` is not traced: its helpers count as their callers'
self time. Nothing here edits driftpref's files; ``uninstall`` restores
every binding.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

LAYERS = ("config", "env", "estimator", "policies", "prefloop", "islands",
          "regret", "verify", "cli")

# Called once per step or per emitted float, and only from their own
# module, so their time is their layer's self time either way; wrapping
# them would add more tracing cost than they take.
UNWRAPPED = {"env.advance_theta", "cli.fmt_float"}


class FnStat:
    __slots__ = ("calls", "self_s", "total_s", "max_total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.max_total_s = 0.0


class Tracer:
    """Wraps driftpref's public functions while installed.

    ``stats`` maps "layer.function" to an FnStat; ``site_calls`` counts
    calls per (binding module, name); ``counts`` holds work counters filled
    by the hooks below (rows fitted, path steps, bytes written, ...).
    """

    def __init__(self, package):
        self.package = package
        self.stats: dict[str, FnStat] = {}
        self.site_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every binding, with all statistics starting from zero."""
        self.site_calls = Counter()
        self.counts = Counter()
        modules = {name: getattr(self.package, name) for name in LAYERS}
        targets = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__
                        and f"{layer}.{name}" not in UNWRAPPED):
                    targets[id(fn)] = (f"{layer}.{name}", fn)
        self.stats = {key: FnStat() for key, _ in targets.values()}
        sites = dict(modules, **{"": self.package})
        for site, mod in sites.items():
            for name, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][1] is obj:
                    key, fn = targets[id(obj)]
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, self._wrap(key, (site, name), fn))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._saved):
            setattr(mod, name, obj)
        self._saved = []

    def _wrap(self, key: str, site: tuple[str, str], fn):
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter
        hook = _HOOKS.get(key)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.site_calls[site] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                if stack:
                    stack[-1] += dt
                stat.calls += 1
                stat.self_s += dt - inner
                stat.total_s += dt
                if dt > stat.max_total_s:
                    stat.max_total_s = dt
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def layer_calls(self, layer: str) -> int:
        return sum(s.calls for k, s in self.stats.items()
                   if k.split(".", 1)[0] == layer)

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for k, s in self.stats.items()
                   if k.split(".", 1)[0] == layer)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _fit_rows(counts, args, kwargs, result):
    counts["estimator.fit_rows"] += len(_arg(args, kwargs, 0, "buffer"))


def _path_steps(counts, args, kwargs, result):
    counts["env.path_steps"] += int(_arg(args, kwargs, 0, "horizon"))


def _episode_steps(counts, args, kwargs, result):
    counts["islands.episode_steps"] += int(_arg(args, kwargs, 3, "horizon"))


def _proposals(counts, args, kwargs, result):
    counts["islands.proposals"] += len(result)
    counts["islands.proposals_ok"] += sum(not e.failure for e in result)


def _island_phases(counts, args, kwargs, result):
    counts["islands.accepted_phases"] += result.accepted_phases
    counts["islands.gated_phases"] += result.gated_phases


def _pref_phases(counts, args, kwargs, result):
    if result.evolving:
        counts["prefloop.accepted_phases"] += result.accepted_phases
        counts["prefloop.gated_phases"] += result.gated_phases


def _trials(counts, args, kwargs, result):
    counts["verify.trials"] += int(result.trials)


def _bytes(counts, args, kwargs, result):
    counts["cli.bytes_written"] += len(_arg(args, kwargs, 1, "text").encode())
    counts["cli.files_written"] += 1


_HOOKS = {
    "estimator.fit_logistic_window": _fit_rows,
    "env.generate_path": _path_steps,
    "islands.run_reward_episode": _episode_steps,
    "islands.island_step": _proposals,
    "islands.run_island_search": _island_phases,
    "prefloop.run_preference_loop": _pref_phases,
    "verify.check_kl_bound": _trials,
    "verify.check_switching_budget": _trials,
    "verify.check_local_variation": _trials,
    "verify.check_self_normalized": _trials,
    "verify.check_estimation_error": _trials,
    "cli.write_text": _bytes,
}

# Functions summed into a named per-layer metric (self time unless noted).
_ISLAND_SEARCH = ("run_island_search", "island_step", "build_pairs_top_s",
                  "strategist_rules")
_EMIT = ("steps_csv", "phases_csv", "dump_json", "write_text")
_VERIFY_CHECKS = {
    "kl_perturbation": "check_kl_bound",
    "switching_budget": "check_switching_budget",
    "local_variation": "check_local_variation",
    "self_normalized": "check_self_normalized",
    "estimation_error": "check_estimation_error",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, keyed by metric name."""
    st = tracer.stats
    c = tracer.counts

    def self_s(layer, *names):
        return sum(st[f"{layer}.{n}"].self_s for n in names)

    def calls(layer, *names):
        return sum(st[f"{layer}.{n}"].calls for n in names)

    # Layer totals; policies.s, regret.s and config.parse_s are the totals
    # of the other three layers.
    m = {f"{layer}.self_s": tracer.layer_self_s(layer) for layer in
         ("env", "estimator", "prefloop", "islands", "verify", "cli")}
    m.update({
        "estimator.fit_s": self_s("estimator", "fit_logistic_window"),
        "estimator.fit_calls": calls("estimator", "fit_logistic_window"),
        "estimator.fit_rows": c["estimator.fit_rows"],
        "prefloop.loop_self_s": self_s("prefloop", "run_preference_loop"),
        "prefloop.fit_dpo_s": self_s("prefloop", "fit_dpo"),
        "prefloop.fit_dpo_calls": calls("prefloop", "fit_dpo"),
        "prefloop.run_s_max": st["prefloop.run_preference_loop"].max_total_s,
        "prefloop.accept_ratio": _ratio(c["prefloop.accepted_phases"],
                                        c["prefloop.gated_phases"]),
        "policies.s": tracer.layer_self_s("policies"),
        "policies.calls": tracer.layer_calls("policies"),
        "islands.episode_s": self_s("islands", "run_reward_episode"),
        "islands.episodes": calls("islands", "run_reward_episode"),
        "islands.episode_steps": c["islands.episode_steps"],
        "islands.search_self_s": self_s("islands", *_ISLAND_SEARCH),
        "islands.proposals": c["islands.proposals"],
        "islands.proposal_ok_ratio": _ratio(c["islands.proposals_ok"],
                                            c["islands.proposals"]),
        "islands.gate_accept_ratio": _ratio(c["islands.accepted_phases"],
                                            c["islands.gated_phases"]),
        "env.path_s": self_s("env", "generate_path"),
        "env.path_calls": calls("env", "generate_path"),
        "env.path_steps": c["env.path_steps"],
        "env.features_s": self_s("env", "make_features"),
        "regret.s": tracer.layer_self_s("regret"),
        "regret.calls": tracer.layer_calls("regret"),
        "verify.trials": c["verify.trials"],
        "cli.emit_s": self_s("cli", *_EMIT),
        "cli.bytes_written": c["cli.bytes_written"],
        "cli.files_written": c["cli.files_written"],
        "config.parse_s": tracer.layer_self_s("config"),
    })
    for label, fn in _VERIFY_CHECKS.items():
        m[f"verify.{label}_s"] = st[f"verify.{fn}"].total_s
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s") or "_s_" in name or name in ("policies.s", "regret.s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def check_predictions(tracer: Tracer, exercised, bypassed) -> list[str]:
    """Broken trace predictions, as messages; empty when all hold."""
    problems = []
    for site in exercised:
        if tracer.site_calls[site] == 0:
            problems.append(f"{site[0]}.{site[1]} recorded no calls")
    for target in bypassed:
        if "." in target:
            n = tracer.stats[target].calls
        else:
            n = tracer.layer_calls(target)
        if n:
            problems.append(f"{target} was predicted bypassed but ran {n} calls")
    return problems
