"""The ``cedar-repro serve-bench --learned`` learned-policy benchmark.

Pins the claims the learned table is sold on, in the same deterministic
work-unit currency as the wait-path bench (wall clocks are never
byte-stable; profiler *call counts* are):

* **O(1) serving, even cold** — a fresh :class:`LearnedWaitPolicy`
  answers every in-envelope wait decision with one table read (1 work
  unit, the price of a wait-cache *hit*) and zero CALCULATEWAIT sweeps
  and zero tail-grid builds. The wait-table cache only reaches that
  regime warm; cold it still pays a solve per new bucket.
* **Quality holds where Cedar is exact and wins where it is not** — on
  held-out seeds the learned table stays within 1% of
  :class:`~repro.core.CedarPolicy` on the log-normal scenario (where the
  sweep is provably right) and strictly beats it on at least one
  non-log-normal scenario (Weibull / mixture / drift).
* **The guard stays quiet at home** — the fallback-decision rate over
  the training catalog stays under 5%.
* **Everything reruns byte-identical** — retraining at the pinned seed
  reproduces the shipped artifact exactly; evaluation repeats exactly;
  a learned serve run repeats exactly; and a server with the learned
  path *disabled* emits reports byte-identical across runs with no
  ``learned`` key at all.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..core.policies import CedarPolicy, WaitPolicy
from ..core.waitbatch import WaitTableCache
from ..serve.bench import (
    counted,
    pinned_requests,
    pinned_workload,
    planner_work,
    work_model_doc,
)
from ..serve.request import ServeConfig
from ..serve.server import CedarServer
from ..serve.warmstart import WarmStartStore
from .catalog import DEFAULT_CATALOG, Scenario, catalog_hash
from .policy import LearnedWaitPolicy
from .table import LearnedWaitTable, load_table
from .trainer import (
    PINNED_TRAIN_CONFIG,
    TrainConfig,
    evaluate_policy,
    train_table,
)

__all__ = ["run_learned_bench", "EVAL_SEED"]

#: held-out evaluation seed — deliberately distinct from
#: ``TrainConfig.seed``, so every quality claim below is out-of-sample.
EVAL_SEED = 0xE7A1


def _counted_eval(
    policy: WaitPolicy,
    catalog: Sequence[Scenario],
    queries_per_scenario: int,
    seed: int,
) -> tuple[dict[str, float], dict[str, int]]:
    """Evaluate under the profiler; return scores and per-site call counts."""
    return counted(
        lambda: evaluate_policy(policy, catalog, queries_per_scenario, seed)
    )


def _arm_doc(
    scores: dict[str, float],
    calls: dict[str, int],
    grid_points: int,
    decisions: int,
    lookups: int,
    solved_rows: int,
) -> dict[str, Any]:
    """Work-unit accounting for one eval pass (the wait-path bench's
    model, :func:`~repro.serve.bench.planner_work`: one table read costs
    what one wait-cache hit costs)."""
    work = planner_work(calls, grid_points, solved_rows, probes=lookups)
    return {
        **work,
        "scores": {name: scores[name] for name in sorted(scores)},
        "mean_quality": sum(scores.values()) / len(scores),
        "solved_rows": solved_rows,
        "lookups": lookups,
        "decisions": decisions,
        "per_decision_work": (
            work["work_units"] / decisions if decisions else 0.0
        ),
    }


def run_learned_bench(
    catalog: Sequence[Scenario] = DEFAULT_CATALOG,
    queries_per_scenario: int = 24,
    eval_seed: int = EVAL_SEED,
    train_config: TrainConfig = PINNED_TRAIN_CONFIG,
    table: Optional[LearnedWaitTable] = None,
    check_retrain: bool = True,
    serve_qps: float = 0.05,
    serve_requests: int = 24,
    serve_deadline: float = 60.0,
    serve_seed: int = 2608,
) -> dict[str, object]:
    """Run the learned-policy claim suite; JSON-ready, byte-stable."""
    shipped = table if table is not None else load_table()
    grid_points = train_config.grid_points
    scenarios = tuple(catalog)

    # -- arm 1: exact Cedar, the quality baseline ----------------------
    cedar = CedarPolicy(grid_points=grid_points)
    cedar_scores, cedar_calls = _counted_eval(
        cedar, scenarios, queries_per_scenario, eval_seed
    )
    arms: dict[str, Any] = {
        "cedar": _arm_doc(
            cedar_scores,
            cedar_calls,
            grid_points,
            # the exact planner decides by sweeping: one decision per sweep
            decisions=planner_work(cedar_calls, grid_points, 0, 0)["sweeps"],
            lookups=0,
            solved_rows=0,
        )
    }

    # -- arm 2: Cedar through the wait-table cache, cold then warm -----
    cache = WaitTableCache()
    cached_policy = CedarPolicy(grid_points=grid_points, wait_cache=cache)
    for phase in ("cold", "warm"):
        before = cache.stats()
        scores, calls = _counted_eval(
            cached_policy, scenarios, queries_per_scenario, eval_seed
        )
        after = cache.stats()
        lookups = (after["hits"] - before["hits"]) + (
            after["misses"] - before["misses"]
        )
        arms[f"cached_{phase}"] = _arm_doc(
            scores,
            calls,
            grid_points,
            decisions=lookups,
            lookups=lookups,
            solved_rows=after["solved_rows"] - before["solved_rows"],
        )

    # -- arm 3: the learned table, cold then warm ----------------------
    learned_policy = LearnedWaitPolicy(
        shipped, store=WarmStartStore(), grid_points=grid_points
    )
    for phase in ("cold", "warm"):
        stats0 = learned_policy.stats
        before_decisions = stats0.decisions
        before_lookups = stats0.lookups
        before_fb = stats0.fallback_decisions
        scores, calls = _counted_eval(
            learned_policy, scenarios, queries_per_scenario, eval_seed
        )
        decisions = stats0.decisions - before_decisions
        arms[f"learned_{phase}"] = _arm_doc(
            scores,
            calls,
            grid_points,
            decisions=decisions,
            lookups=stats0.lookups - before_lookups,
            solved_rows=0,
        )
        arms[f"learned_{phase}"]["fallback_decisions"] = (
            stats0.fallback_decisions - before_fb
        )
        arms[f"learned_{phase}"]["fallback_rate"] = (
            (stats0.fallback_decisions - before_fb) / decisions
            if decisions
            else 0.0
        )

    # -- arm 4: in-envelope traffic only (the O(1) claim carrier) ------
    # a *fresh* policy on the log-normal scenarios: every decision stays
    # inside the trained envelope, so this is the pure lookup path with
    # no fallback activity mixed in — cold, not warmed up.
    envelope_policy = LearnedWaitPolicy(
        shipped, store=WarmStartStore(), grid_points=grid_points
    )
    env_stats = envelope_policy.stats
    env_scores, env_calls = _counted_eval(
        envelope_policy,
        [s for s in scenarios if s.kind == "lognormal"],
        queries_per_scenario,
        eval_seed,
    )
    arms["learned_envelope"] = _arm_doc(
        env_scores,
        env_calls,
        grid_points,
        decisions=env_stats.decisions,
        lookups=env_stats.lookups,
        solved_rows=0,
    )
    arms["learned_envelope"]["fallback_decisions"] = env_stats.fallback_decisions

    # -- determinism: a fresh policy repeats the cold pass exactly -----
    rerun_policy = LearnedWaitPolicy(
        shipped, store=WarmStartStore(), grid_points=grid_points
    )
    rerun_scores, _ = _counted_eval(
        rerun_policy, scenarios, queries_per_scenario, eval_seed
    )
    eval_rerun_identical = rerun_scores == arms["learned_cold"]["scores"]

    # -- determinism: retraining reproduces the artifact ---------------
    retrain_identical: Optional[bool] = None
    if check_retrain:
        retrained = train_table(scenarios, train_config)
        retrain_identical = retrained.to_json() == shipped.to_json()

    # -- serve arms ----------------------------------------------------
    offline = pinned_workload().offline_tree()
    requests = pinned_requests(
        serve_qps, serve_requests, serve_deadline, serve_seed, rate_amplitude=0.0
    )
    learned_cfg = ServeConfig(learned=True)
    learned_serve = CedarServer(offline_tree=offline, config=learned_cfg)
    learned_report = learned_serve.run(requests)
    learned_serve_rerun = CedarServer(offline_tree=offline, config=learned_cfg)
    learned_serve_identical = (
        learned_serve_rerun.run(requests).to_json() == learned_report.to_json()
    )

    disabled_cfg = ServeConfig()
    disabled_a = CedarServer(offline_tree=offline, config=disabled_cfg).run(
        requests
    )
    disabled_b = CedarServer(offline_tree=offline, config=disabled_cfg).run(
        requests
    )
    disabled_identical = disabled_a.to_json() == disabled_b.to_json()

    # -- claims (recomputed, not trusted) ------------------------------
    work_model = work_model_doc(grid_points)
    lognormal = [s for s in scenarios if s.kind == "lognormal"]
    others = [s for s in scenarios if s.kind != "lognormal"]
    learned_cold = arms["learned_cold"]
    deltas = {
        s.name: learned_cold["scores"][s.name] - cedar_scores[s.name]
        for s in scenarios
    }
    envelope = arms["learned_envelope"]
    claims: dict[str, object] = {
        # in-envelope: one probe per decision, no sweep, no tail build —
        # on a cold, never-warmed policy.
        "envelope_per_decision_work": envelope["per_decision_work"],
        "cache_hit_cost": float(work_model["cache_hit"]),
        "envelope_at_most_cache_hit_cost": envelope["per_decision_work"]
        <= float(work_model["cache_hit"]),
        "envelope_sweeps": envelope["sweeps"],
        "envelope_tail_builds": envelope["tail_builds"],
        "envelope_fallback_decisions": envelope["fallback_decisions"],
        # full catalog, fallback guard included: still far below the
        # exact planner's per-decision price.
        "per_decision_work_learned_cold": learned_cold["per_decision_work"],
        "per_decision_work_cedar": arms["cedar"]["per_decision_work"],
        "cedar_over_learned_work_x": (
            arms["cedar"]["per_decision_work"]
            / learned_cold["per_decision_work"]
            if learned_cold["per_decision_work"]
            else 0.0
        ),
        "scenario_quality_deltas": {
            name: deltas[name] for name in sorted(deltas)
        },
        "min_lognormal_delta": (
            min(deltas[s.name] for s in lognormal) if lognormal else 0.0
        ),
        "non_lognormal_wins": sum(1 for s in others if deltas[s.name] > 0.0),
        "fallback_rate": learned_cold["fallback_rate"],
        "eval_rerun_identical": eval_rerun_identical,
        "serve_learned_rerun_identical": learned_serve_identical,
        "serve_disabled_rerun_identical": disabled_identical,
        "serve_disabled_has_no_learned_key": '"learned"'
        not in disabled_a.to_json(),
    }
    if retrain_identical is not None:
        claims["retrain_bit_identical"] = retrain_identical

    return {
        "bench": "learned_policy",
        "eval_seed": eval_seed,
        "queries_per_scenario": queries_per_scenario,
        "catalog": catalog_hash(scenarios),
        "table_provenance": dict(shipped.provenance),
        "n_states": shipped.space.n_states,
        "work_model": {
            **work_model,
            "table_lookup": work_model["cache_hit"],
        },
        "serve": {
            "qps": serve_qps,
            "n_requests": serve_requests,
            "deadline": serve_deadline,
            "seed": serve_seed,
            "mean_quality": learned_report.mean_quality,
            "deadline_hit_rate": learned_report.deadline_hit_rate,
            "learned": dict(learned_report.learned),
        },
        "arms": arms,
        "claims": claims,
    }
