"""Offline-trained wait-policy tables served as O(1) lookups.

The paper's CALCULATEWAIT sweep re-solves the gain/loss trade-off per
query per re-optimization. PR 8's :class:`~repro.core.waitbatch.WaitTableCache`
removed the *multiplicity* of that cost but kept its shape: every cold
bucket still pays a full sweep, and the answer is only as good as the
log-normal model the sweep assumes. This package replaces the sweep on
the serving hot path with a trained artifact:

* :mod:`repro.learn.features` — discretize a live query into a state
  ``(arrivals bucket, elapsed-deadline fraction, online-sigma regime,
  warm-start-prior bucket)`` using the same bucket arithmetic as the
  wait cache (:mod:`repro.core.quantize`);
* :mod:`repro.learn.trainer` — optimize a dense state → wait-fraction
  table against the deterministic simulator across the workload catalog
  (log-normal, Weibull, mixture, drift), with a seeded numpy-only
  cross-entropy optimizer (nevergrad optional, never required);
* :mod:`repro.learn.policy` — :class:`LearnedWaitPolicy` answers each
  wait decision with one table lookup and falls back to the exact
  Cedar controller when the observed state leaves the trained envelope;
* :mod:`repro.learn.table` — the versioned JSON artifact with training
  provenance (seed, catalog hash, iterations).
"""

from .bench import EVAL_SEED, run_learned_bench
from .catalog import DEFAULT_CATALOG, Scenario, catalog_hash, smoke_catalog
from .features import FeatureConfig, StateFeaturizer, StateSpace
from .policy import LearnedWaitPolicy
from .table import LearnedWaitTable, load_table
from .trainer import (
    PINNED_TRAIN_CONFIG,
    TrainConfig,
    evaluate_policy,
    train_pinned,
    train_table,
)
from .vocab import LEARN_METRIC_NAMES, LEARN_PROFILE_SITES, LEARN_SPAN_ATTRS

__all__ = [
    "DEFAULT_CATALOG",
    "EVAL_SEED",
    "FeatureConfig",
    "LEARN_METRIC_NAMES",
    "LEARN_PROFILE_SITES",
    "LEARN_SPAN_ATTRS",
    "LearnedWaitPolicy",
    "LearnedWaitTable",
    "PINNED_TRAIN_CONFIG",
    "Scenario",
    "StateFeaturizer",
    "StateSpace",
    "TrainConfig",
    "catalog_hash",
    "evaluate_policy",
    "load_table",
    "run_learned_bench",
    "smoke_catalog",
    "train_pinned",
    "train_table",
]
