"""Fault classes and the draw-order contract.

Production aggregation trees fail in more ways than a dropped message:
leaf workers crash, machines stall, and whole racks go dark at once.
:class:`FaultModel` describes the failure environment of one query across
every tree level:

* **shipment loss** — an aggregator's upstream message is dropped with
  probability ``ship_loss_prob`` (applies at every aggregator level);
* **aggregator crash** — an aggregator dies before shipping with
  probability ``agg_crash_prob``; everything it collected is lost;
* **worker crash** — a leaf process dies with probability
  ``worker_crash_prob``; its output never arrives anywhere;
* **straggler slowdown** — a leaf's duration is multiplied by
  ``straggler_factor`` with probability ``straggler_prob`` (the
  machine-contention stragglers of the Tail-Tolerant Search literature);
* **correlated (bursty) failure** — a machine-level fault domain fails
  with probability ``domain_fail_prob`` and takes out *all* bottom-level
  aggregators assigned to it (see :class:`FaultDomainMap`).

Draw-order contract
-------------------
Seeded runs must stay bit-stable as fault classes are added, and every
simulator entry point must see the same durations and the same faults
for a given seed. One tree walk (``repro.simulation.query._walk_query``)
serves all of them and draws in this order:

1. From the **simulation generator**: the ``(n_bottom, k1)`` matrix of
   bottom-level durations, then one ship-duration vector per aggregator
   level, bottom-up — all before any aggregator runs. Nothing else draws
   from it, except Cedar-guided reissue, whose duplicate durations come
   from it mid-walk (which is why that entry point is two-level only).
2. Fault indicators come from a **first child stream** spawned off that
   generator (``rng.bit_generator.seed_seq.spawn``), so the duration
   draws are never perturbed — a :class:`FaultModel` with all
   probabilities zero gives the plain simulator's result on the same
   seed. Without a :class:`FaultModel` no child is spawned.
3. Hedge duplicates (:func:`repro.serve.simulate_query_hedged`) draw from
   a **second child stream**, spawned only when hedging is on — so the
   hedged and the injected run of one seed face the same fault schedule.
4. Within the fault stream, classes are drawn in the fixed order of
   :data:`FAULT_DRAW_ORDER`; **new classes must append to the end** of
   that tuple so earlier classes' draws keep their values for a given
   seed. Every class draws unconditionally (even at probability zero).

:func:`draw_faults` is the single place the fault draws happen; the walk
and tests both go through it.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.machine import Cluster

from ..errors import SimulationError

__all__ = [
    "FAULT_DRAW_ORDER",
    "FaultModel",
    "FaultDomainMap",
    "FaultDraws",
    "draw_faults",
    "domains_for_cluster",
]

#: The contract: fault classes draw in exactly this order from the fault
#: stream. Append new classes at the end; never reorder.
FAULT_DRAW_ORDER = (
    "worker_crash",
    "straggler",
    "agg_crash",
    "ship_loss",
    "domain_failure",
)


@dataclasses.dataclass(frozen=True)
class FaultDomainMap:
    """Assignment of bottom-level aggregators to machine fault domains.

    ``assignment[a]`` is the domain id of bottom aggregator ``a``. A
    failed domain crashes every aggregator assigned to it — the
    correlated/bursty failure mode where one machine hosts several
    aggregators.
    """

    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.assignment:
            raise SimulationError("fault domain map needs >= 1 aggregator")
        if any(d < 0 for d in self.assignment):
            raise SimulationError("fault domain ids must be >= 0")

    @property
    def n_aggregators(self) -> int:
        """Number of bottom-level aggregators covered by the map."""
        return len(self.assignment)

    @property
    def n_domains(self) -> int:
        """Number of distinct fault domains."""
        return max(self.assignment) + 1

    def members(self, domain: int) -> tuple[int, ...]:
        """Aggregator ids assigned to ``domain``."""
        return tuple(
            a for a, d in enumerate(self.assignment) if d == domain
        )

    @classmethod
    def contiguous(cls, n_aggregators: int, domain_size: int) -> "FaultDomainMap":
        """Pack aggregators into domains of ``domain_size`` neighbours —
        the usual "one machine hosts ``domain_size`` aggregators" layout."""
        if n_aggregators < 1:
            raise SimulationError(
                f"need >= 1 aggregator, got {n_aggregators}"
            )
        if domain_size < 1:
            raise SimulationError(
                f"domain_size must be >= 1, got {domain_size}"
            )
        return cls(
            assignment=tuple(a // domain_size for a in range(n_aggregators))
        )


def domains_for_cluster(cluster: "Cluster", n_aggregators: int) -> FaultDomainMap:
    """Fault domains induced by a :class:`repro.cluster.Cluster`.

    Aggregators are placed round-robin over the cluster's machines (the
    deployment scheduler's default spread) and inherit each machine's
    ``fault_domain`` — so a machine failure in the cluster substrate and a
    domain failure in the fault simulator take out the same aggregators.
    """
    machines = getattr(cluster, "machines", None)
    if not machines:
        raise SimulationError("cluster has no machines")
    if n_aggregators < 1:
        raise SimulationError(f"need >= 1 aggregator, got {n_aggregators}")
    return FaultDomainMap(
        assignment=tuple(
            machines[a % len(machines)].fault_domain
            for a in range(n_aggregators)
        )
    )


@dataclasses.dataclass(frozen=True)
class FaultModel:
    """Failure probabilities for one query, across all tree levels."""

    ship_loss_prob: float = 0.0
    agg_crash_prob: float = 0.0
    worker_crash_prob: float = 0.0
    straggler_prob: float = 0.0
    straggler_factor: float = 1.0
    domain_fail_prob: float = 0.0
    domains: Optional[FaultDomainMap] = None

    def __post_init__(self) -> None:
        for name in (
            "ship_loss_prob",
            "agg_crash_prob",
            "worker_crash_prob",
            "straggler_prob",
            "domain_fail_prob",
        ):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise SimulationError(f"{name} must be in [0,1], got {p}")
        if self.straggler_factor < 1.0:
            raise SimulationError(
                f"straggler_factor must be >= 1, got {self.straggler_factor}"
            )
        if self.domain_fail_prob > 0.0 and self.domains is None:
            raise SimulationError(
                "domain_fail_prob > 0 needs a FaultDomainMap (domains=...)"
            )

    @property
    def is_null(self) -> bool:
        """True when no fault class can fire."""
        return (
            self.ship_loss_prob == 0.0
            and self.agg_crash_prob == 0.0
            and self.worker_crash_prob == 0.0
            and self.straggler_prob == 0.0
            and self.domain_fail_prob == 0.0
        )

    @property
    def shipment_survival(self) -> float:
        """Probability one aggregator's shipment reaches its parent."""
        return (1.0 - self.ship_loss_prob) * (1.0 - self.agg_crash_prob)

    @property
    def worker_survival(self) -> float:
        """Probability one leaf worker's output ever arrives."""
        return 1.0 - self.worker_crash_prob


@dataclasses.dataclass(frozen=True)
class FaultDraws:
    """Materialized fault indicators for one query (see FAULT_DRAW_ORDER).

    ``worker_crashes``/``stragglers`` have shape ``(n_bottom, k1)``;
    ``agg_crashes``/``ship_losses`` hold one boolean array per aggregator
    level (bottom-up); ``domain_failures`` has one entry per domain.
    """

    worker_crashes: np.ndarray
    stragglers: np.ndarray
    agg_crashes: tuple[np.ndarray, ...]
    ship_losses: tuple[np.ndarray, ...]
    domain_failures: np.ndarray


def draw_faults(
    rng: np.random.Generator,
    model: FaultModel,
    n_bottom: int,
    k1: int,
    level_counts: Sequence[int],
) -> FaultDraws:
    """Draw every fault indicator in the contract order.

    ``rng`` must be the dedicated fault stream (spawn it off the
    simulation generator); ``level_counts[i]`` is the number of
    aggregators at level ``i+1``. Draws are unconditional so that a
    probability flipping between zero and nonzero never shifts the draws
    of the other classes.
    """
    worker_crashes = rng.random((n_bottom, k1)) < model.worker_crash_prob
    stragglers = rng.random((n_bottom, k1)) < model.straggler_prob
    agg_crashes = tuple(
        rng.random(n) < model.agg_crash_prob for n in level_counts
    )
    ship_losses = tuple(
        rng.random(n) < model.ship_loss_prob for n in level_counts
    )
    n_domains = model.domains.n_domains if model.domains is not None else 0
    domain_failures = rng.random(n_domains) < model.domain_fail_prob
    return FaultDraws(
        worker_crashes=worker_crashes,
        stragglers=stragglers,
        agg_crashes=agg_crashes,
        ship_losses=ship_losses,
        domain_failures=domain_failures,
    )
