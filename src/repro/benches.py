"""The pinned benches, listed once.

Every claim the repo makes beyond the paper's figures is pinned by one
``benchmarks/BENCH_*.json`` document that must regenerate byte-identical.
This table is the only place the five are enumerated: ``cedar-repro
serve-bench`` builds its flags and keyword arguments from it, the runtime
sanitizer and the chaos/shard experiment panels take their smoke specs
from it, and ``tests/test_benches.py`` (tier-1) regenerates and checks
each entry. The module sits above :mod:`repro.serve` and
:mod:`repro.learn` so neither has to import the other's harness.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Mapping

from .errors import ConfigError
from .learn import run_learned_bench, smoke_catalog
from .serve import (
    pinned_config,
    run_chaos_serve_bench,
    run_serve_bench,
    run_shard_serve_bench,
    run_waitpath_bench,
)

__all__ = ["BENCHES", "Bench"]


@dataclasses.dataclass(frozen=True)
class Bench:
    """One pinned bench: its harness, its sizes, its file, its CLI options."""

    #: registry key; every bench but ``serve`` is selected by ``--<name>``.
    name: str
    #: what ``--<name>`` runs, for the ``serve-bench`` help text.
    what: str
    #: the harness; returns the JSON-ready document.
    run: Callable[..., dict[str, object]]
    #: keyword arguments of the shrunk CI-sized run (a few seconds).
    smoke: Mapping[str, Any]
    #: the committed full-size document, under ``benchmarks/``.
    file: str
    #: ``serve-bench`` option -> ``run`` keyword; unlisted options are
    #: rejected, not ignored.
    options: Mapping[str, str]

    def kwargs(self, smoke: bool, given: Mapping[str, Any]) -> dict[str, Any]:
        """Keyword arguments for :attr:`run`: the smoke spec if ``smoke``
        else none, overridden by every option in ``given`` that is set
        (``None`` / ``False`` mean "not given"; a ``no_*`` flag clears
        its keyword)."""
        kwargs = dict(self.smoke) if smoke else {}
        for option, value in given.items():
            if value is None or value is False:
                continue
            if option not in self.options:
                raise ConfigError(
                    f"serve-bench --{self.name} does not take "
                    f"--{option.replace('_', '-')}"
                )
            kwargs[self.options[option]] = (
                not value if option.startswith("no_") else value
            )
        return kwargs


_SMOKE_CONFIG = pinned_config(grid_points=48)

BENCHES: Mapping[str, Bench] = {
    bench.name: bench
    for bench in (
        Bench(
            name="serve",
            what="QPS sweep with the warm-vs-cold pass",
            run=run_serve_bench,
            smoke={
                "n_requests": 16,
                "warm_requests": 24,
                "config": _SMOKE_CONFIG,
            },
            file="BENCH_serve.json",
            options={
                "qps": "qps_points",
                "requests": "n_requests",
                "deadline": "deadline",
                "seed": "seed",
                "no_warm": "warm_compare",
            },
        ),
        Bench(
            name="chaos",
            what="fault x drift chaos sweep (Cedar vs hedged requests)",
            run=run_chaos_serve_bench,
            smoke={
                "fault_rates": (0.0, 0.15),
                "n_requests": 16,
                "brownout_requests": 40,
                "drift_requests": 32,
                "drift_qps": 0.02,
                "config": _SMOKE_CONFIG,
            },
            file="BENCH_chaos_serve.json",
            options={"deadline": "deadline", "seed": "seed"},
        ),
        Bench(
            name="shards",
            what="sharded-supervision kill x load sweep (crash recovery "
            "+ bulkhead isolation)",
            run=run_shard_serve_bench,
            smoke={
                "qps_points": (0.04,),
                "n_requests": 18,
                "bulkhead_requests": 18,
                "config": _SMOKE_CONFIG,
            },
            file="BENCH_shard_serve.json",
            options={
                "qps": "qps_points",
                "deadline": "deadline",
                "seed": "seed",
            },
        ),
        Bench(
            name="waitpath",
            what="batched-wait-solver / wait-cache planner-cost comparison "
            "(deterministic work-unit model)",
            run=run_waitpath_bench,
            smoke={"n_requests": 16, "config": _SMOKE_CONFIG},
            file="BENCH_waitpath.json",
            options={
                "requests": "n_requests",
                "deadline": "deadline",
                "seed": "seed",
            },
        ),
        Bench(
            name="learned",
            what="learned-wait-table claim suite (O(1) serving cost, "
            "held-out quality, byte-determinism)",
            run=run_learned_bench,
            # two scenarios, fewer held-out queries, no retrain (CI trains
            # its tiny table separately and ``cmp``s two runs)
            smoke={
                "catalog": smoke_catalog(),
                "queries_per_scenario": 6,
                "check_retrain": False,
                "serve_requests": 12,
            },
            file="BENCH_learned_policy.json",
            options={"deadline": "serve_deadline", "seed": "serve_seed"},
        ),
    )
}
