"""Fault schedules and the fault-injecting serve backend.

Pushes :mod:`repro.faults` up into the serving layer: a
:class:`FaultSchedule` describes the failure environment as a function of
virtual time (a steady base :class:`~repro.faults.FaultModel` plus
bounded storm windows), and :class:`FaultyBackend` runs each dispatched
query under the model in force at its dispatch time via
:func:`~repro.faults.simulate_query_with_faults`.

The zero-rate guarantee of the fault simulator is preserved *exactly* at
the serving layer: whenever the model in force is null (all probabilities
zero), the backend delegates verbatim to the same
:class:`~repro.serve.SimBackend` a plain server would have built — same
simulator entry point, same ``agg_sample`` handling, same metric
families. A chaos serve run with an all-zero schedule is therefore
bit-identical to a plain serve run on the same requests, which
``tests/serve/test_chaos_serve.py`` asserts on full report JSON.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from ..core import QueryContext, WaitPolicy
from ..errors import ConfigError
from ..faults.inject import simulate_query_with_faults
from ..faults.model import FaultModel
from ..obs.metrics import MetricsRegistry
from ..obs.span import SpanTracer
from .request import QueryRequest
from .server import BackendResult, QueryBackend, SimBackend

__all__ = ["FaultWindow", "FaultSchedule", "FaultyBackend"]


@dataclasses.dataclass(frozen=True)
class FaultWindow:
    """One bounded storm: ``faults`` applies on ``[start, end)``."""

    start: float
    end: float
    faults: FaultModel

    def __post_init__(self) -> None:
        if self.start < 0.0:
            raise ConfigError(f"start must be >= 0, got {self.start}")
        if self.end <= self.start:
            raise ConfigError(
                f"window end must exceed start, got [{self.start}, {self.end})"
            )

    def covers(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclasses.dataclass(frozen=True)
class FaultSchedule:
    """Failure environment over virtual time: a base model plus storms.

    Windows must be sorted by start and non-overlapping; outside every
    window the ``base`` model applies. ``model_at`` is what the backend
    consults at each dispatch.
    """

    base: FaultModel = FaultModel()
    windows: tuple[FaultWindow, ...] = ()

    def __post_init__(self) -> None:
        for earlier, later in zip(self.windows, self.windows[1:]):
            if later.start < earlier.end:
                raise ConfigError(
                    "fault windows must be sorted and non-overlapping, got "
                    f"[{earlier.start}, {earlier.end}) then "
                    f"[{later.start}, {later.end})"
                )

    @classmethod
    def constant(cls, faults: FaultModel) -> "FaultSchedule":
        """A schedule with no storms: ``faults`` applies at all times."""
        return cls(base=faults)

    def model_at(self, now: float) -> FaultModel:
        """The fault model in force at virtual time ``now``."""
        for window in self.windows:
            if window.covers(now):
                return window.faults
        return self.base

    @property
    def is_null(self) -> bool:
        """True when no fault can ever fire, at any time."""
        return self.base.is_null and all(w.faults.is_null for w in self.windows)

    def describe(self) -> dict[str, object]:
        """JSON-ready summary (for benchmark documents)."""

        def model_doc(model: FaultModel) -> dict[str, object]:
            return {
                "ship_loss_prob": model.ship_loss_prob,
                "agg_crash_prob": model.agg_crash_prob,
                "worker_crash_prob": model.worker_crash_prob,
                "straggler_prob": model.straggler_prob,
                "straggler_factor": model.straggler_factor,
                "domain_fail_prob": model.domain_fail_prob,
                "n_domains": (
                    model.domains.n_domains if model.domains is not None else 0
                ),
            }

        return {
            "base": model_doc(self.base),
            "windows": [
                {
                    "start": w.start,
                    "end": w.end,
                    "faults": model_doc(w.faults),
                }
                for w in self.windows
            ],
        }


class FaultyBackend(QueryBackend):
    """Runs each admitted query under the scheduled fault model.

    The server tells the backend each dispatch's virtual time and request
    through :meth:`observe_dispatch` (backends are otherwise clockless);
    the fault model in force at that instant governs the query. Null
    models delegate to a plain :class:`~repro.serve.SimBackend`, keeping
    the zero-rate path bit-identical.
    """

    def __init__(
        self,
        schedule: FaultSchedule,
        agg_sample: Optional[int] = None,
    ):
        self.schedule = schedule
        self._plain = SimBackend(agg_sample=agg_sample)
        self._now = 0.0

    def on_run_start(self) -> None:
        """Reset per-run state (the server calls this at run start)."""
        self._now = 0.0

    def observe_dispatch(self, request: QueryRequest, now: float) -> None:
        """Record the dispatch instant whose fault model governs the
        next :meth:`run` call."""
        self._now = float(now)

    def run(
        self,
        ctx: QueryContext,
        policy: WaitPolicy,
        seed: int,
        tracer: Optional[SpanTracer],
        metrics: Optional[MetricsRegistry],
        span_attrs: dict[str, Any],
    ) -> BackendResult:
        model = self.schedule.model_at(self._now)
        if model.is_null:
            return self._plain.run(ctx, policy, seed, tracer, metrics, span_attrs)
        faulty = simulate_query_with_faults(
            ctx,
            policy,
            model,
            seed=seed,
            tracer=tracer,
            metrics=metrics,
            span_attrs=span_attrs,
        )
        return BackendResult.from_result(faulty)
