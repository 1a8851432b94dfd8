"""Fault injection for the query simulator (compatibility re-export).

The fault subsystem now lives in :mod:`repro.faults`, which generalizes
the original two-level-only injector to n-level trees and adds worker
crashes, straggler slowdowns, and correlated machine-domain failures.
This module keeps the historical import path working::

    from repro.simulation import FaultModel, simulate_query_with_faults

The draw-order contract lives in :mod:`repro.faults.model`.
"""

from __future__ import annotations

from ..faults import (
    FAULT_DRAW_ORDER,
    FaultDomainMap,
    FaultModel,
    FaultyQueryResult,
    simulate_query_with_faults,
)

__all__ = [
    "FAULT_DRAW_ORDER",
    "FaultModel",
    "FaultDomainMap",
    "FaultyQueryResult",
    "simulate_query_with_faults",
]
