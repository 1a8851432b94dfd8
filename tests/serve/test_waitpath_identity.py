"""Bit-identity guarantees of the serve-path wait cache.

The wait cache is sold as a pure CPU optimization, so the guarantees are
all equalities on full report documents, not tolerances:

* ``wait_cache=None`` (the default) leaves the server byte-identical to
  one built before the knob existed — no ``wait_cache`` key in the JSON,
  same outcomes, same metrics;
* turning ``prewarm`` off moves every solve from the batched per-tick
  pass to the lookup hot path with byte-identical outcomes (only the
  cache's work ledger may differ);
* a fresh server rerun of the same stream with the cache enabled is
  byte-identical, cache stats included — the cache is deterministic
  state, not an accumulation of timing accidents.
"""

import dataclasses
import json

import pytest

from repro.core.waitbatch import WaitCacheConfig
from repro.errors import ConfigError
from repro.serve import CedarServer, CedarWarmPolicy, LoadGenerator
from repro.serve.bench import pinned_config, pinned_workload

N_REQUESTS = 24
QPS = 0.08
DEADLINE = 60.0
SEED = 2608


@pytest.fixture(scope="module")
def stream():
    workload = pinned_workload()
    requests = LoadGenerator(
        workload=workload,
        qps=QPS,
        n_requests=N_REQUESTS,
        deadline=DEADLINE,
        seed=SEED,
        rate_amplitude=0.5,
    ).generate()
    return workload.offline_tree(), requests


def _run(offline, requests, config):
    server = CedarServer(offline_tree=offline, config=config)
    return server.run(requests)


def _doc(report, drop_cache=False):
    doc = report.to_dict(include_outcomes=True)
    if drop_cache:
        doc.pop("wait_cache", None)
    return json.dumps(doc, indent=2, sort_keys=True)


def test_cache_disabled_is_byte_identical_to_plain_server(stream):
    offline, requests = stream
    cfg = pinned_config(grid_points=48)
    plain = _run(offline, requests, cfg)
    disabled = _run(
        offline, requests, dataclasses.replace(cfg, wait_cache=None)
    )
    assert "wait_cache" not in plain.to_dict()
    assert _doc(plain) == _doc(disabled)


def test_prewarm_off_is_byte_identical_outcomes(stream):
    offline, requests = stream
    cfg = pinned_config(grid_points=48)
    on = _run(
        offline, requests, dataclasses.replace(cfg, wait_cache=WaitCacheConfig())
    )
    off = _run(
        offline,
        requests,
        dataclasses.replace(
            cfg, wait_cache=WaitCacheConfig(prewarm=False)
        ),
    )
    assert _doc(on, drop_cache=True) == _doc(off, drop_cache=True)
    # only the work ledger moved: prewarm batch-solves (sometimes
    # speculatively, from pre-dispatch deadlines), off pays per lookup —
    # so prewarm's entries are a superset and off solves only what it hits
    assert on.wait_cache["wait_entries"] >= off.wait_cache["wait_entries"]
    assert off.wait_cache["wait_entries"] == off.wait_cache["misses"]
    assert off.wait_cache["batch_solves"] == 0
    assert on.wait_cache["batch_solves"] > 0


def test_cached_rerun_on_fresh_server_is_byte_identical(stream):
    offline, requests = stream
    cfg = dataclasses.replace(
        pinned_config(grid_points=48), wait_cache=WaitCacheConfig()
    )
    first = _run(offline, requests, cfg)
    second = _run(offline, requests, cfg)
    assert _doc(first) == _doc(second)
    assert first.wait_cache == second.wait_cache


def test_cached_quality_matches_exact_at_pinned_stream(stream):
    """The quantized waits land on the same outcomes as the exact ones
    at the pinned stream (regression anchor; the bounded-error claim is
    ``cache_equivalence`` in tests/test_benches.py)."""
    offline, requests = stream
    cfg = pinned_config(grid_points=48)
    exact = _run(offline, requests, cfg)
    cached = _run(
        offline, requests, dataclasses.replace(cfg, wait_cache=WaitCacheConfig())
    )
    assert cached.admitted == exact.admitted
    assert cached.deadline_hit_rate == exact.deadline_hit_rate
    assert abs(cached.mean_quality - exact.mean_quality) <= 0.02


def test_cache_stats_flow_into_report_and_metrics(stream):
    offline, requests = stream
    cfg = dataclasses.replace(
        pinned_config(grid_points=48), wait_cache=WaitCacheConfig()
    )
    server = CedarServer(offline_tree=offline, config=cfg)
    report = server.run(requests)
    stats = report.wait_cache
    assert stats["hits"] + stats["misses"] > 0
    assert stats["wait_entries"] > 0
    doc = report.to_dict()
    assert doc["wait_cache"] == stats
    # a second run on the same server reports per-run deltas, not totals
    second = server.run(requests).wait_cache
    assert second["misses"] == 0
    assert second["hits"] > 0


def test_explicit_policy_and_config_cache_are_mutually_exclusive(stream):
    offline, _ = stream
    cfg = dataclasses.replace(
        pinned_config(grid_points=48), wait_cache=WaitCacheConfig()
    )
    with pytest.raises(ConfigError):
        CedarServer(
            offline_tree=offline, config=cfg, policy=CedarWarmPolicy()
        )
