"""The serving observability vocabulary cannot drift from cedarlint.

Three sync directions, all asserted here:

* every name ``repro.serve`` declares is known to the linter
  (``KNOWN_SPAN_ATTRS`` / ``KNOWN_PROFILE_SITES``);
* every declared name is actually used somewhere in the package
  (no vocabulary rot);
* linting the package source itself produces zero findings.
"""

import json
import pathlib

import repro.serve
from repro.checks import lint_paths
from repro.obs import MetricsRegistry
from repro.obs.profile import KNOWN_PROFILE_SITES
from repro.obs.span import KNOWN_SPAN_ATTRS
from repro.serve import (
    SERVE_METRIC_NAMES,
    SERVE_PROFILE_SITES,
    SERVE_SPAN_ATTRS,
    SLOAccountant,
)

SERVE_DIR = pathlib.Path(repro.serve.__file__).parent
SERVE_SOURCES = sorted(SERVE_DIR.glob("*.py"))


def _full_source():
    return "\n".join(path.read_text() for path in SERVE_SOURCES)


class TestLinterKnowsServe:
    def test_span_attrs_registered(self):
        assert SERVE_SPAN_ATTRS <= KNOWN_SPAN_ATTRS

    def test_profile_sites_registered(self):
        assert SERVE_PROFILE_SITES <= KNOWN_PROFILE_SITES

    def test_serve_package_lints_clean(self):
        findings = lint_paths([str(SERVE_DIR)])
        assert findings == [], [str(f) for f in findings]


class TestDeclaredNamesAreUsed:
    def test_span_attrs_appear_in_source(self):
        source = _full_source()
        for attr in sorted(SERVE_SPAN_ATTRS):
            assert attr in source, f"declared span attr {attr!r} never used"

    def test_profile_sites_appear_in_source(self):
        source = _full_source()
        for site in sorted(SERVE_PROFILE_SITES):
            assert f'"{site}"' in source, f"declared site {site!r} never used"

    def test_metric_names_appear_in_source(self):
        source = _full_source()
        for name in sorted(SERVE_METRIC_NAMES):
            assert f'"{name}"' in source, f"declared metric {name!r} never used"


class TestEmittedMatchesDeclared:
    def test_accountant_emits_exactly_the_declared_families(self):
        metrics = MetricsRegistry()
        slo = SLOAccountant(metrics)
        slo.record_arrival("t")
        slo.record_shed("t", "queue_full")
        slo.record_completion("t", latency=1.0, deadline=10.0, quality=1.0, hit=True)
        slo.record_queue_depth(0)
        slo.record_degraded("t")
        slo.record_retry("t")
        slo.record_brownout("t")
        slo.record_mode_transition("brownout", "sustained_faults")
        slo.record_hedge("t", reissued=2, wins=1)
        slo.record_shard_kill(0, hard=False)
        slo.record_shard_restart(0, redispatched=2)
        slo.record_shard_checkpoint(0)
        slo.record_shard_heartbeat(0)
        slo.record_shard_router_shed("t", "tenant_budget")
        slo.record_shard_orphaned(0, 1)
        slo.record_wait_cache(hits=3, misses=2, batch_solves=1, entries=2)
        slo.record_learned(lookups=5, fallbacks=1)
        doc = json.loads(metrics.render_json())
        emitted = {name.removeprefix("cedar_") for name in doc}
        assert emitted == SERVE_METRIC_NAMES

    def test_restart_without_redispatch_skips_redispatched_family(self):
        metrics = MetricsRegistry()
        SLOAccountant(metrics).record_shard_restart(3, redispatched=0)
        doc = json.loads(metrics.render_json())
        assert "cedar_serve_shard_restarts_total" in doc
        assert "cedar_serve_shard_redispatched_total" not in doc
