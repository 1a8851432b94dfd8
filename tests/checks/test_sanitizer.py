"""Runtime sanitizer behaviors: tracking, patching, agreement logic."""

import threading

import numpy as np
import pytest

from repro.checks.sanitizer import (
    SanitizerRegistry,
    TrackedGenerator,
    patch_lock_tracing,
    patch_rng,
    run_sanitizer,
)


# ----------------------------------------------------------------------
# TrackedGenerator


def test_tracked_generator_is_stream_preserving():
    """Adoption wraps the same BitGenerator: identical draw sequence."""
    registry = SanitizerRegistry()
    plain = np.random.default_rng(7)
    tracked = TrackedGenerator.adopt(
        np.random.default_rng(7), registry, label="t"
    )
    assert tracked.normal(size=5).tolist() == plain.normal(size=5).tolist()
    assert isinstance(tracked, np.random.Generator)


def test_tracked_generator_counts_draws():
    registry = SanitizerRegistry()
    tracked = TrackedGenerator.adopt(
        np.random.default_rng(0), registry, label="t"
    )
    tracked.random()
    tracked.integers(0, 10)
    tracked.normal()
    assert registry.draws == 3
    assert tracked._cedar_draws == 3


def test_adopt_is_idempotent():
    registry = SanitizerRegistry()
    tracked = TrackedGenerator.adopt(
        np.random.default_rng(0), registry, label="t"
    )
    assert TrackedGenerator.adopt(tracked, registry, label="u") is tracked
    assert registry.generators_created == 1


def test_draw_before_spawn_hazard_is_recorded():
    registry = SanitizerRegistry()
    tracked = TrackedGenerator.adopt(
        np.random.default_rng(0), registry, label="parent"
    )
    tracked.random()
    registry.note_derive(tracked, how="spawn")
    assert len(registry.draw_before_spawn) == 1
    assert registry.draw_before_spawn[0]["draws_before"] == 1


def test_spawn_before_draw_is_not_a_hazard():
    registry = SanitizerRegistry()
    tracked = TrackedGenerator.adopt(
        np.random.default_rng(0), registry, label="parent"
    )
    registry.note_derive(tracked, how="spawn")
    tracked.random()
    assert registry.draw_before_spawn == []


def test_cross_thread_draw_is_recorded():
    registry = SanitizerRegistry()
    tracked = TrackedGenerator.adopt(
        np.random.default_rng(0), registry, label="shared"
    )
    tracked.random()
    worker = threading.Thread(target=tracked.random)
    worker.start()
    worker.join()
    assert len(registry.cross_thread) == 1


# ----------------------------------------------------------------------
# patching


def test_patch_rng_rebinds_from_imports_in_consumer_modules():
    """Modules that bound ``from ..rng import spawn`` before the patch
    must still produce tracked children — the patch rebinds consumer
    globals, not just repro.rng."""
    import repro.rng
    import repro.simulation.query as consumer  # binds resolve_rng via from-import

    registry = SanitizerRegistry()
    with patch_rng(registry):
        rng = repro.rng.resolve_rng(3)
        assert isinstance(rng, TrackedGenerator)
        children = repro.rng.spawn(rng, 2)
        assert all(isinstance(c, TrackedGenerator) for c in children)
        assert isinstance(
            consumer.resolve_rng(3), TrackedGenerator
        )
    # fully restored afterwards
    assert not isinstance(repro.rng.resolve_rng(3), TrackedGenerator)
    assert not isinstance(consumer.resolve_rng(3), TrackedGenerator)


def test_patched_spawn_matches_unpatched_streams():
    import repro.rng

    baseline = [
        g.normal() for g in repro.rng.spawn(repro.rng.resolve_rng(11), 3)
    ]
    registry = SanitizerRegistry()
    with patch_rng(registry):
        tracked = [
            g.normal()
            for g in repro.rng.spawn(repro.rng.resolve_rng(11), 3)
        ]
    assert tracked == baseline


def test_lock_tracer_classifies_writes():
    from repro.estimation.tracker import DistributionTracker

    registry = SanitizerRegistry()
    plan = {
        "repro.estimation.tracker.DistributionTracker": {
            "_since_fit": "_lock"
        }
    }
    with patch_lock_tracing(registry, plan):
        tracker = DistributionTracker(window=100, min_samples=10)
        tracker.observe(1.0)  # guarded via observe()'s with-block
        tracker._since_fit = 0  # deliberate unguarded write
    key = "repro.estimation.tracker.DistributionTracker._since_fit"
    counts = registry.lock_writes[key]
    assert counts["init"] == 1  # __init__ writes before the lock exists
    assert counts["guarded"] >= 1
    assert counts["unguarded"] == 1
    # tracer removed: writes after the context are not recorded
    tracker._since_fit = 0
    assert counts["unguarded"] == 1


# ----------------------------------------------------------------------
# agreement report (tiny synthetic benches; the CI job runs the real
# smoke benches via ``cedar-repro lint --sanitize``)


def clean_bench():
    import repro.rng

    rng = repro.rng.resolve_rng(5)
    children = repro.rng.spawn(rng, 2)
    return [c.normal() for c in children] + [rng.normal()]


def hazardous_bench():
    import repro.rng

    rng = repro.rng.resolve_rng(5)
    rng.normal()  # draw, *then* spawn: the CDR009(a) hazard
    return repro.rng.spawn(rng, 2)  # cedarlint: disable=CDR009 (deliberate)


@pytest.fixture(scope="module")
def src_paths():
    import pathlib

    return [str(pathlib.Path(__file__).parents[2] / "src")]


def test_run_sanitizer_agrees_on_clean_bench(src_paths):
    report = run_sanitizer(
        paths=src_paths, benches={"clean": clean_bench}
    )
    assert report["agreed"] is True
    assert report["disagreements"] == []
    assert report["static"]["findings"]["CDR009"] == 0
    assert report["runtime"]["generators_created"] >= 3
    assert report["runtime"]["benches"] == {"clean": "ok"}


def test_run_sanitizer_flags_runtime_only_hazard(src_paths):
    """Static-clean + runtime hazard = disagreement (the contract CI
    enforces: the static verdicts may never overclaim)."""
    report = run_sanitizer(
        paths=src_paths, benches={"hazard": hazardous_bench}
    )
    assert report["agreed"] is False
    kinds = {d["kind"] for d in report["disagreements"]}
    assert kinds == {"seed_lineage"}
