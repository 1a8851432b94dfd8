"""The serve-bench harness itself (the pinned documents and their claims
are in tests/test_benches.py)."""

import dataclasses

from repro.core import WaitCacheConfig
from repro.serve import CedarServer, bench, pinned_config, run_serve_bench


def test_cold_arm_differs_from_warm_in_warm_start_only(monkeypatch):
    """The warm-vs-cold pass must isolate warm start: every other knob of
    the caller's config — here the wait cache and the warm refit floor —
    reaches the cold server too, or ``quality_gain`` mixes two effects."""
    configs = []

    class RecordingServer(CedarServer):
        def __init__(self, *args, config, **kwargs):
            configs.append(config)
            super().__init__(*args, config=config, **kwargs)

    monkeypatch.setattr(bench, "CedarServer", RecordingServer)
    cfg = dataclasses.replace(
        pinned_config(grid_points=48),
        wait_cache=WaitCacheConfig(),
        warm_min_samples=3,
    )
    run_serve_bench(
        qps_points=(0.02,), n_requests=4, warm_requests=6, config=cfg
    )
    point, warm, cold = configs
    assert point == warm == cfg
    assert cold == dataclasses.replace(cfg, warm_start=False)
