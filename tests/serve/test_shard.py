"""Shard supervisor: crash recovery, byte-identity, terminal contract.

The multi-process tests here use a small pinned workload so each worker
incarnation finishes in well under a second; everything else runs the
supervisor inline (the identical worker code path, in-process).
"""

import json

import pytest

from repro.errors import ConfigError, ShardError
from repro.obs import MetricsRegistry, SpanTracer
from repro.serve import (
    SHED_SHARD_LOST,
    CedarServer,
    LoadGenerator,
    ServeConfig,
    ShardConfig,
    ShardKill,
    ShardKillSchedule,
    ShardSupervisor,
    pinned_config,
    pinned_workload,
)

WORKLOAD = pinned_workload()
OFFLINE = WORKLOAD.offline_tree()
CFG = ServeConfig(
    max_concurrent=4,
    max_queue=8,
    min_deadline_fraction=0.3,
    grid_points=32,
)


def _requests(n=12, qps=0.04, seed=7, tenants=("t0", "t1")):
    return LoadGenerator(
        workload=WORKLOAD,
        qps=qps,
        n_requests=n,
        deadline=60.0,
        seed=seed,
        tenants=tenants,
    ).generate()


def _config(**overrides):
    defaults = dict(
        n_shards=2,
        serve=CFG,
        inline=True,
        assignments={"t0": 0, "t1": 1},
        checkpoint_every=40.0,
        heartbeat_every=20.0,
    )
    defaults.update(overrides)
    return ShardConfig(**defaults)


def _assert_exactly_one_terminal(report, requests):
    terminal = report.terminal
    assert terminal["expected"] == len(requests)
    assert terminal["recorded"] == len(requests)
    assert terminal["lost"] == 0
    assert terminal["lost_indices"] == []
    indices = [o.index for o in report.outcomes]
    assert sorted(indices) == sorted(r.index for r in requests)
    assert len(set(indices)) == len(indices)


class TestSingleShardByteIdentity:
    def test_inline_supervised_run_matches_plain_server(self):
        requests = _requests()
        solo = ShardSupervisor(
            OFFLINE, _config(n_shards=1, assignments=None)
        ).run(requests)
        plain = CedarServer(offline_tree=OFFLINE, config=CFG).run(requests)
        assert json.dumps(
            solo.shard_reports["0"], sort_keys=True
        ) == json.dumps(plain.to_dict(include_outcomes=True), sort_keys=True)

    def test_mp_supervised_run_matches_plain_server(self):
        requests = _requests(n=8)
        solo = ShardSupervisor(
            OFFLINE, _config(n_shards=1, assignments=None, inline=False)
        ).run(requests)
        plain = CedarServer(offline_tree=OFFLINE, config=CFG).run(requests)
        assert json.dumps(
            solo.shard_reports["0"], sort_keys=True
        ) == json.dumps(plain.to_dict(include_outcomes=True), sort_keys=True)


class TestFlushKillRecovery:
    def _run(self, inline=True, hard=False):
        requests = _requests()
        kills = ShardKillSchedule.of(ShardKill(0, 120.0, hard=hard))
        supervisor = ShardSupervisor(
            OFFLINE, _config(kills=kills, inline=inline)
        )
        return supervisor.run(requests), requests

    def test_inline_kill_recovers_every_query(self):
        report, requests = self._run()
        _assert_exactly_one_terminal(report, requests)
        shard0 = report.shards["0"]
        assert shard0["kills"] == 1
        assert shard0["restarts"] == 1
        assert shard0["incarnations"] == 2
        assert report.terminal["shard_lost"] == 0

    def test_recovery_events_are_logged_in_order(self):
        report, _ = self._run()
        events = [e for e in report.recovery if e["shard"] == 0]
        assert [e["event"] for e in events] == ["kill", "restart"]
        assert events[0]["reason"] == "injected_kill"
        assert events[1]["reason"] in ("warm_checkpoint", "cold")
        assert events[1]["time"] > events[0]["time"]

    def test_other_shard_untouched_by_the_kill(self):
        killed, requests = self._run()
        quiet = ShardSupervisor(OFFLINE, _config()).run(requests)
        killed_t1 = [o.as_dict() for o in killed.outcomes if o.tenant == "t1"]
        quiet_t1 = [o.as_dict() for o in quiet.outcomes if o.tenant == "t1"]
        assert killed_t1 == quiet_t1

    def test_inline_run_is_deterministic(self):
        a, _ = self._run()
        b, _ = self._run()
        assert a.to_json(include_outcomes=True) == b.to_json(
            include_outcomes=True
        )

    def test_mp_flush_kill_is_deterministic_and_loses_nothing(self):
        a, requests = self._run(inline=False)
        _assert_exactly_one_terminal(a, requests)
        assert a.shards["0"]["restarts"] == 1
        b, _ = self._run(inline=False)
        assert a.to_json(include_outcomes=True) == b.to_json(
            include_outcomes=True
        )

    def test_mp_matches_inline_for_flush_kills(self):
        mp_report, requests = self._run(inline=False)
        inline_report, _ = self._run(inline=True)
        assert mp_report.to_json(include_outcomes=True) == inline_report.to_json(
            include_outcomes=True
        )


class TestHardKill:
    def test_mp_hard_kill_holds_the_terminal_contract(self):
        # a hard kill loses queue-buffered messages; recovery must still
        # give every query exactly one terminal outcome (invariants only
        # — hard-kill runs are never byte-compared).
        requests = _requests()
        kills = ShardKillSchedule.of(ShardKill(0, 120.0, hard=True))
        report = ShardSupervisor(
            OFFLINE, _config(kills=kills, inline=False)
        ).run(requests)
        _assert_exactly_one_terminal(report, requests)
        assert report.shards["0"]["kills"] == 1
        assert report.shards["0"]["restarts"] == 1

    def test_inline_hard_kill_degrades_to_flush_semantics(self):
        requests = _requests()
        kills = ShardKillSchedule.of(ShardKill(0, 120.0, hard=True))
        report = ShardSupervisor(
            OFFLINE, _config(kills=kills, inline=True)
        ).run(requests)
        _assert_exactly_one_terminal(report, requests)


class TestRepeatedKillsAndValve:
    def test_back_to_back_kills_each_restart(self):
        requests = _requests()
        kills = ShardKillSchedule.of(
            ShardKill(0, 100.0), ShardKill(0, 200.0)
        )
        report = ShardSupervisor(OFFLINE, _config(kills=kills)).run(requests)
        _assert_exactly_one_terminal(report, requests)
        assert report.shards["0"]["restarts"] == 2

    def test_kill_during_downtime_is_absorbed(self):
        # second kill lands inside the restart delay: the shard is
        # already down, so only one kill/restart cycle happens.
        requests = _requests()
        kills = ShardKillSchedule.of(
            ShardKill(0, 100.0), ShardKill(0, 101.0)
        )
        report = ShardSupervisor(
            OFFLINE, _config(kills=kills, restart_delay=5.0)
        ).run(requests)
        _assert_exactly_one_terminal(report, requests)
        assert report.shards["0"]["restarts"] == 1

    def test_max_restarts_exhausted_opens_shard_lost_valve(self):
        requests = _requests()
        kills = ShardKillSchedule.of(ShardKill(0, 100.0))
        report = ShardSupervisor(
            OFFLINE, _config(kills=kills, max_restarts=0)
        ).run(requests)
        _assert_exactly_one_terminal(report, requests)
        lost = [
            o for o in report.outcomes if o.shed_reason == SHED_SHARD_LOST
        ]
        assert len(lost) > 0
        assert report.terminal["shard_lost"] == len(lost)
        assert all(o.tenant == "t0" for o in lost)
        events = [e for e in report.recovery if e["event"] == "shard_lost"]
        assert len(events) == 1
        assert events[0]["reason"] == "max_restarts_exhausted"


class TestExactlyOnceAtHarnessScale:
    """The terminal contract at the size ``benchmarks/perf`` serves
    (its ``sharded_inline`` stream), not only at CI-sized n=12."""

    def test_three_kills_lose_and_duplicate_nothing(self):
        requests = LoadGenerator(
            workload=WORKLOAD,
            qps=0.1,
            n_requests=3000,
            deadline=60.0,
            seed=2608,
            tenants=("a", "b", "c", "d"),
            rate_amplitude=0.5,
        ).generate()
        config = ShardConfig(
            n_shards=2,
            serve=pinned_config(),
            inline=True,
            kills=ShardKillSchedule.of(
                ShardKill(0, 4000.0), ShardKill(0, 20000.0), ShardKill(1, 9000.0)
            ),
        )

        def run():
            return ShardSupervisor(OFFLINE, config).run(requests)

        report = run()
        _assert_exactly_one_terminal(report, requests)
        assert report.terminal["duplicates"] == 0
        assert report.terminal["shard_lost"] == 0
        for shard, cycles in (("0", 2), ("1", 1)):
            assert report.shards[shard]["kills"] == cycles
            assert report.shards[shard]["restarts"] == cycles
        assert run().to_json(include_outcomes=True) == report.to_json(
            include_outcomes=True
        )


class TestWarmCheckpointRestart:
    def test_restart_resumes_from_checkpoint(self):
        # enough pre-kill traffic for a checkpoint to exist: the restart
        # event must record a warm (not cold) resume.
        requests = _requests(n=16, qps=0.08)
        kill_at = requests[10].arrival
        kills = ShardKillSchedule.of(ShardKill(0, kill_at))
        report = ShardSupervisor(
            OFFLINE, _config(kills=kills, checkpoint_every=20.0)
        ).run(requests)
        _assert_exactly_one_terminal(report, requests)
        restart = [e for e in report.recovery if e["event"] == "restart"]
        assert restart and restart[0]["reason"] == "warm_checkpoint"
        assert report.shards["0"]["checkpoints"] > 0


class TestObservability:
    def test_kill_and_restart_emit_metrics_and_spans(self):
        requests = _requests()
        kills = ShardKillSchedule.of(ShardKill(0, 120.0))
        metrics = MetricsRegistry()
        tracer = SpanTracer()
        ShardSupervisor(
            OFFLINE, _config(kills=kills), tracer=tracer, metrics=metrics
        ).run(requests)
        doc = json.loads(metrics.render_json())
        assert "cedar_serve_shard_kills_total" in doc
        assert "cedar_serve_shard_restarts_total" in doc
        assert "cedar_serve_shard_heartbeats_total" in doc
        assert "cedar_serve_shard_orphaned_total" not in doc  # zero lost
        supervisor_spans = [
            s for s in tracer.spans if s.kind == "supervisor"
        ]
        assert {s.attrs["event"] for s in supervisor_spans} == {
            "kill",
            "restart",
        }
        assert all("reason" in s.attrs for s in supervisor_spans)


class TestErrorsAndValidation:
    def test_worker_crash_outside_schedule_raises_shard_error(self):
        # a broken offline tree makes the worker die with no kill
        # scheduled: the supervisor must fail loudly, not hang or lose.
        requests = _requests(n=4)
        with pytest.raises((ShardError, AttributeError)):
            ShardSupervisor(None, _config()).run(requests)

    def test_mp_worker_error_surfaces_as_shard_error(self):
        requests = _requests(n=4)
        with pytest.raises(ShardError, match="failed"):
            ShardSupervisor(None, _config(inline=False)).run(requests)

    def test_kill_beyond_topology_rejected(self):
        with pytest.raises(ConfigError, match="targets shard"):
            _config(kills=ShardKillSchedule.of(ShardKill(5, 10.0)))

    def test_bad_kill_rejected(self):
        with pytest.raises(ConfigError):
            ShardKill(0, 0.0)
        with pytest.raises(ConfigError):
            ShardKill(-1, 10.0)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            ShardConfig(n_shards=0)
        with pytest.raises(ConfigError):
            ShardConfig(restart_delay=-1.0)
        with pytest.raises(ConfigError):
            ShardConfig(hang_timeout=0.0)

    def test_empty_request_stream(self):
        report = ShardSupervisor(OFFLINE, _config()).run([])
        assert report.n_requests == 0
        assert report.terminal["expected"] == 0
