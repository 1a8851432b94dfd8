"""CedarServer: determinism, simulator equivalence, backends, wiring."""

import json

import pytest

from repro.cluster import DeploymentConfig
from repro.core import QueryContext, TreeSpec
from repro.core.policies import CedarPolicy
from repro.distributions import LogNormal
from repro.obs import MetricsRegistry, SpanTracer
from repro.serve import (
    SERVE_SPAN_ATTRS,
    BackendResult,
    CedarServer,
    DegradeConfig,
    FixedServiceBackend,
    LoadGenerator,
    QueryRequest,
    ServeConfig,
    TcpBackend,
    pinned_workload,
)
from repro.serve.server import QueryBackend
from repro.simulation import simulate_query

SMALL_TREE = TreeSpec.two_level(LogNormal(1.0, 0.4), 3, LogNormal(0.5, 0.3), 2)


def _pinned_requests(qps, n, seed=2608, deadline=60.0):
    workload = pinned_workload()
    generator = LoadGenerator(
        workload=workload,
        qps=qps,
        n_requests=n,
        deadline=deadline,
        seed=seed,
        rate_amplitude=0.5,
    )
    return workload.offline_tree(), generator.generate()


class TestBitIdentity:
    def test_same_seed_same_report(self):
        offline, requests = _pinned_requests(qps=0.1, n=30)
        cfg = ServeConfig(max_concurrent=4, max_queue=8, contention_coeff=0.5)
        first = CedarServer(offline_tree=offline, config=cfg).run(requests)
        second = CedarServer(offline_tree=offline, config=cfg).run(requests)
        assert first.to_json(include_outcomes=True) == second.to_json(
            include_outcomes=True
        )

    def test_different_seed_differs(self):
        offline, requests = _pinned_requests(qps=0.1, n=30)
        _, other = _pinned_requests(qps=0.1, n=30, seed=7)
        cfg = ServeConfig(max_concurrent=4, max_queue=8, contention_coeff=0.5)
        first = CedarServer(offline_tree=offline, config=cfg).run(requests)
        second = CedarServer(offline_tree=offline, config=cfg).run(other)
        assert first.to_json(include_outcomes=True) != second.to_json(
            include_outcomes=True
        )


class TestSimulatorEquivalence:
    def test_qps_to_zero_reproduces_simulate_query(self):
        """At vanishing load every query runs alone with its full budget:
        the serve outcome must equal a standalone simulate_query call
        bit-for-bit (same tree, same seed, same grid)."""
        offline, requests = _pinned_requests(qps=1e-5, n=5)
        cfg = ServeConfig(
            max_concurrent=4, max_queue=8, contention_coeff=0.5, warm_start=False
        )
        report = CedarServer(offline_tree=offline, config=cfg).run(requests)
        assert report.shed == 0
        by_index = {o.index: o for o in report.outcomes}
        for request in requests:
            ctx = QueryContext(
                deadline=request.deadline,
                offline_tree=offline,
                true_tree=request.tree,
            )
            res = simulate_query(
                ctx, CedarPolicy(grid_points=cfg.grid_points), seed=request.seed
            )
            outcome = by_index[request.index]
            assert outcome.queue_delay == 0.0
            assert outcome.slowdown == 1.0
            assert outcome.quality == res.quality
            assert outcome.included_outputs == res.included_outputs
            assert outcome.latency == res.elapsed


class TestContention:
    def test_overlapping_queries_slowed(self):
        cfg = ServeConfig(
            max_concurrent=2,
            max_queue=4,
            contention_coeff=1.0,
            warm_start=False,
        )
        server = CedarServer(
            offline_tree=SMALL_TREE, config=cfg, backend=FixedServiceBackend(10.0)
        )
        requests = [
            QueryRequest(index=i, arrival=0.0, deadline=100.0, tree=SMALL_TREE, seed=i)
            for i in range(3)
        ]
        report = server.run(requests)
        slowdowns = sorted(o.slowdown for o in report.outcomes)
        assert slowdowns[0] == 1.0  # first query dispatched alone
        assert slowdowns[-1] == pytest.approx(1.5)  # second slot busy


class _ScriptedBackend(QueryBackend):
    """Hands out pre-written results in call order; from the second call
    on every dispatch finds a warm prior (the first call plants one)."""

    def __init__(self, *results):
        self.results = list(results)

    def run(self, ctx, policy, seed, tracer, metrics, span_attrs):
        if policy.store.prior(policy.current_key) is None:
            policy.store.observe_query(policy.current_key, [3.0], [0.8])
        return self.results.pop(0)


class TestRetryEndings:
    """Both ways a retried query ends are answered with the *best*
    attempt — its quality, queue delay, slowdown and warm flag — at the
    time the answer was actually given."""

    DEGRADE = DegradeConfig(
        max_attempts=2, retry_quality_floor=0.5, min_samples=10
    )

    def _serve(self, requests, *results):
        tracer = SpanTracer()
        cfg = ServeConfig(
            max_concurrent=2,
            max_queue=4,
            min_deadline_fraction=0.3,
            contention_coeff=1.0,
            degrade=self.DEGRADE,
        )
        server = CedarServer(
            SMALL_TREE, cfg, backend=_ScriptedBackend(*results), tracer=tracer
        )
        report = server.run(requests)
        spans = [
            s
            for s in tracer.spans
            if s.kind == "request" and s.attrs["query_index"] == 0
        ]
        return report, spans

    @staticmethod
    def _request(index, arrival, tenant):
        return QueryRequest(
            index=index,
            arrival=arrival,
            deadline=100.0,
            tree=SMALL_TREE,
            seed=index,
            tenant=tenant,
        )

    @staticmethod
    def _result(quality, elapsed, degraded=True):
        return BackendResult(
            quality=quality,
            included_outputs=int(6 * quality),
            total_outputs=6,
            elapsed=elapsed,
            degraded=degraded,
        )

    def test_last_attempt_worse_than_best(self):
        # "a" runs 0-10 (q=0.4, retried), "b" runs 5-25, the retry of "a"
        # runs 10-20 beside "b" (slowed, queued 10, warm) and comes back
        # worse: the first attempt is the answer, given at t=20.
        report, spans = self._serve(
            [self._request(0, 0.0, "a"), self._request(1, 5.0, "b")],
            self._result(0.4, 10.0),
            self._result(1.0, 20.0, degraded=False),
            self._result(0.1, 10.0),
        )
        answer = report.outcomes[0]
        assert answer.admitted and answer.degraded and answer.deadline_hit
        assert (answer.quality, answer.retries, answer.latency) == (0.4, 1, 20.0)
        assert (answer.queue_delay, answer.slowdown, answer.warm) == (
            0.0,
            1.0,
            False,
        )
        assert answer.included_outputs == 2
        rollup = report.tenants["a"]
        assert (rollup["retries"], rollup["completed"], rollup["shed"]) == (1, 1, 0)
        assert rollup["latency_p50"] == 20.0
        assert report.chaos["retry_tokens_used"] == {"a": 1}
        assert len(spans) == 1
        assert spans[0].end == 20.0
        assert (spans[0].attrs["quality"], spans[0].attrs["retries"]) == (0.4, 1)
        assert spans[0].attrs["queue_delay"] == 0.0

    def test_last_attempt_stands_when_better(self):
        report, _ = self._serve(
            [self._request(0, 0.0, "a"), self._request(1, 5.0, "b")],
            self._result(0.4, 10.0),
            self._result(1.0, 20.0, degraded=False),
            self._result(0.45, 10.0),
        )
        answer = report.outcomes[0]
        assert (answer.quality, answer.retries, answer.latency) == (0.45, 1, 20.0)
        # the retry's own dispatch terms: queued behind its first attempt,
        # slowed by "b" in the other slot, warm
        assert (answer.queue_delay, answer.slowdown, answer.warm) == (
            10.0,
            1.5,
            True,
        )

    def test_in_flight_retry_shed_stale(self):
        # the first attempt burns 80 of 100: the retry is admitted, found
        # stale at dispatch (20 left < the 30 floor) and shed — but the
        # query is still answered, with the attempt in hand, at t=80.
        report, spans = self._serve(
            [self._request(0, 0.0, "a")], self._result(0.4, 80.0)
        )
        (answer,) = report.outcomes
        assert answer.admitted and answer.shed_reason is None
        assert answer.degraded and answer.deadline_hit
        assert (answer.quality, answer.retries, answer.latency) == (0.4, 1, 80.0)
        assert (answer.queue_delay, answer.slowdown, answer.warm) == (
            0.0,
            1.0,
            False,
        )
        assert (report.admitted, report.shed) == (1, 0)
        rollup = report.tenants["a"]
        assert (rollup["retries"], rollup["completed"], rollup["shed"]) == (1, 1, 0)
        assert len(spans) == 1
        assert spans[0].end == 80.0
        assert spans[0].attrs["admitted"] is True
        assert (spans[0].attrs["quality"], spans[0].attrs["retries"]) == (0.4, 1)


class TestObservability:
    def test_spans_and_metrics_emitted(self):
        tracer = SpanTracer()
        metrics = MetricsRegistry()
        offline, requests = _pinned_requests(qps=0.1, n=8)
        cfg = ServeConfig(max_concurrent=2, max_queue=2, contention_coeff=0.5)
        CedarServer(
            offline_tree=offline, config=cfg, tracer=tracer, metrics=metrics
        ).run(requests)
        request_spans = [s for s in tracer.spans if s.kind == "request"]
        assert len(request_spans) == len(requests)
        for span in request_spans:
            assert set(span.attrs) <= SERVE_SPAN_ATTRS
        doc = json.loads(metrics.render_json())
        assert "cedar_serve_requests_total" in doc
        assert "cedar_serve_queue_depth" in doc


class TestTcpBackend:
    def test_serve_over_tcp(self):
        cfg = ServeConfig(max_concurrent=2, max_queue=4, warm_start=False)
        server = CedarServer(
            offline_tree=SMALL_TREE,
            config=cfg,
            backend=TcpBackend(time_scale=0.002),
        )
        requests = [
            QueryRequest(
                index=i, arrival=float(i), deadline=30.0, tree=SMALL_TREE, seed=i + 1
            )
            for i in range(3)
        ]
        report = server.run(requests)
        assert report.completed == 3
        for outcome in report.outcomes:
            assert 0.0 <= outcome.quality <= 1.0
            assert 0.0 < outcome.latency <= 30.0 + 1e-9


class TestDeploymentSizing:
    def test_for_deployment_capacity(self):
        config = ServeConfig.for_deployment(DeploymentConfig(k1=5, k2=4))
        assert config.max_concurrent == 16  # 320 slots / 20 tasks
        assert config.max_queue == ServeConfig().max_queue

    def test_for_deployment_overrides(self):
        config = ServeConfig.for_deployment(
            DeploymentConfig(k1=5, k2=4), max_queue=3, contention_coeff=0.5
        )
        assert config.max_concurrent == 16
        assert config.max_queue == 3
        assert config.contention_coeff == 0.5

    def test_default_deployment_fits_one_query(self):
        # 320 slots, 20x16 = 320 tasks per query
        assert DeploymentConfig().concurrent_query_capacity() == 1
