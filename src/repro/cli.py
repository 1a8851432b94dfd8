"""Command-line interface: regenerate paper figures and use Cedar's math
from the terminal.

Examples::

    cedar-repro list
    cedar-repro run fig7b
    cedar-repro run fig16 --scale full --seed 7
    cedar-repro run all --csv out_dir/
    cedar-repro wait --deadline 1000 --mu1 6.0 --sigma1 0.84 \
        --mu2 4.7 --sigma2 0.5 --k1 50 --k2 50
    cedar-repro dual --target 0.85 --mu1 6.0 --sigma1 0.84 \
        --mu2 4.7 --sigma2 0.5 --k1 50 --k2 50
    cedar-repro trace record facebook /tmp/fb.json --jobs 50
    cedar-repro trace sim --deadline 800 --mu1 4.0 --sigma1 0.8 \
        --mu2 3.0 --sigma2 0.4 --k1 6 --k2 4 --seed 7 --out query.jsonl
    cedar-repro metrics my_sweep.json --format prom --profile
    cedar-repro chaos --deadline 60 --mu1 3.0 --sigma1 0.5 \
        --mu2 2.0 --sigma2 0.3 --k1 6 --k2 3 --kill 0.25 --drop 0.3 \
        --trace-out chaos.jsonl --metrics-out chaos.prom
    cedar-repro serve-bench --out serve.json
    cedar-repro serve-bench --smoke --out serve_smoke.json
    cedar-repro serve-bench --qps 0.05 --qps 0.2 --requests 100 --seed 7
    cedar-repro serve-bench --chaos --out chaos_serve.json
    cedar-repro serve-bench --waitpath --out waitpath.json
    cedar-repro serve-bench --learned --out learned.json
    cedar-repro learn train --smoke --out table.json
    cedar-repro learn eval
    cedar-repro chaos --serve --deadline 60 --mu1 3.0 --sigma1 0.8 \
        --mu2 2.2 --sigma2 0.35 --k1 4 --k2 8 --kill 0.1 --drop 0.05
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from .experiments import ALL


def _add_tree_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu1", type=float, required=True, help="ln-mean of X1")
    parser.add_argument("--sigma1", type=float, required=True, help="ln-std of X1")
    parser.add_argument("--mu2", type=float, required=True, help="ln-mean of X2")
    parser.add_argument("--sigma2", type=float, required=True, help="ln-std of X2")
    parser.add_argument("--k1", type=int, default=50, help="lower fan-out")
    parser.add_argument("--k2", type=int, default=50, help="upper fan-out")
    parser.add_argument(
        "--grid-points", type=int, default=512, help="epsilon-sweep resolution"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cedar-repro",
        description="Cedar (EuroSys'16) reproduction: regenerate paper figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run_p = sub.add_parser("run", help="run one experiment (or 'all')")
    run_p.add_argument("experiment", help="experiment id (see 'list') or 'all'")
    run_p.add_argument(
        "--scale",
        choices=("quick", "full"),
        default="quick",
        help="preset size: quick (seconds) or full (minutes)",
    )
    run_p.add_argument("--seed", type=int, default=None, help="random seed")
    run_p.add_argument(
        "--csv",
        type=pathlib.Path,
        default=None,
        help="also write <experiment>.csv into this directory",
    )
    run_p.add_argument(
        "--plot",
        action="store_true",
        help="render a terminal line chart of the report series",
    )

    wait_p = sub.add_parser(
        "wait", help="optimal wait + achievable quality for a 2-level tree"
    )
    wait_p.add_argument("--deadline", type=float, required=True)
    _add_tree_args(wait_p)

    explain_p = sub.add_parser(
        "explain", help="decompose a wait decision with a terminal chart"
    )
    explain_p.add_argument("--deadline", type=float, required=True)
    _add_tree_args(explain_p)

    dual_p = sub.add_parser(
        "dual", help="minimum deadline reaching a quality target"
    )
    dual_p.add_argument("--target", type=float, required=True)
    _add_tree_args(dual_p)

    sweep_p = sub.add_parser(
        "sweep", help="run a user-defined sweep from a JSON spec file"
    )
    sweep_p.add_argument("spec", type=pathlib.Path, help="sweep spec (JSON)")
    sweep_p.add_argument("--plot", action="store_true")
    sweep_p.add_argument(
        "--csv", type=pathlib.Path, default=None, help="write <name>.csv here"
    )

    chaos_p = sub.add_parser(
        "chaos",
        help="run one query over live TCP with fault injection "
        "(or, with --serve, a whole fault-injected serve run)",
    )
    chaos_p.add_argument("--deadline", type=float, required=True)
    _add_tree_args(chaos_p)
    chaos_p.add_argument(
        "--serve",
        action="store_true",
        help="serve an open-loop request stream through a fault-injected "
        "CedarServer (with graceful degradation) instead of one TCP query",
    )
    chaos_p.add_argument(
        "--serve-requests",
        type=int,
        default=40,
        help="requests in the --serve stream",
    )
    chaos_p.add_argument(
        "--serve-qps",
        type=float,
        default=0.05,
        help="offered load of the --serve stream (queries/unit)",
    )
    chaos_p.add_argument(
        "--policy",
        choices=("cedar", "cedar-failure-aware", "proportional-split"),
        default="cedar",
        help="wait policy driving the aggregators",
    )
    chaos_p.add_argument(
        "--kill", type=float, default=0.0, help="P(worker dies mid-query)"
    )
    chaos_p.add_argument(
        "--drop",
        type=float,
        default=0.0,
        help="P(aggregator's root session is reset before shipping)",
    )
    chaos_p.add_argument(
        "--corrupt",
        type=float,
        default=0.0,
        help="P(worker's write is cut mid-line)",
    )
    chaos_p.add_argument(
        "--delay-prob",
        type=float,
        default=0.0,
        help="P(worker connect is delayed by --delay)",
    )
    chaos_p.add_argument(
        "--delay",
        type=float,
        default=0.0,
        help="added connect delay in virtual units",
    )
    chaos_p.add_argument("--seed", type=int, default=None)
    chaos_p.add_argument(
        "--time-scale",
        type=float,
        default=0.001,
        help="real seconds per virtual unit (0.001 runs a 1000-unit "
        "deadline in one second)",
    )
    chaos_p.add_argument(
        "--trace-out",
        type=pathlib.Path,
        default=None,
        help="write the query's span tree here (JSONL)",
    )
    chaos_p.add_argument(
        "--metrics-out",
        type=pathlib.Path,
        default=None,
        help="write Prometheus-text metrics here ('-' prints to stdout)",
    )

    trace_p = sub.add_parser("trace", help="trace-file tooling")
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)
    rec_p = trace_sub.add_parser(
        "record", help="record a named workload into a replayable trace file"
    )
    rec_p.add_argument("workload", help="workload name (see repro.traces.WORKLOADS)")
    rec_p.add_argument("path", type=pathlib.Path, help="output JSON path")
    rec_p.add_argument("--jobs", type=int, default=30)
    rec_p.add_argument("--samples", type=int, default=60)
    rec_p.add_argument("--seed", type=int, default=None)

    sim_p = trace_sub.add_parser(
        "sim", help="trace one simulated query and render its span tree"
    )
    sim_p.add_argument("--deadline", type=float, required=True)
    _add_tree_args(sim_p)
    sim_p.add_argument(
        "--policy",
        default="cedar",
        help="wait policy (see repro.experiments.sweep.POLICY_FACTORIES)",
    )
    sim_p.add_argument("--seed", type=int, default=None)
    sim_p.add_argument(
        "--agg-sample",
        type=int,
        default=None,
        help="simulate only this many bottom subtrees",
    )
    sim_p.add_argument(
        "--no-workers",
        action="store_true",
        help="omit per-worker leaf spans (smaller traces for wide trees)",
    )
    sim_p.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="also write the trace as JSONL here",
    )
    sim_p.add_argument(
        "--max-children",
        type=int,
        default=12,
        help="children shown per node in the rendered tree",
    )

    lint_p = sub.add_parser(
        "lint",
        help="run the cedarlint static-analysis gate (AST rules CDR001..)",
    )
    from .checks.cli import add_lint_arguments

    add_lint_arguments(lint_p)

    serve_p = sub.add_parser(
        "serve-bench",
        help="QPS sweep over the serving frontend (JSON report)",
    )
    serve_p.add_argument(
        "--smoke",
        action="store_true",
        help="shrunk sweep for CI smoke jobs (finishes in seconds)",
    )
    from .benches import BENCHES

    for bench in BENCHES.values():
        if bench.name == "serve":
            continue
        takes = "/".join(f"--{o.replace('_', '-')}" for o in bench.options)
        serve_p.add_argument(
            f"--{bench.name}",
            action="store_true",
            help=f"run the {bench.what} instead of the QPS sweep "
            f"(takes {takes}; any other sweep option is an error)",
        )
    serve_p.add_argument(
        "--qps",
        type=float,
        action="append",
        default=None,
        help="offered-load point in queries/unit (repeatable; "
        "default ladder straddles saturation)",
    )
    serve_p.add_argument(
        "--requests",
        type=int,
        default=None,
        help="requests per load point (default 60, smoke 16)",
    )
    serve_p.add_argument(
        "--deadline", type=float, default=60.0, help="per-query deadline"
    )
    serve_p.add_argument("--seed", type=int, default=2608)
    serve_p.add_argument(
        "--no-warm",
        action="store_true",
        help="skip the warm-vs-cold comparison pass",
    )
    serve_p.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="write the JSON report here instead of stdout",
    )

    learn_p = sub.add_parser(
        "learn",
        help="learned wait-policy tables: offline training and evaluation",
    )
    learn_sub = learn_p.add_subparsers(dest="learn_command", required=True)
    train_p = learn_sub.add_parser(
        "train",
        help="train a wait table against the scenario catalog "
        "(byte-deterministic from --seed)",
    )
    train_p.add_argument(
        "--out", type=pathlib.Path, required=True, help="artifact path (JSON)"
    )
    train_p.add_argument(
        "--seed", type=int, default=None, help="training seed (default: pinned)"
    )
    train_p.add_argument("--iterations", type=int, default=None)
    train_p.add_argument("--population", type=int, default=None)
    train_p.add_argument(
        "--queries", type=int, default=None, help="training queries per scenario"
    )
    train_p.add_argument(
        "--optimizer",
        choices=("cem", "nevergrad"),
        default=None,
        help="refinement loop: the numpy-only CEM default, or nevergrad's "
        "CMA when the optional 'learn' extra is installed",
    )
    train_p.add_argument(
        "--smoke",
        action="store_true",
        help="tiny train on the two-scenario smoke catalog (CI; seconds)",
    )
    eval_p = learn_sub.add_parser(
        "eval",
        help="evaluate a trained table against exact Cedar on held-out seeds",
    )
    eval_p.add_argument(
        "--table",
        type=pathlib.Path,
        default=None,
        help="artifact path (default: the shipped pinned table)",
    )
    eval_p.add_argument(
        "--seed", type=int, default=None, help="held-out eval seed"
    )
    eval_p.add_argument(
        "--queries", type=int, default=24, help="eval queries per scenario"
    )
    eval_p.add_argument(
        "--smoke",
        action="store_true",
        help="evaluate on the two-scenario smoke catalog only",
    )
    eval_p.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="also write the comparison document here (JSON)",
    )

    metrics_p = sub.add_parser(
        "metrics",
        help="run a sweep spec with a metrics registry and export it",
    )
    metrics_p.add_argument("spec", type=pathlib.Path, help="sweep spec (JSON)")
    metrics_p.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="exposition format: Prometheus text or JSON",
    )
    metrics_p.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        help="write the export here instead of stdout",
    )
    metrics_p.add_argument(
        "--trace-out",
        type=pathlib.Path,
        default=None,
        help="also record every query's span tree here (JSONL)",
    )
    metrics_p.add_argument(
        "--profile",
        action="store_true",
        help="enable the hot-path profiler and print its table",
    )
    metrics_p.add_argument(
        "--table",
        action="store_true",
        help="also print the sweep's report table",
    )
    return parser


def _plot_report(report) -> None:
    """Best-effort terminal chart: numeric first column as x, every
    numeric column as a series."""
    from .analysis import line_chart

    def numeric(col):
        try:
            return [float(v) for v in col]
        except (TypeError, ValueError):
            return None

    xs = numeric(report.column(report.headers[0]))
    if xs is None or len(xs) < 2 or len(set(xs)) < 2:
        print("(no plottable numeric x-axis; skipping chart)")
        return
    series = {}
    pct_series = {}
    for header in report.headers[1:]:
        ys = numeric(report.column(header))
        if ys is None:
            continue
        # percent columns live on a different scale; chart them apart
        (pct_series if header.endswith("_%") else series)[header] = ys
    if not series and not pct_series:
        print("(no numeric series; skipping chart)")
        return
    if series:
        print(line_chart(xs, series, title=report.title))
    if pct_series:
        print(line_chart(xs, pct_series, title="improvement (%)"))


def _run_one(name: str, args) -> None:
    runner = ALL[name]
    start = time.perf_counter()
    report = runner(scale=args.scale, seed=args.seed)
    elapsed = time.perf_counter() - start
    print(report.table())
    if getattr(args, "plot", False):
        _plot_report(report)
    print(f"[{name} completed in {elapsed:.1f}s]\n")
    if args.csv is not None:
        args.csv.mkdir(parents=True, exist_ok=True)
        out = args.csv / f"{name}.csv"
        out.write_text(report.to_csv())
        print(f"wrote {out}")


def _tree_from_args(args):
    from .core import TreeSpec
    from .distributions import LogNormal

    return TreeSpec.two_level(
        LogNormal(args.mu1, args.sigma1),
        args.k1,
        LogNormal(args.mu2, args.sigma2),
        args.k2,
    )


def _cmd_sweep(args) -> int:
    from .errors import ConfigError
    from .experiments import run_sweep_file

    try:
        report = run_sweep_file(args.spec)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(report.table())
    if args.plot:
        _plot_report(report)
    if args.csv is not None:
        args.csv.mkdir(parents=True, exist_ok=True)
        out = args.csv / f"{report.experiment}.csv"
        out.write_text(report.to_csv())
        print(f"wrote {out}")
    return 0


def _cmd_wait(args) -> int:
    from .core import calculate_wait, max_quality

    tree = _tree_from_args(args)
    wait = calculate_wait(tree, args.deadline, epsilon=args.deadline / args.grid_points)
    quality = max_quality(tree, args.deadline, grid_points=args.grid_points)
    print(f"optimal wait:        {wait:.4g}")
    print(f"achievable quality:  {quality:.4f}")
    return 0


def _cmd_explain(args) -> int:
    from .core import explain_wait

    tree = _tree_from_args(args)
    explanation = explain_wait(tree, args.deadline, grid_points=args.grid_points)
    print(explanation.render())
    return 0


def _cmd_dual(args) -> int:
    from .core import min_deadline_for_quality
    from .errors import ConfigError

    tree = _tree_from_args(args)
    try:
        res = min_deadline_for_quality(
            tree, args.target, grid_points=args.grid_points
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"minimum deadline:    {res.deadline:.4g}")
    print(f"achieved quality:    {res.achieved_quality:.4f}")
    print(f"solver iterations:   {res.iterations}")
    return 0


def _cmd_chaos_serve(args) -> int:
    """``chaos --serve``: a whole fault-injected serve run, virtual time.

    The TCP flags map onto the simulation fault model: ``--kill`` becomes
    the worker-crash probability, ``--drop`` the shipment-loss
    probability, and ``--delay-prob`` the straggler probability (with a
    fixed 3x straggler factor; ``--delay`` and ``--corrupt`` have no
    simulation-side equivalent and are ignored here).
    """
    from .core import (
        CedarFailureAwarePolicy,
        CedarPolicy,
        ProportionalSplitPolicy,
    )
    from .errors import ConfigError
    from .faults import FaultModel
    from .serve import (
        CedarServer,
        DegradeConfig,
        FaultSchedule,
        FixedWorkload,
        LoadGenerator,
        ServeConfig,
    )

    tree = _tree_from_args(args)
    try:
        model = FaultModel(
            worker_crash_prob=args.kill,
            ship_loss_prob=args.drop,
            straggler_prob=args.delay_prob,
            straggler_factor=3.0 if args.delay_prob > 0.0 else 1.0,
        )
        schedule = FaultSchedule(base=model)
        if args.policy == "cedar":
            policy = CedarPolicy(grid_points=args.grid_points)
        elif args.policy == "cedar-failure-aware":
            policy = CedarFailureAwarePolicy.from_fault_model(
                model, grid_points=args.grid_points
            )
        else:
            policy = ProportionalSplitPolicy()
        config = ServeConfig(
            grid_points=args.grid_points,
            faults=schedule,
            degrade=DegradeConfig(),
        )
        # without --seed the generator keeps its own pinned default
        seed = {} if args.seed is None else {"seed": args.seed}
        requests = LoadGenerator(
            workload=FixedWorkload(tree),
            qps=args.serve_qps,
            n_requests=args.serve_requests,
            deadline=args.deadline,
            **seed,
        ).generate()
        server = CedarServer(
            offline_tree=tree, config=config, policy=policy
        )
        report = server.run(requests)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    chaos = report.chaos
    print(f"requests:             {len(requests)}")
    print(f"admitted:             {report.admitted}")
    print(f"completed:            {report.completed}")
    print(f"shed:                 {report.shed} ({report.shed_fraction:.2%})")
    print(f"deadline hit rate:    {report.deadline_hit_rate:.4f}")
    print(f"mean quality:         {report.mean_quality:.4f}")
    print(f"latency p95:          {report.latency_p95:.1f}")
    print(f"degraded completions: {chaos['degraded']}")
    print(f"retries:              {chaos['retries']}")
    print(f"brownout completions: {chaos['brownout_completions']}")
    print(f"final mode:           {chaos['final_mode']}")
    transitions = chaos["mode_transitions"]
    assert isinstance(transitions, list)
    for event in transitions:
        print(
            f"  t={event['time']:8.1f}  {event['previous']} -> "
            f"{event['mode']}  ({event['reason']})"
        )
    if args.trace_out is not None or args.metrics_out is not None:
        print(
            "note: --trace-out/--metrics-out apply to the TCP mode only",
            file=sys.stderr,
        )
    return 0


def _cmd_chaos(args) -> int:
    from .core import (
        CedarFailureAwarePolicy,
        CedarPolicy,
        ProportionalSplitPolicy,
        QueryContext,
    )
    from .errors import ConfigError, SimulationError
    from .faults import ChaosTransport
    from .service import run_tcp_query

    if args.serve:
        return _cmd_chaos_serve(args)
    tree = _tree_from_args(args)
    if args.policy == "cedar":
        policy = CedarPolicy(grid_points=args.grid_points)
    elif args.policy == "cedar-failure-aware":
        policy = CedarFailureAwarePolicy(
            ship_loss_prob=args.drop,
            worker_crash_prob=args.kill,
            grid_points=args.grid_points,
        )
    else:
        policy = ProportionalSplitPolicy()
    tracer = None
    if args.trace_out is not None:
        from .obs import SpanTracer

        tracer = SpanTracer()
    metrics = None
    if args.metrics_out is not None:
        from .obs import MetricsRegistry

        metrics = MetricsRegistry()
    try:
        chaos = ChaosTransport(
            worker_kill_prob=args.kill,
            ship_drop_prob=args.drop,
            corrupt_prob=args.corrupt,
            worker_delay_prob=args.delay_prob,
            worker_delay=args.delay,
            seed=args.seed,
        )
        ctx = QueryContext(deadline=args.deadline, offline_tree=tree)
        res = run_tcp_query(
            ctx,
            policy,
            time_scale=args.time_scale,
            seed=args.seed,
            chaos=chaos,
            tracer=tracer,
            metrics=metrics,
        )
    except (ConfigError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"quality:              {res.quality:.4f}")
    print(
        f"outputs included:     {res.included_outputs}/{res.total_outputs}"
    )
    print(
        f"shipments received:   {res.shipments_received}/{args.k2}"
    )
    print(f"elapsed (virtual):    {res.elapsed_virtual:.1f}")
    print(f"degraded:             {res.degraded}")
    print(f"worker failures:      {res.worker_failures}")
    print(f"aggregator failures:  {res.aggregator_failures}")
    print(f"missing shipments:    {res.missing_shipments}")
    print(f"malformed lines:      {res.malformed_lines}")
    print(
        "injected (ground truth): "
        f"killed={chaos.killed_workers} "
        f"dropped={chaos.dropped_shipments} "
        f"delayed={chaos.delayed_workers} "
        f"corrupted={chaos.corrupted_connections}"
    )
    if tracer is not None:
        tracer.write(args.trace_out)
        print(f"wrote trace -> {args.trace_out}")
    if metrics is not None:
        text = metrics.render_prometheus()
        if str(args.metrics_out) == "-":
            print(text, end="")
        else:
            args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
            args.metrics_out.write_text(text)
            print(f"wrote metrics -> {args.metrics_out}")
    return 0


def _cmd_trace_sim(args) -> int:
    from .core import QueryContext
    from .errors import ConfigError, SimulationError
    from .experiments.sweep import POLICY_FACTORIES
    from .obs import SpanTracer, build_tree, render_tree
    from .simulation import simulate_query

    if args.policy not in POLICY_FACTORIES:
        print(
            f"unknown policy {args.policy!r}; "
            f"choose from {', '.join(sorted(POLICY_FACTORIES))}",
            file=sys.stderr,
        )
        return 2
    tree = _tree_from_args(args)
    policy = POLICY_FACTORIES[args.policy](args.grid_points)
    tracer = SpanTracer(record_workers=not args.no_workers)
    try:
        ctx = QueryContext(deadline=args.deadline, offline_tree=tree)
        res = simulate_query(
            ctx,
            policy,
            seed=args.seed,
            agg_sample=args.agg_sample,
            tracer=tracer,
        )
    except (ConfigError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(render_tree(build_tree(tracer.spans), max_children=args.max_children))
    print(
        f"\nquality: {res.quality:.4f} "
        f"({res.included_outputs}/{res.total_outputs} outputs, "
        f"{res.late_at_root} shipments late at root)"
    )
    if args.out is not None:
        tracer.write(args.out)
        print(f"wrote {len(tracer.spans)} spans -> {args.out}")
    return 0


def _cmd_metrics(args) -> int:
    from .errors import ConfigError
    from .experiments import run_sweep_file
    from .obs import PROFILER, MetricsRegistry, SpanTracer

    metrics = MetricsRegistry()
    tracer = SpanTracer() if args.trace_out is not None else None
    if args.profile:
        PROFILER.enable()
    try:
        report = run_sweep_file(args.spec, tracer=tracer, metrics=metrics)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if args.profile:
            PROFILER.disable()
    if args.table:
        print(report.table())
    text = (
        metrics.render_prometheus()
        if args.format == "prom"
        else metrics.render_json()
    )
    if args.out is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
        print(f"wrote metrics -> {args.out}")
    if tracer is not None:
        tracer.write(args.trace_out)
        print(f"wrote {len(tracer.spans)} spans -> {args.trace_out}")
    if args.profile:
        print(PROFILER.report())
    return 0


def _cmd_serve_bench(args) -> int:
    import json

    from .benches import BENCHES
    from .errors import ConfigError

    selected = [name for name in BENCHES if getattr(args, name, False)]
    if len(selected) > 1:
        flags = ", ".join(f"--{name}" for name in BENCHES if name != "serve")
        print(f"error: pass at most one of {flags}", file=sys.stderr)
        return 1
    bench = BENCHES[selected[0] if selected else "serve"]
    options = dict.fromkeys(o for b in BENCHES.values() for o in b.options)
    try:
        doc = bench.run(
            **bench.kwargs(args.smoke, {o: getattr(args, o) for o in options})
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out is None:
        print(text)
    else:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
        print(f"wrote serve bench -> {args.out}")
    return 0


def _cmd_learn_train(args) -> int:
    import dataclasses as _dc

    from .learn import (
        DEFAULT_CATALOG,
        PINNED_TRAIN_CONFIG,
        TrainConfig,
        smoke_catalog,
        train_table,
    )

    if args.smoke:
        catalog = smoke_catalog()
        config = TrainConfig(
            iterations=2,
            population=4,
            elites=2,
            queries_per_scenario=4,
            grid_points=32,
        )
    else:
        catalog = DEFAULT_CATALOG
        config = PINNED_TRAIN_CONFIG
    overrides = {
        key: value
        for key, value in (
            ("seed", args.seed),
            ("iterations", args.iterations),
            ("population", args.population),
            ("queries_per_scenario", args.queries),
            ("optimizer", args.optimizer),
        )
        if value is not None
    }
    if overrides:
        config = _dc.replace(config, **overrides)
    table = train_table(catalog, config)
    table.save(args.out)
    prov = table.provenance
    print(f"trained {table.space.n_states}-state table -> {args.out}")
    print(
        f"seed={prov['seed']} iterations={prov['iterations']} "
        f"best_score={prov['best_score']} fallback_rate={prov['fallback_rate']}"
    )
    print("per-scenario quality (vs Cedar baseline at the training seed):")
    scores = prov["scores"]
    baseline = prov["baseline"]
    for name in sorted(scores):
        delta = scores[name] - baseline[name]
        print(f"  {name:<16} {scores[name]:.4f}  ({delta:+.4f})")
    return 0


def _cmd_learn_eval(args) -> int:
    import json

    from .core.policies import CedarPolicy
    from .learn import (
        DEFAULT_CATALOG,
        EVAL_SEED,
        LearnedWaitPolicy,
        PINNED_TRAIN_CONFIG,
        evaluate_policy,
        load_table,
        smoke_catalog,
    )
    from .serve.warmstart import WarmStartStore

    table = load_table(args.table)
    catalog = smoke_catalog() if args.smoke else DEFAULT_CATALOG
    seed = args.seed if args.seed is not None else EVAL_SEED
    grid_points = PINNED_TRAIN_CONFIG.grid_points
    policy = LearnedWaitPolicy(
        table, store=WarmStartStore(), grid_points=grid_points
    )
    learned = evaluate_policy(policy, catalog, args.queries, seed)
    cedar = evaluate_policy(
        CedarPolicy(grid_points=grid_points), catalog, args.queries, seed
    )
    print(
        f"held-out eval: seed={seed} queries_per_scenario={args.queries} "
        f"states={table.space.n_states}"
    )
    print(f"{'scenario':<16} {'cedar':>8} {'learned':>8} {'delta':>9}")
    for name in sorted(learned):
        print(
            f"{name:<16} {cedar[name]:>8.4f} {learned[name]:>8.4f} "
            f"{learned[name] - cedar[name]:>+9.4f}"
        )
    print(f"fallback_rate={policy.stats.fallback_rate:.6f}")
    if args.out is not None:
        doc = {
            "seed": seed,
            "queries_per_scenario": args.queries,
            "cedar": {name: cedar[name] for name in sorted(cedar)},
            "learned": {name: learned[name] for name in sorted(learned)},
            "deltas": {
                name: learned[name] - cedar[name] for name in sorted(learned)
            },
            "fallback_rate": policy.stats.fallback_rate,
            "table_provenance": dict(table.provenance),
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote eval -> {args.out}")
    return 0


def _cmd_learn(args) -> int:
    from .errors import ConfigError

    try:
        if args.learn_command == "train":
            return _cmd_learn_train(args)
        return _cmd_learn_eval(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_trace(args) -> int:
    if args.trace_command == "sim":
        return _cmd_trace_sim(args)
    from .errors import TraceError
    from .traces import make_workload, record_trace, save_trace

    try:
        workload = make_workload(args.workload)
        jobs, fanouts = record_trace(
            workload, n_jobs=args.jobs, samples_per_stage=args.samples, seed=args.seed
        )
        save_trace(args.path, name=args.workload, fanouts=fanouts, jobs=jobs)
    except TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"recorded {len(jobs)} jobs of {args.workload!r} -> {args.path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(ALL):
            print(name)
        return 0
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "wait":
        return _cmd_wait(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "dual":
        return _cmd_dual(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    if args.command == "learn":
        return _cmd_learn(args)
    if args.command == "lint":
        from .checks.cli import run_lint

        return run_lint(args)
    if args.experiment == "all":
        # skip the aggregate aliases; run each concrete panel once
        skip = {"fig7", "fig12", "fig16"}
        for name in sorted(ALL):
            if name in skip:
                continue
            _run_one(name, args)
        return 0
    if args.experiment not in ALL:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"choose from {', '.join(sorted(ALL))}",
            file=sys.stderr,
        )
        return 2
    _run_one(args.experiment, args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
