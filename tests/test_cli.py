"""CLI entry point."""

import pathlib

import pytest

from repro.benches import BENCHES
from repro.cli import main

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig7b" in out
        assert "fig16-bing" in out

    def test_run_fig4(self, capsys):
        assert main(["run", "fig4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "lognormal" in out

    def test_run_with_csv(self, tmp_path, capsys):
        assert main(["run", "fig4", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "fig4.csv").exists()

    def test_run_with_plot(self, capsys):
        assert main(["run", "fig9", "--plot", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        # fig9 has a numeric x-axis (completed processes) -> chart drawn
        assert "cedar_mu_err_%" in out
        assert "+--" in out  # the chart's x-axis

    def test_run_plot_skips_categorical_axis(self, capsys):
        assert main(["run", "fig4", "--plot", "--seed", "1"]) == 0
        assert "skipping chart" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestWaitCommand:
    ARGS = [
        "--mu1", "6.0", "--sigma1", "0.84",
        "--mu2", "4.7", "--sigma2", "0.5",
        "--k1", "50", "--k2", "50", "--grid-points", "192",
    ]

    def test_wait(self, capsys):
        assert main(["wait", "--deadline", "1000"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "optimal wait" in out
        assert "achievable quality" in out

    def test_dual(self, capsys):
        assert main(["dual", "--target", "0.7"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "minimum deadline" in out

    def test_explain(self, capsys):
        assert main(["explain", "--deadline", "1000"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "optimal wait" in out
        assert "hold 'em" in out

    def test_dual_bad_target(self, capsys):
        assert main(["dual", "--target", "1.5"] + self.ARGS) == 1
        assert "error" in capsys.readouterr().err


class TestTraceCommand:
    def test_record_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "fb.json"
        assert (
            main(
                [
                    "trace", "record", "facebook", str(path),
                    "--jobs", "3", "--samples", "5", "--seed", "1",
                ]
            )
            == 0
        )
        assert path.exists()
        from repro.traces import load_trace

        assert len(load_trace(path).jobs) == 3

    def test_record_unknown_workload(self, tmp_path, capsys):
        assert (
            main(["trace", "record", "nope", str(tmp_path / "x.json")]) == 1
        )
        assert "error" in capsys.readouterr().err


TREE_ARGS = [
    "--mu1", "3.0", "--sigma1", "0.5",
    "--mu2", "2.0", "--sigma2", "0.3",
    "--k1", "4", "--k2", "3", "--grid-points", "64",
]


class TestTraceSimCommand:
    def test_renders_tree_and_writes_jsonl(self, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        assert (
            main(
                ["trace", "sim", "--deadline", "60", "--seed", "7",
                 "--out", str(out_path)] + TREE_ARGS
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "query L2" in out
        assert "aggregator L1" in out
        assert "quality:" in out
        from repro.obs import build_tree, read_trace

        spans = read_trace(out_path)
        (root,) = build_tree(spans)
        assert root.span.kind == "query"
        # 3 aggregators, 4 workers each, plus the query span
        assert len(spans) == 1 + 3 + 12

    def test_no_workers_flag_drops_leaves(self, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        assert (
            main(
                ["trace", "sim", "--deadline", "60", "--seed", "7",
                 "--no-workers", "--out", str(out_path)] + TREE_ARGS
            )
            == 0
        )
        from repro.obs import read_trace

        assert all(s.kind != "worker" for s in read_trace(out_path))

    def test_unknown_policy(self, capsys):
        assert (
            main(
                ["trace", "sim", "--deadline", "60", "--policy", "nope"]
                + TREE_ARGS
            )
            == 2
        )
        assert "unknown policy" in capsys.readouterr().err


class TestMetricsCommand:
    SPEC = {
        "name": "cli-smoke",
        "workload": {"name": "facebook", "kwargs": {"k1": 5, "k2": 3}},
        "policies": ["proportional-split", "cedar"],
        "deadlines": [400],
        "n_queries": 2,
        "seed": 3,
        "grid_points": 48,
    }

    def _spec_path(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        return path

    def test_prometheus_to_stdout(self, tmp_path, capsys):
        assert main(["metrics", str(self._spec_path(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "# TYPE cedar_queries_total counter" in out
        assert 'cedar_queries_total{policy="cedar"} 2' in out
        assert "cedar_response_quality_bucket" in out

    def test_json_to_file_with_trace_and_profile(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.jsonl"
        assert (
            main(
                ["metrics", str(self._spec_path(tmp_path)),
                 "--format", "json", "--out", str(out_path),
                 "--trace-out", str(trace_path), "--profile", "--table"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cli-smoke" in out  # --table printed the report
        assert "core.wait.sweep" in out  # --profile printed hot paths
        doc = json.loads(out_path.read_text())
        assert doc["cedar_queries_total"]["type"] == "counter"
        from repro.obs import read_trace

        # 2 policies x 1 deadline x 2 queries
        queries = [s for s in read_trace(trace_path) if s.kind == "query"]
        assert len(queries) == 4

    def test_bad_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["metrics", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestChaosCommand:
    def test_chaos_with_trace_and_metrics(self, tmp_path, capsys):
        trace_path = tmp_path / "chaos.jsonl"
        metrics_path = tmp_path / "chaos.prom"
        assert (
            main(
                ["chaos", "--deadline", "60", "--seed", "11",
                 "--kill", "0.25", "--drop", "0.3",
                 "--time-scale", "0.002",
                 "--trace-out", str(trace_path),
                 "--metrics-out", str(metrics_path)] + TREE_ARGS
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "injected (ground truth)" in out
        text = metrics_path.read_text()
        assert "cedar_queries_total" in text
        from repro.obs import build_tree, read_trace

        (root,) = build_tree(read_trace(trace_path))
        assert root.span.attrs["transport"] == "tcp"
        assert len(root.children) == 3  # one span per aggregator

    def test_documented_serve_command_runs_without_seed(self, capsys):
        # the README / docs/serving.md command verbatim: no --seed
        argv = ("chaos --serve --deadline 60 --mu1 3.0 --sigma1 0.8 "
                "--mu2 2.2 --sigma2 0.35 --k1 4 --k2 8 --kill 0.1 "
                "--drop 0.05").split()
        assert main(argv) == 0
        assert "final mode:" in capsys.readouterr().out


class TestServeBenchCommand:
    def test_smoke_to_file(self, tmp_path, capsys):
        out_path = tmp_path / "serve.json"
        assert main(["serve-bench", "--smoke", "--out", str(out_path)]) == 0
        assert "wrote serve bench" in capsys.readouterr().out
        import json

        doc = json.loads(out_path.read_text())
        assert doc["bench"] == "serve"
        assert len(doc["points"]) == 3
        assert "warm_start" in doc
        for point in doc["points"]:
            assert 0.0 <= point["shed_fraction"] <= 1.0

    def test_custom_qps_ladder(self, capsys):
        assert (
            main(
                ["serve-bench", "--smoke", "--qps", "0.02", "--qps", "0.3"]
            )
            == 0
        )
        import json

        doc = json.loads(capsys.readouterr().out)
        assert [p["offered_qps"] for p in doc["points"]] == [0.02, 0.3]

    def test_bad_qps(self, capsys):
        assert main(["serve-bench", "--smoke", "--qps", "-1"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", list(BENCHES))
    def test_every_registry_entry(self, name, tmp_path, capsys):
        import json

        bench = BENCHES[name]
        out_path = tmp_path / "doc.json"
        argv = ["serve-bench", "--smoke", "--out", str(out_path)]
        if name != "serve":
            argv.append(f"--{name}")
        if "requests" in bench.options:
            argv += ["--requests", "8"]
        assert main(argv) == 0
        assert "wrote serve bench" in capsys.readouterr().out
        text = out_path.read_text()
        committed = json.loads((BENCH_DIR / bench.file).read_text())
        assert json.loads(text)["bench"] == committed["bench"]
        if "requests" in bench.options:
            # --smoke sets the sizes, an explicit option still wins
            assert '"n_requests": 8' in text
            assert '"n_requests": 16' not in text

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--chaos", "--qps", "0.1"],
                "error: serve-bench --chaos does not take --qps",
            ),
            (
                ["--learned", "--smoke", "--no-warm"],
                "error: serve-bench --learned does not take --no-warm",
            ),
            (
                ["--shards", "--waitpath"],
                "error: pass at most one of --chaos, --shards, --waitpath, "
                "--learned",
            ),
        ],
    )
    def test_rejects_what_the_bench_does_not_take(self, argv, message, capsys):
        assert main(["serve-bench", *argv]) == 1
        assert capsys.readouterr().err.strip() == message
