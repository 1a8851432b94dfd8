"""User-defined sweep specs."""

import json

import pytest

from repro.errors import ConfigError
from repro.experiments import POLICY_FACTORIES, load_spec, run_sweep, run_sweep_file

SPEC = {
    "name": "tiny",
    "workload": {"name": "facebook", "kwargs": {"k1": 10, "k2": 8}},
    "policies": ["proportional-split", "cedar"],
    "deadlines": [600, 1500],
    "n_queries": 6,
    "agg_sample": 4,
    "seed": 3,
    "grid_points": 96,
}


class TestLoadSpec:
    def test_valid(self):
        spec = load_spec(SPEC)
        assert spec["workload_name"] == "facebook"
        assert spec["deadlines"] == [600.0, 1500.0]
        assert spec["workload_kwargs"] == {"k1": 10, "k2": 8}

    def test_defaults(self):
        minimal = {
            "workload": {"name": "facebook"},
            "policies": ["cedar"],
            "deadlines": [500],
        }
        spec = load_spec(minimal)
        assert spec["n_queries"] == 50
        assert spec["grid_points"] == 256

    def test_missing_fields(self):
        for field in ("workload", "policies", "deadlines"):
            broken = dict(SPEC)
            del broken[field]
            with pytest.raises(ConfigError):
                load_spec(broken)

    def test_unknown_policy(self):
        broken = dict(SPEC, policies=["cedar", "magic"])
        with pytest.raises(ConfigError):
            load_spec(broken)

    def test_bad_deadlines(self):
        with pytest.raises(ConfigError):
            load_spec(dict(SPEC, deadlines=[]))
        with pytest.raises(ConfigError):
            load_spec(dict(SPEC, deadlines=[-5]))

    def test_bad_workload_shape(self):
        with pytest.raises(ConfigError):
            load_spec(dict(SPEC, workload="facebook"))


class TestRunSweep:
    def test_produces_report(self):
        report = run_sweep(SPEC)
        assert len(report.rows) == 2
        assert report.headers[0] == "deadline"
        assert "cedar_vs_proportional-split_%" in report.headers
        for row in report.rows:
            for quality in row[1:3]:
                assert 0.0 <= quality <= 1.0

    def test_single_policy_no_improvement_column(self):
        report = run_sweep(dict(SPEC, policies=["cedar"]))
        assert report.headers == ("deadline", "cedar")

    def test_cedar_tabulated_close_to_exact_cedar(self):
        """§4.3.3: waits served from the quantised cache cost little
        quality against a sweep per arrival."""
        report = run_sweep(dict(SPEC, policies=["cedar", "cedar-tabulated"]))
        for _, exact, tabulated, _ in report.rows:
            assert tabulated == pytest.approx(exact, abs=0.05)

    def test_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SPEC))
        report = run_sweep_file(path)
        assert report.experiment == "tiny"

    def test_bad_file(self, tmp_path):
        with pytest.raises(ConfigError):
            run_sweep_file(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigError):
            run_sweep_file(bad)

    def test_policy_registry_complete(self):
        assert "cedar" in POLICY_FACTORIES
        assert "ideal" in POLICY_FACTORIES
        assert "cedar-tabulated" in POLICY_FACTORIES


class TestCliSweep:
    def test_cli_sweep(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SPEC))
        assert main(["sweep", str(path), "--csv", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Sweep 'tiny'" in out
        assert (tmp_path / "tiny.csv").exists()

    def test_cli_sweep_bad_spec(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"policies": ["cedar"]}))
        assert main(["sweep", str(bad)]) == 1
        assert "error" in capsys.readouterr().err
