"""Shared report plumbing and the chaos-serving experiment.

The paper figures are checked in ``test_figures_golden.py``: one table
row per panel, golden and claims on the same cached report.
"""

import pytest

from repro.experiments import ALL
from repro.experiments.common import ExperimentReport, pick
from repro.errors import ConfigError


class TestCommon:
    def test_pick(self):
        assert pick("quick", 1, 2) == 1
        assert pick("full", 1, 2) == 2
        with pytest.raises(ConfigError):
            pick("medium", 1, 2)

    def test_report_table_and_csv(self):
        rep = ExperimentReport(
            experiment="x",
            title="T",
            headers=("a", "b"),
            rows=((1, 2), (3, 4)),
            notes="n",
        )
        assert "T" in rep.table()
        assert "n" in rep.table()
        assert rep.to_csv().startswith("a,b")
        assert rep.column("b") == [2, 4]
        with pytest.raises(ConfigError):
            rep.column("c")

    def test_registry_complete(self):
        for fig in ("fig4", "fig6", "fig7a", "fig7b", "fig8", "fig9", "fig10",
                    "fig11", "fig12a", "fig12b", "fig13", "fig14", "fig15",
                    "fig16-bing", "fig16-google", "fig16-facebook", "fig17"):
            assert fig in ALL


class TestChaosServing:
    def test_quick_panel_claims(self):
        from repro.experiments import chaos_serving

        # the pinned seed: the smoke sweep's calibrated claims all hold
        rep = chaos_serving.run("quick", seed=2608)
        assert rep.summary["zero_rate_bit_identical"] == 1.0
        assert rep.summary["brownout_hit_rate"] >= 0.99
        assert rep.summary["warm_resets_with_drift"] >= 1
        assert rep.summary["warm_resets_without_drift"] == 0
        # at fault rate zero the hedging baseline ties Cedar exactly
        zero_rate = [row for row in rep.rows if row[0] == 0.0]
        assert zero_rate
        for row in zero_rate:
            assert row[4] == 0.0

    def test_serving_experiments_registered(self):
        for name in ("serving", "robustness", "chaos-serving"):
            assert name in ALL
