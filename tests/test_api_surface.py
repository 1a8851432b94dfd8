"""API-surface checks: top-level exports, result-object contracts, and
small behaviors not pinned elsewhere."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core import FixedStopPolicy, QueryContext, TreeSpec
from repro.distributions import LogNormal
from repro.errors import ConfigError
from repro.simulation import simulate_query


_SRC = pathlib.Path(repro.__file__).resolve().parents[1]


@pytest.mark.parametrize("statement", ["import repro", "import repro.serve"])
def test_import_does_not_load_scipy_stats(statement):
    """``scipy.stats`` is a third of the cold import and only
    ``OrderStatistic.pdf/mean/var`` use it, so they import it lazily.
    A fresh interpreter shows what the import alone pulls in."""
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; {statement}; print('scipy.stats' in sys.modules)",
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_package_exports_consistent(self):
        import repro.analysis
        import repro.cluster
        import repro.core
        import repro.estimation
        import repro.experiments
        import repro.learn
        import repro.obs
        import repro.orderstats
        import repro.serve
        import repro.service
        import repro.simulation
        import repro.traces

        for module in (
            repro.analysis,
            repro.cluster,
            repro.core,
            repro.estimation,
            repro.experiments,
            repro.learn,
            repro.obs,
            repro.orderstats,
            repro.serve,
            repro.service,
            repro.simulation,
            repro.traces,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestMessageEncoding:
    def test_encode_rejects_foreign_objects(self):
        from repro.service import encode

        with pytest.raises(ConfigError):
            encode({"not": "a message"})


class TestStaticWaitMonotonicity:
    def test_longer_stop_collects_no_less_before_shipping_risk(self):
        """With an infinitely generous deadline, a longer static stop can
        only collect more outputs (shipping risk is zero)."""
        tree = TreeSpec.two_level(LogNormal(1.0, 0.8), 15, LogNormal(0.0, 0.3), 8)
        ctx = QueryContext(deadline=1e9, offline_tree=tree, true_tree=tree)
        qualities = []
        for stop in (1.0, 3.0, 9.0, 27.0):
            vals = [
                simulate_query(ctx, FixedStopPolicy(stops=(stop,)), seed=s).quality
                for s in range(6)
            ]
            qualities.append(float(np.mean(vals)))
        assert qualities == sorted(qualities)


class TestBootstrapCustomStat:
    def test_median_statistic(self, rng):
        from repro.analysis import bootstrap_ci

        data = rng.normal(5.0, 1.0, size=300)
        lo, hi = bootstrap_ci(data, stat=np.median, seed=4)
        assert lo < 5.0 < hi


class TestRealTimeResultContract:
    def test_fields(self):
        from repro.core import FixedStopPolicy
        from repro.distributions import Uniform
        from repro.service import run_realtime_query

        tree = TreeSpec.two_level(Uniform(0.5, 1.0), 3, Uniform(0.5, 1.0), 2)
        ctx = QueryContext(deadline=50.0, offline_tree=tree, true_tree=tree)
        res = run_realtime_query(
            ctx, FixedStopPolicy(stops=(20.0,)), time_scale=0.002, seed=1
        )
        assert res.total_outputs == 6
        assert res.included_outputs <= res.total_outputs
        assert res.combined_value == pytest.approx(res.included_outputs, abs=1e-9)
        assert res.elapsed_virtual > 0.0
