"""Experiment harness: one module per paper figure.

Every module exposes ``run(scale="quick"|"full", seed=None)`` returning
an :class:`~repro.experiments.common.ExperimentReport`; ``ALL`` maps
experiment ids to their entry points for the CLI and benchmarks.
"""

from . import (
    chaos_serving,
    fig04_bing_rtt,
    fig06_potential,
    fig07_quality,
    fig08_cdf,
    fig09_estimation,
    fig10_empirical,
    fig11_online,
    fig12_fanout,
    fig13_levels,
    fig14_interactive,
    fig15_cosmos,
    fig16_sigma,
    fig17_gaussian,
    robustness,
    serving,
    shard_serving,
)
from .common import ExperimentReport, pick
from .sweep import POLICY_FACTORIES, load_spec, run_sweep, run_sweep_file

ALL = {
    "fig4": fig04_bing_rtt.run,
    "fig6": fig06_potential.run,
    "fig7": fig07_quality.run,
    "fig7a": fig07_quality.run_deployment,
    "fig7b": fig07_quality.run_simulation,
    "fig8": fig08_cdf.run,
    "fig9": fig09_estimation.run,
    "fig10": fig10_empirical.run,
    "fig11": fig11_online.run,
    "fig12": fig12_fanout.run,
    "fig12a": fig12_fanout.run_equal_fanout,
    "fig12b": fig12_fanout.run_fanout_ratio,
    "fig13": fig13_levels.run,
    "fig14": fig14_interactive.run,
    "fig15": fig15_cosmos.run,
    "fig16": fig16_sigma.run,
    "fig16-bing": lambda scale="quick", seed=None: fig16_sigma.run_variant("bing", scale, seed),
    "fig16-google": lambda scale="quick", seed=None: fig16_sigma.run_variant("google", scale, seed),
    "fig16-facebook": lambda scale="quick", seed=None: fig16_sigma.run_variant("facebook", scale, seed),
    "fig17": fig17_gaussian.run,
    "robustness": robustness.run,
    "serving": serving.run,
    "chaos-serving": chaos_serving.run,
    "shard-serving": shard_serving.run,
}

__all__ = [
    "ALL",
    "ExperimentReport",
    "pick",
    "POLICY_FACTORIES",
    "load_spec",
    "run_sweep",
    "run_sweep_file",
]
