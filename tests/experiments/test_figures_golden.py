"""Every paper figure, checked once: one table row per ``fig*`` panel.

The table is ``CLAIMS``: each concrete ``fig*`` panel of
``repro.experiments.ALL`` has its claims registered below (EXPERIMENTS.md,
"Figure claims", lists them with their bounds). Each panel runs **once**
per session, at its ``quick`` scale and the golden seed, and that one
report is checked two ways:

* against its committed golden ``tests/experiments/goldens/<id>.json``:
  headers, rows and notes exactly (their values are already rounded by
  the runners, which absorbs platform-level numeric jitter), summary
  scalars at a 1e-6 relative tolerance. A mismatch fails loudly with a
  unified diff of the two documents;
* against every claim registered for it below: a named function of the
  report, with the paper's sentence it stands for and its bound as data.

The aliases ``fig7``, ``fig12`` and ``fig16`` only merge their panels;
their merge is checked on the cached panel reports, not by re-running.

To bless an intentional change::

    pytest tests/experiments/test_figures_golden.py --update-goldens

then commit the rewritten goldens together with the change that moved
the numbers.
"""

import dataclasses
import difflib
import functools
import json
import pathlib
from typing import Any, Callable

import pytest

from repro.experiments import ALL, ExperimentReport
from repro.experiments import fig07_quality, fig12_fanout, fig16_sigma

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
SEED = 20260806
SUMMARY_RTOL = 1e-6

#: aliases that merge panels: alias -> {panel id: its summary-key prefix}
ALIASES = {
    "fig7": {"fig7a": "dep_", "fig7b": "sim_"},
    "fig12": {"fig12a": "", "fig12b": ""},
    "fig16": {
        "fig16-bing": "bing_",
        "fig16-google": "google_",
        "fig16-facebook": "facebook_",
    },
}


@functools.cache
def _report(panel: str) -> ExperimentReport:
    return ALL[panel](scale="quick", seed=SEED)


@dataclasses.dataclass(frozen=True)
class Claim:
    panel: str
    check: Callable[..., None]
    #: the paper's sentence this claim stands for
    paper: str
    #: threshold handed to ``check``; ``None`` for a claim without one
    bound: Any = None

    @property
    def id(self) -> str:
        return f"{self.panel}-{self.check.__name__}"

    def assert_holds(self, report: ExperimentReport) -> None:
        if self.bound is None:
            self.check(report)
        else:
            self.check(report, self.bound)


CLAIMS: list[Claim] = []


def claim(*panels: str, paper: str, bound: Any = None):
    def register(check):
        CLAIMS.extend(Claim(panel, check, paper, bound) for panel in panels)
        return check

    return register


def _floats(report: ExperimentReport, column: str) -> list[float]:
    return [float(x) for x in report.column(column)]


def _never_below(report, slack, ours, base="proportional_split"):
    pairs = zip(_floats(report, ours), _floats(report, base))
    assert all(o >= b - slack for o, b in pairs)


# ----------------------------------------------------------------- fig4
@claim("fig4", paper="Log-normal is the best fit (mu=5.9, sigma=1.25).")
def lognormal_is_the_best_fit(rep):
    assert rep.summary["best_fit_is_lognormal"] == 1.0


#: relative distance allowed from the paper's 330 us median
@claim("fig4", paper="Long-tailed RTTs; median 330 us.", bound=0.25)
def median_rtt_near_the_paper(rep, rel):
    assert abs(rep.summary["median_us"] - 330.0) <= rel * 330.0


# ----------------------------------------------------------------- fig6
_FIG6 = (
    "Ideal improves average quality by >100% over Proportional-split "
    "at tight deadlines."
)


@claim("fig6", paper=_FIG6, bound=50.0)
def ideal_gain_at_tightest_deadline(rep, min_gain):
    assert _floats(rep, "ideal_improvement_%")[0] > min_gain
    assert rep.summary["improvement_at_tightest_deadline_%"] > min_gain


@claim("fig6", paper=_FIG6)
def ideal_gain_decays_with_deadline(rep):
    gains = _floats(rep, "ideal_improvement_%")
    assert gains[-1] < gains[0]


@claim("fig6", paper=_FIG6, bound=0.02)
def ideal_never_below_proportional_split(rep, slack):
    _never_below(rep, slack, "ideal")


# ---------------------------------------------------------------- fig7a
_FIG7A = (
    "Cedar improves quality by 10-197% on the Spark/EC2 prototype, "
    "improvements decaying with the deadline."
)


@claim("fig7a", paper=_FIG7A, bound=20.0)
def deployment_gain_at_tightest_deadline(rep, min_gain):
    assert _floats(rep, "improvement_%")[0] > min_gain
    assert rep.summary["improvement_at_tightest_deadline_%"] > min_gain


@claim("fig7a", paper=_FIG7A, bound=0.02)
def cedar_never_below_proportional_split(rep, slack):
    _never_below(rep, slack, "cedar")


# ---------------------------------------------------------------- fig7b
@claim("fig7b", paper="Simulated improvements of 11-100%.", bound=30.0)
def simulation_gain_at_tightest_deadline(rep, min_gain):
    assert rep.summary["improvement_at_tightest_deadline_%"] > min_gain


@claim("fig7b", paper="Cedar is close to Ideal.", bound=0.08)
def cedar_tracks_ideal_quality(rep, max_gap):
    assert abs(rep.summary["cedar_vs_ideal_gap"]) < max_gap


# ----------------------------------------------------------------- fig8
@claim(
    "fig8", paper="About 40% of queries improve by more than 50%.",
    bound=(0.15, 0.85),
)
def fraction_over_half_in_band(rep, band):
    low, high = band
    assert low <= rep.summary["fraction_over_50pct"] <= high


@claim("fig8", paper="The bottom one-fifth sees little gain.", bound=20.0)
def bottom_fifth_gains_little(rep, max_gain):
    assert rep.summary["bottom_fifth_improvement_%"] < max_gain


@claim("fig8", paper="CDF of per-query improvement at D=1000 s.")
def improvement_cdf_is_monotone(rep):
    levels = _floats(rep, "improvement_%")
    assert levels == sorted(levels)


# ----------------------------------------------------------------- fig9
_FIG9 = "Empirical estimates stay heavily biased."


@claim(
    "fig9",
    paper="Cedar's mu error is <5% once >=10 of 50 processes completed.",
    bound=15.0,
)
def orderstat_mu_error_small_at_10(rep, max_error):
    assert rep.summary["cedar_mu_error_at_10_%"] < max_error


@claim("fig9", paper=_FIG9, bound=25.0)
def empirical_mu_error_stays_large(rep, min_error):
    assert rep.summary["empirical_mu_error_at_10_%"] > min_error


@claim("fig9", paper=_FIG9, bound=2.0)
def empirical_error_a_multiple_of_orderstat(rep, factor):
    assert (
        rep.summary["empirical_mu_error_at_10_%"]
        > factor * rep.summary["cedar_mu_error_at_10_%"]
    )


# ---------------------------------------------------------------- fig10
@claim(
    "fig10",
    paper=(
        "Cedar's improvements are 30-70% higher than the same pipeline "
        "with empirical estimates."
    ),
    bound=10.0,
)
def orderstat_advantage_at_tightest(rep, min_advantage):
    assert rep.summary["orderstat_advantage_at_tightest_%"] > min_advantage


# ---------------------------------------------------------------- fig11
@claim(
    "fig11", paper="Waits learned at low load keep >90% quality there.",
    bound=0.85,
)
def low_load_quality_high(rep, min_quality):
    assert rep.summary["low-load_offline"] > min_quality
    assert rep.summary["low-load_online"] > min_quality


#: quality margin online Cedar keeps over the stale schedule
@claim(
    "fig11", paper="They degrade when load rises; online Cedar copes.",
    bound=0.03,
)
def online_copes_with_load_rise(rep, margin):
    assert (
        rep.summary["high-load_online"]
        > rep.summary["high-load_offline"] + margin
    )


# ---------------------------------------------------------------- fig12
@claim(
    "fig12a",
    paper="Gains are smaller at low fan-out (fewer processes, less variation).",
)
def gains_grow_with_fanout(rep):
    assert (
        rep.summary["improvement_at_largest_fanout_%"]
        > rep.summary["improvement_at_smallest_fanout_%"]
    )


@claim(
    "fig12b",
    paper="The ratio sweep stabilizes past k1/k2 ~ 0.2 around ~55%.",
    bound=20.0,
)
def gain_at_ratio_one(rep, min_gain):
    assert rep.summary["improvement_at_ratio_1_%"] > min_gain


# ---------------------------------------------------------------- fig13
_FIG13 = "Gains hold and grow with a third tree level."


def _closest_pair(rep):
    """The (2-level, 3-level) rows whose baseline qualities are closest."""
    rows2 = [r for r in rep.rows if r[0] == "2-level"]
    rows3 = [r for r in rep.rows if r[0] == "3-level"]
    return min(
        ((r2, r3) for r2 in rows2 for r3 in rows3),
        key=lambda pair: abs(pair[0][2] - pair[1][2]),
    )


#: the depths are only comparable at similar baseline quality
@claim("fig13", paper=_FIG13, bound=0.15)
def depths_have_a_comparable_pair(rep, max_quality_gap):
    r2, r3 = _closest_pair(rep)
    assert abs(r2[2] - r3[2]) < max_quality_gap


#: points the 3-level gain may trail the 2-level one at that pair
@claim("fig13", paper=_FIG13, bound=10.0)
def three_level_gains_at_least_two_level(rep, slack):
    r2, r3 = _closest_pair(rep)
    assert r3[4] >= r2[4] - slack


@claim("fig13", paper=_FIG13, bound=20.0)
def first_deadline_gain_at_both_depths(rep, min_gain):
    assert rep.summary["2-level_improvement_at_first_deadline_%"] > min_gain
    assert rep.summary["3-level_improvement_at_first_deadline_%"] > min_gain


# ---------------------------------------------------------------- fig14
_FIG14 = (
    "Improvements of 72/69/61/57/46/39/36%, decaying across the "
    "deadline sweep."
)


@claim("fig14", paper=_FIG14, bound=25.0)
def interactive_gain_at_tightest_deadline(rep, min_gain):
    assert rep.summary["improvement_at_tightest_deadline_%"] > min_gain


@claim("fig14", paper=_FIG14)
def interactive_gain_decays_with_deadline(rep):
    assert (
        rep.summary["improvement_at_longest_deadline_%"]
        < rep.summary["improvement_at_tightest_deadline_%"]
    )


# ---------------------------------------------------------------- fig15
_FIG15 = "Improvements of 9-79% from offline Cedar alone."


@claim("fig15", paper=_FIG15, bound=20.0)
def offline_gain_at_tightest_deadline(rep, min_gain):
    assert rep.summary["offline_improvement_at_tightest_%"] > min_gain


@claim("fig15", paper=_FIG15)
def offline_gain_decays_with_deadline(rep):
    assert (
        rep.summary["offline_improvement_at_longest_%"]
        < rep.summary["offline_improvement_at_tightest_%"]
    )


# ---------------------------------------------------------------- fig16
_FIG16 = ("fig16-bing", "fig16-google", "fig16-facebook")


@claim(
    *_FIG16,
    paper="Improvements grow with the bottom stage's variability.",
    bound=10.0,
)
def cedar_gain_at_max_sigma(rep, min_gain):
    assert rep.summary["cedar_improvement_at_max_sigma_%"] > min_gain


#: |cedar - ideal| < max(floor, share * ideal), in improvement points
@claim(*_FIG16, paper="Cedar tracks Ideal across all sweeps.", bound=(15.0, 0.3))
def cedar_tracks_ideal_gain(rep, tolerance):
    floor, share = tolerance
    cedar = rep.summary["cedar_improvement_at_max_sigma_%"]
    ideal = rep.summary["ideal_improvement_at_max_sigma_%"]
    assert abs(cedar - ideal) < max(floor, share * ideal)


# ---------------------------------------------------------------- fig17
@claim(
    "fig17",
    paper="Modest improvements (~12-14%) because normal tails are light.",
    bound=3.0,
)
def modest_gaussian_gains(rep, min_gain):
    assert rep.summary["max_improvement_%"] > min_gain


@claim("fig17", paper="High absolute quality.", bound=0.03)
def gaussian_cedar_never_below_proportional_split(rep, slack):
    _never_below(rep, slack, "cedar")


# ------------------------------------------------------------- goldens
def _report_doc(report) -> dict:
    """JSON-stable document for one report (tuples become lists)."""
    return {
        "experiment": report.experiment,
        "headers": list(report.headers),
        "rows": [list(row) for row in report.rows],
        "notes": report.notes,
        "summary": {k: report.summary[k] for k in sorted(report.summary)},
    }


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True)


def _unified_diff(golden: dict, fresh: dict, name: str) -> str:
    return "\n".join(
        difflib.unified_diff(
            _dumps(golden).splitlines(),
            _dumps(fresh).splitlines(),
            fromfile=f"goldens/{name}.json (committed)",
            tofile=f"{name} (this run)",
            lineterm="",
        )
    )


def _summaries_close(golden: dict, fresh: dict) -> bool:
    if set(golden) != set(fresh):
        return False
    for key, ref in golden.items():
        new = fresh[key]
        if isinstance(ref, (int, float)) and isinstance(new, (int, float)):
            if abs(new - ref) > SUMMARY_RTOL * max(1.0, abs(ref)):
                return False
        elif new != ref:
            return False
    return True


@pytest.mark.parametrize("name", sorted({c.panel for c in CLAIMS}))
def test_figure_matches_golden(name, update_goldens):
    fresh = _report_doc(_report(name))
    path = GOLDEN_DIR / f"{name}.json"
    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(_dumps(fresh) + "\n")
        return
    if not path.exists():
        pytest.fail(
            f"no golden for {name!r}; generate it with "
            "pytest --update-goldens"
        )
    golden = json.loads(path.read_text())
    exact_match = {k: v for k, v in golden.items() if k != "summary"} == {
        k: v for k, v in fresh.items() if k != "summary"
    }
    if not (exact_match and _summaries_close(golden["summary"], fresh["summary"])):
        pytest.fail(
            f"{name} drifted from its committed golden "
            f"(seed {SEED}, scale 'quick'):\n"
            + _unified_diff(golden, fresh, name)
        )


@pytest.mark.parametrize("case", CLAIMS, ids=lambda c: c.id)
def test_figure_claim(case):
    case.assert_holds(_report(case.panel))


def test_no_stale_goldens(update_goldens):
    """Table ids == ``fig*`` panels of ``ALL`` == golden files."""
    panels = {name for name in ALL if name.startswith("fig")} - set(ALIASES)
    assert {c.panel for c in CLAIMS} == panels
    if not update_goldens:
        on_disk = {p.stem for p in GOLDEN_DIR.glob("*.json")}
        assert on_disk == panels, (
            "goldens out of sync with the figure table: "
            f"stale={sorted(on_disk - panels)}, "
            f"missing={sorted(panels - on_disk)}"
        )


def _substitute_panels(monkeypatch, alias: str) -> None:
    """Point ``ALL[alias]``'s panel runners at the cached panel reports."""
    # resolve every panel first: ALL's fig16-* entries call run_variant
    reports = {panel: _report(panel) for panel in ALIASES[alias]}

    def cached(panel, scale, seed):
        assert (scale, seed) == ("quick", SEED)
        return reports[panel]

    if alias == "fig7":
        monkeypatch.setattr(fig07_quality, "run_deployment",
                            lambda scale, seed: cached("fig7a", scale, seed))
        monkeypatch.setattr(fig07_quality, "run_simulation",
                            lambda scale, seed: cached("fig7b", scale, seed))
    elif alias == "fig12":
        monkeypatch.setattr(fig12_fanout, "run_equal_fanout",
                            lambda scale, seed: cached("fig12a", scale, seed))
        monkeypatch.setattr(fig12_fanout, "run_fanout_ratio",
                            lambda scale, seed: cached("fig12b", scale, seed))
    else:
        monkeypatch.setattr(
            fig16_sigma, "run_variant",
            lambda variant, scale, seed: cached(f"fig16-{variant}", scale, seed),
        )


@pytest.mark.parametrize("alias", sorted(ALIASES))
def test_alias_merges_its_panels(alias, monkeypatch):
    _substitute_panels(monkeypatch, alias)
    merged = ALL[alias](scale="quick", seed=SEED)
    # panel by panel, in order: one label per panel, every value kept
    labels, start = [], 0
    for panel in ALIASES[alias]:
        rows = _report(panel).rows
        chunk = merged.rows[start:start + len(rows)]
        start += len(rows)
        assert len(chunk) == len(rows)
        assert len({row[0] for row in chunk}) == 1
        labels.append(chunk[0][0])
        for merged_row, row in zip(chunk, rows):
            assert set(row) <= set(merged_row[1:])
    assert start == len(merged.rows)
    assert len(set(labels)) == len(labels)
    assert dict(merged.summary) == {
        prefix + key: value
        for panel, prefix in ALIASES[alias].items()
        for key, value in _report(panel).summary.items()
    }
