"""Tests for multi-seed replication and paired comparisons."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments.common import ScenarioConfig
from repro.experiments.stats import (
    DEFAULT_METRICS,
    MetricCI,
    _ci,
    paired_comparison,
    replicate,
    student_t_ppf,
)

SMALL = ScenarioConfig(scheme="tlb", n_paths=4, hosts_per_leaf=12, n_short=6,
                       n_long=1, long_size=300_000, short_window=0.005,
                       horizon=0.5)


def test_ci_math_known_values():
    ci = _ci("x", np.array([1.0, 2.0, 3.0]), 0.95)
    assert ci.mean == pytest.approx(2.0)
    # t(0.975, df=2) = 4.3027, sem = 1/sqrt(3)
    assert ci.half_width == pytest.approx(4.3027 / np.sqrt(3), rel=1e-3)
    assert ci.ci_low < ci.mean < ci.ci_high


def test_ci_single_sample_degenerate():
    ci = _ci("x", np.array([5.0]), 0.95)
    assert ci.mean == ci.ci_low == ci.ci_high == 5.0


def test_ci_ignores_nan():
    ci = _ci("x", np.array([1.0, float("nan"), 3.0]), 0.95)
    assert ci.n == 2
    assert ci.mean == pytest.approx(2.0)


def test_replicate_runs_per_seed():
    out = replicate(SMALL, seeds=[1, 2, 3], processes=0)
    assert set(out) == set(DEFAULT_METRICS)
    afct = out["short_afct"]
    assert afct.n == 3
    assert afct.ci_low <= afct.mean <= afct.ci_high
    assert afct.mean > 0


def test_replicate_validation():
    with pytest.raises(ConfigError):
        replicate(SMALL, seeds=[])
    with pytest.raises(ConfigError):
        replicate(SMALL, seeds=[1], confidence=1.5)


def test_paired_comparison_sign():
    """RPS reorders, ECMP does not: dup-ratio difference must be >0 for
    every seed, so the paired CI sits strictly above zero."""
    ci = paired_comparison(
        SMALL.with_(n_short=10, n_long=2, hosts_per_leaf=16),
        "rps", "ecmp", seeds=[1, 2, 3],
        metric=lambda m: m.short_reordering.dup_ack_ratio
        + m.long_reordering.dup_ack_ratio,
        processes=0)
    assert ci.n == 3
    assert ci.mean > 0
    assert ci.ci_low >= 0 or ci.mean > 0  # paired interval above zero


def test_paired_comparison_zero_for_same_scheme():
    ci = paired_comparison(SMALL, "ecmp", "ecmp", seeds=[1, 2], processes=0)
    assert ci.mean == 0.0
    assert ci.half_width == 0.0


# -- Student-t quantile -------------------------------------------------------

# Two-sided critical values from standard t tables (df, p, t).
T_TABLE = [
    (1, 0.95, 6.313751515), (1, 0.975, 12.70620474), (1, 0.995, 63.65674116),
    (2, 0.975, 4.302652730), (3, 0.975, 3.182446305), (4, 0.90, 1.533206274),
    (5, 0.975, 2.570581836), (5, 0.995, 4.032142984), (10, 0.95, 1.812461123),
    (10, 0.975, 2.228138852), (15, 0.99, 2.602480295), (20, 0.975, 2.085963447),
    (30, 0.975, 2.042272456), (60, 0.975, 2.000297822), (100, 0.975, 1.983971519),
    (1000, 0.975, 1.962339081),
]


@pytest.mark.parametrize("df,p,expected", T_TABLE)
def test_t_ppf_matches_table(df, p, expected):
    assert student_t_ppf(p, df) == pytest.approx(expected, rel=1e-9)
    assert student_t_ppf(1 - p, df) == pytest.approx(-expected, rel=1e-9)


@pytest.mark.parametrize("p", [0.5001, 0.6, 0.8, 0.95, 0.999, 1 - 1e-9])
def test_t_ppf_closed_forms(p):
    # df = 1 is the Cauchy distribution, tan(pi (p - 1/2)), written in
    # the tail mass 1 - p so that the reference itself is well conditioned;
    # df = 2 has an algebraic inverse.
    assert student_t_ppf(p, 1) == pytest.approx(1 / math.tan(math.pi * (1 - p)), rel=1e-9)
    assert student_t_ppf(p, 2) == pytest.approx(
        (2 * p - 1) / math.sqrt(2 * p * (1 - p)), rel=1e-9)


def test_t_ppf_symmetry_and_validation():
    assert student_t_ppf(0.5, 7) == 0.0
    assert student_t_ppf(0.25, 7.5) == -student_t_ppf(0.75, 7.5)
    for bad_p in (0.0, 1.0, -0.1, float("nan")):
        with pytest.raises(ValueError):
            student_t_ppf(bad_p, 3)
    for bad_df in (0, -1, float("nan")):
        with pytest.raises(ValueError):
            student_t_ppf(0.9, bad_df)


def test_t_ppf_matches_scipy():
    sps = pytest.importorskip("scipy.stats")
    dfs = np.arange(1, 1001)
    checks = [(dfs, 0.975), (dfs, 0.995)]
    sparse = np.array([1, 2, 3, 5, 8, 13, 30, 100, 250, 1000])
    for p in (1e-9, 0.01, 0.2, 0.45, 0.55, 0.9, 0.999, 1 - 1e-9):
        checks.append((sparse, p))
    for df_grid, p in checks:
        expected = sps.t.ppf(p, df_grid)
        got = np.array([student_t_ppf(p, int(df)) for df in df_grid])
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0)


@pytest.fixture(scope="module")
def modules_after_importing_experiments() -> set[str]:
    """``sys.modules`` of a fresh interpreter after ``import repro.experiments``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.experiments; print('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.split())


@pytest.mark.parametrize("module", [
    "scipy",
    "networkx",
    "repro.fleet.coordinator",
    "repro.fleet.observer",
    "repro.obs.report",
    "repro.obs.spans",
    "repro.obs.recorder",
])
def test_importing_experiments_does_not_load(module, modules_after_importing_experiments):
    assert "repro.experiments" in modules_after_importing_experiments
    assert module not in modules_after_importing_experiments
