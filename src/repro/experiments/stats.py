"""Multi-seed replication: means and confidence intervals.

Single-seed comparisons can mislead — a lucky hash layout flatters
ECMP, an unlucky burst penalises LetFlow.  This module replicates a
scenario across seeds and reports per-metric means with Student-t
confidence intervals, plus a paired comparison helper (same seeds, two
schemes) whose interval is over the per-seed differences — much tighter
than comparing two independent means, because the workload is identical
per seed by construction.

The Student-t quantile behind the intervals is computed here with the
standard library (:func:`student_t_ppf`) rather than imported from SciPy,
which would cost every process that imports :mod:`repro.experiments`
about a second and 60 MB for a single call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.experiments.common import ScenarioConfig
from repro.experiments.runner import run_many
from repro.metrics.collector import RunMetrics

__all__ = ["MetricCI", "replicate", "paired_comparison", "student_t_ppf",
           "DEFAULT_METRICS"]

#: metric name -> extractor over RunMetrics
DEFAULT_METRICS: dict[str, Callable[[RunMetrics], float]] = {
    "short_afct": lambda m: m.short_fct.mean,
    "short_p99": lambda m: m.short_fct.p99,
    "deadline_miss": lambda m: m.deadline_miss,
    "long_goodput_bps": lambda m: m.long_goodput_bps,
    "short_dup_ratio": lambda m: m.short_reordering.dup_ack_ratio,
}


# -- Student-t quantile ----------------------------------------------------

_TINY = 1e-300
_EPS = 1e-16
#: relative Newton step (a few ulps) at which the quantile has converged
_XTOL = 1e-15


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified
    Lentz), converging fast for ``x < (a + 1) / (a + b + 2)``."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + aa / c
            c = c if abs(c) > _TINY else _TINY
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def _beta_inc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)``; ``y`` is ``1 - x``,
    passed separately so neither end loses digits to cancellation."""
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b


def _t_sf(t: float, df: float) -> float:
    """Upper-tail probability ``P(T > t)`` for ``t >= 0``."""
    tt = t * t
    return 0.5 * _beta_inc(0.5 * df, 0.5, df / (df + tt), tt / (df + tt))


def student_t_ppf(p: float, df: float) -> float:
    """Quantile of Student's t distribution with ``df`` degrees of freedom.

    The inverse of the CDF at lower-tail probability ``p`` in (0, 1), for
    any ``df > 0``.  The upper tail ``P(T > t) = I_x(df/2, 1/2) / 2`` with
    ``x = df / (df + t^2)`` is evaluated through the regularized
    incomplete beta function, and Newton's method on ``t`` — started from
    the Cornish-Fisher expansion around the normal quantile and guarded
    by bisection — solves it for the tail mass ``min(p, 1 - p)``.  For
    ``df`` up to 1000 the result agrees with tabulated values and with
    ``scipy.stats.t.ppf`` to a relative 1e-9 or better; far beyond that
    the ``lgamma`` differences lose digits (1.4e-9 at ``df = 1e6``).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p!r}")
    if not df > 0:
        raise ValueError(f"df must be positive, got {df!r}")
    if p == 0.5:
        return 0.0
    q = p if p < 0.5 else 1.0 - p  # tail mass beyond |t|
    z = -NormalDist().inv_cdf(q)
    t = z + (z ** 3 + z) / (4 * df) + (5 * z ** 5 + 16 * z ** 3 + 3 * z) / (96 * df * df)
    log_norm = (math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df)
                - 0.5 * math.log(df * math.pi))
    lo, hi = 0.0, math.inf  # _t_sf(lo) > q >= _t_sf(hi)
    for _ in range(2000):
        f = _t_sf(t, df) - q
        if f > 0.0:
            lo = t
        else:
            hi = t
        if f == 0.0 or hi - lo <= _XTOL * t:
            break
        pdf = math.exp(log_norm - 0.5 * (df + 1) * math.log1p(t * t / df))
        nxt = t + f / pdf if pdf > 0.0 else math.inf
        if not lo < nxt < hi:
            # Newton left the bracket: bisect, or grow an open bracket.
            nxt = 0.5 * (lo + hi) if hi < math.inf else 2.0 * max(t, 1.0)
        if abs(nxt - t) <= _XTOL * nxt:
            t = nxt
            break
        t = nxt
    return t if p > 0.5 else -t


@dataclass(frozen=True)
class MetricCI:
    """Mean with a two-sided Student-t confidence interval."""

    name: str
    n: int
    mean: float
    ci_low: float
    ci_high: float

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}: {self.mean:.6g} ± {self.half_width:.2g} (n={self.n})"


def _ci(name: str, samples: np.ndarray, confidence: float) -> MetricCI:
    samples = samples[np.isfinite(samples)]
    n = samples.size
    if n == 0:
        nan = float("nan")
        return MetricCI(name, 0, nan, nan, nan)
    mean = float(samples.mean())
    if n == 1:
        return MetricCI(name, 1, mean, mean, mean)
    sem = float(samples.std(ddof=1)) / np.sqrt(n)
    t = student_t_ppf((1 + confidence) / 2.0, n - 1)
    return MetricCI(name, n, mean, mean - t * sem, mean + t * sem)


def replicate(
    config: ScenarioConfig,
    seeds: Sequence[int],
    *,
    metrics: Optional[dict[str, Callable[[RunMetrics], float]]] = None,
    confidence: float = 0.95,
    processes: Optional[int] = None,
    cache=None,
) -> dict[str, MetricCI]:
    """Run ``config`` once per seed; CI per metric."""
    if not seeds:
        raise ConfigError("need at least one seed")
    if not 0 < confidence < 1:
        raise ConfigError("confidence must be in (0, 1)")
    metrics = metrics if metrics is not None else DEFAULT_METRICS
    runs = run_many([config.with_(seed=s) for s in seeds],
                    processes=processes, cache=cache)
    out: dict[str, MetricCI] = {}
    for name, extract in metrics.items():
        samples = np.asarray([extract(m) for m in runs], dtype=float)
        out[name] = _ci(name, samples, confidence)
    return out


def paired_comparison(
    config: ScenarioConfig,
    scheme_a: str,
    scheme_b: str,
    seeds: Sequence[int],
    *,
    metric: Callable[[RunMetrics], float] = DEFAULT_METRICS["short_afct"],
    confidence: float = 0.95,
    processes: Optional[int] = None,
    cache=None,
) -> MetricCI:
    """CI on the per-seed difference ``metric(A) − metric(B)``.

    Negative means scheme A is smaller (better, for FCT-like metrics).
    The pairing works because same-seed runs share the exact workload.
    """
    if not seeds:
        raise ConfigError("need at least one seed")
    configs = []
    for s in seeds:
        configs.append(config.with_(scheme=scheme_a, seed=s))
        configs.append(config.with_(scheme=scheme_b, seed=s))
    runs = run_many(configs, processes=processes, cache=cache)
    diffs = np.asarray([
        metric(runs[2 * i]) - metric(runs[2 * i + 1])
        for i in range(len(seeds))
    ], dtype=float)
    return _ci(f"{scheme_a}-minus-{scheme_b}", diffs, confidence)
