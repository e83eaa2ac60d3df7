"""Metrics and statistical tests for method comparison.

Hit@k / mean reciprocal rank over per-scenario ranks, percentile bootstrap
95% confidence intervals, McNemar's paired test with continuity correction,
and Cohen's h effect size for proportions.

numpy is imported by ``bootstrap_ci`` only, whose pinned seed stream needs
it, so commands that never bootstrap (``analyze``, ``learn-weights``) never
load it.

The bootstrap draws its resample indices as ``B`` successive
``rng.integers(0, n, size=n)`` calls from ``numpy.random.default_rng(seed)``;
this seed-stream contract is fixed so an independent resampler can reproduce
the interval exactly. The contract holds per row of outcomes, and one call
shares the stream among all its rows: every row is resampled with the same
indices (the paired bootstrap), so each interval equals the one a call with
that row alone returns. The draws are taken ``_BOOTSTRAP_CHUNK`` resamples
at a time with ``size=(resamples, n)``, which yields the same stream.
Percentiles use linear interpolation between order statistics: position
``q * (B - 1)``, value ``lo + (hi - lo) * frac``. Every interval is a 95%
one (``BOOTSTRAP_CONFIDENCE``), from the 2.5th to the 97.5th percentile.
"""

from __future__ import annotations

import math

from .errors import DegenerateTable, EmptyBenchmark

BOOTSTRAP_DEFAULT_B = 10_000
BOOTSTRAP_DEFAULT_SEED = 12345
BOOTSTRAP_CONFIDENCE = 0.95
# Resamples drawn at a time: chunk x n int64 indices, plus chunk x n values
# gathered per row of outcomes. At n = 550 (2-core x86_64, six fresh
# processes each, median peak RSS) `evaluate --check` read 42.70, 42.85 and
# 43.05 MB at 16, 32 and 64, against 42.79 MB for one call per method at 16;
# `evaluate --methods tracefault --ablations --sweep` read 42.63, 42.76 and
# 42.85 MB, against 42.60 MB. 32 and 64 cut the four-row draw from about 97
# to 88 and 86 ms, too little for the added memory.
_BOOTSTRAP_CHUNK = 16


def hit_at_k(ranks, k: int) -> float:
    """Fraction of scenarios whose true root cause ranks in the top k."""
    ranks = list(ranks)
    if not ranks:
        raise EmptyBenchmark("hit_at_k over zero scenarios")
    return sum(1 for r in ranks if r is not None and r <= k) / len(ranks)


def mrr(ranks) -> float:
    """Mean reciprocal rank; an absent rank contributes zero."""
    ranks = list(ranks)
    if not ranks:
        raise EmptyBenchmark("mrr over zero scenarios")
    return sum((1.0 / r) if r is not None else 0.0 for r in ranks) / len(ranks)


def percentile(sorted_values, q: float) -> float:
    """Linear-interpolation percentile of pre-sorted values, q in [0, 1]."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile q must lie in [0, 1], got {q}")
    n = len(sorted_values)
    if n == 0:
        raise EmptyBenchmark("percentile of empty sample")
    if n == 1:
        return float(sorted_values[0])
    pos = q * (n - 1)
    lo_idx = int(math.floor(pos))
    hi_idx = min(lo_idx + 1, n - 1)
    frac = pos - lo_idx
    lo, hi = float(sorted_values[lo_idx]), float(sorted_values[hi_idx])
    return lo + (hi - lo) * frac


def bootstrap_ci(
    rows,
    b: int = BOOTSTRAP_DEFAULT_B,
    seed: int = BOOTSTRAP_DEFAULT_SEED,
) -> list[tuple[float, float]]:
    """Percentile bootstrap ``BOOTSTRAP_CONFIDENCE`` interval for the mean
    of each row of outcomes.

    Every row is resampled with the same indices, so each interval equals the
    one a call with that row alone returns. Zero rows give no intervals.
    """
    if b < 1:
        raise ValueError(f"bootstrap iterations must be >= 1, got {b}")
    import numpy as np

    values = [np.asarray(list(row), dtype=np.float64) for row in rows]
    if not values:
        return []
    n = values[0].size
    if any(v.size != n for v in values):
        raise ValueError(f"bootstrap rows differ in length: {[v.size for v in values]}")
    if n == 0:
        raise EmptyBenchmark("bootstrap over zero outcomes")
    rng = np.random.default_rng(seed)
    means = np.empty((len(values), b), dtype=np.float64)
    for start in range(0, b, _BOOTSTRAP_CHUNK):
        stop = min(start + _BOOTSTRAP_CHUNK, b)
        idx = rng.integers(0, n, size=(stop - start, n))
        for row_means, v in zip(means, values):
            row_means[start:stop] = v[idx].sum(axis=1) / n
    means.sort(axis=1)
    alpha = 1.0 - BOOTSTRAP_CONFIDENCE
    return [(percentile(m, alpha / 2.0), percentile(m, 1.0 - alpha / 2.0)) for m in means]


def mcnemar(n01: int, n10: int) -> tuple[float, float]:
    """Continuity-corrected McNemar statistic and p-value (chi^2, 1 dof).

    ``n01``/``n10`` are the discordant counts (method A right and B wrong,
    and vice versa). The correction is applied verbatim, so ``n01 == n10``
    yields ``(|0| - 1)^2 / (n01 + n10)`` rather than zero.
    """
    if n01 < 0 or n10 < 0:
        raise ValueError("discordant counts must be non-negative")
    total = n01 + n10
    if total == 0:
        raise DegenerateTable("no discordant pairs: methods agree everywhere")
    statistic = (abs(n01 - n10) - 1) ** 2 / total
    return statistic, chi2_sf_1dof(statistic)


def chi2_sf_1dof(x: float) -> float:
    """Survival function of the chi-squared distribution with one dof.

    For one degree of freedom ``P(X > x) = erfc(sqrt(x / 2))``; the libm
    ``erfc`` is a rational/continued-fraction implementation with relative
    error far below the 1e-10 the reports need. Values that underflow the
    double range are reported as zero and rendered as ``"< 1e-300"``.
    """
    if x < 0:
        raise ValueError(f"chi-squared statistic must be >= 0, got {x}")
    return math.erfc(math.sqrt(x / 2.0))


def format_p_value(p: float) -> str:
    if p < 1e-300:
        return "< 1e-300"
    return f"{p:.6g}"


def cohens_h(p1: float, p2: float) -> float:
    """Effect size for two proportions: 2*asin(sqrt(p1)) - 2*asin(sqrt(p2))."""
    for name, p in (("p1", p1), ("p2", p2)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    return 2.0 * math.asin(math.sqrt(p1)) - 2.0 * math.asin(math.sqrt(p2))
