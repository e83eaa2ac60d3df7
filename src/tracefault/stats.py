"""Metrics and statistical tests for method comparison.

Hit@k / mean reciprocal rank over per-scenario ranks, exact bootstrap 95%
confidence intervals for Hit@1, McNemar's paired test with continuity
correction, and Cohen's h effect size for proportions. Nothing here needs a
third-party package.

The Hit@1 interval is the ideal bootstrap, the limit of the percentile
bootstrap as the number of resamples grows without bound (Efron &
Tibshirani 1993). A resample of n outcomes of which h are hits holds
exactly Binomial(n, h/n) hits, so no random draw is needed: the interval
runs from the 2.5th to the 97.5th percentile of that binomial's mean,
``min{k : P(X <= k) >= q} / n`` for q = 1/40 and 39/40. It is a pure
function of (h, n), the same for any order of the outcomes, and anyone can
recompute it exactly with integer counts of the n**n resamples. It always
contains h/n, because the median of this binomial is its integer mean h.
The probabilities are built from IEEE multiplications, divisions and sums
alone, with no libm call, so every platform gives the same bits.
"""

from __future__ import annotations

import math

from .errors import DegenerateTable, EmptyBenchmark

# Each tail of the 95% interval holds 1/40 of the resamples.
_TAIL_SHARE = 40


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
    # fsum rounds once, so the value does not depend on the order of the ranks.
    return math.fsum((1.0 / r) if r is not None else 0.0 for r in ranks) / len(ranks)


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


def bootstrap_ci(rows) -> list[tuple[float, float]]:
    """Ideal-bootstrap 95% interval for the hit rate of each row of 0/1
    outcomes.

    Each interval depends on its row's hit count and length alone. Zero
    rows give no intervals; rows of another length than the first, or
    holding a value other than 0 or 1, raise ``ValueError``.
    """
    rows = [list(row) for row in rows]
    if not rows:
        return []
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError(f"bootstrap rows differ in length: {[len(row) for row in rows]}")
    if n == 0:
        raise EmptyBenchmark("bootstrap over zero outcomes")
    intervals = []
    for row in rows:
        h = row.count(1)
        if h + row.count(0) != n:
            raise ValueError("bootstrap rows must hold only 0/1 outcomes")
        lo, hi = _binomial_tail_counts(h, n)
        intervals.append((lo / n, hi / n))
    return intervals


def _binomial_tail_counts(h: int, n: int) -> tuple[int, int]:
    """Least k with P(X <= k) >= 1/40, and least k with P(X <= k) >= 39/40,
    for X ~ Binomial(n, h/n).

    The probabilities are kept relative to the mode, w_h = 1, and filled in
    by the ratio w_{k+1} / w_k = (n - k) h / ((k + 1) (n - h)) in both
    directions until they underflow. Each end is found from the tail it
    bounds, summed from its far end, smallest weights first: lo where the
    lower tail reaches 1/40 of the total, hi where the upper tail above it
    stays within 1/40.
    """
    up: list[float] = []
    w, k = 1.0, h
    while k < n:
        w *= (n - k) * h / ((k + 1) * (n - h))
        if w == 0.0:
            break
        up.append(w)
        k += 1
    down: list[float] = []
    w, k = 1.0, h
    while k > 0:
        w *= k * (n - h) / ((n - k + 1) * h)
        if w == 0.0:
            break
        down.append(w)
        k -= 1
    weights = down[::-1] + [1.0] + up
    first = h - len(down)
    tail = math.fsum(weights) / _TAIL_SHARE
    lo, below = first, weights[0]
    while below < tail:
        lo += 1
        below += weights[lo - first]
    hi, above = first + len(weights) - 1, 0.0
    while above + weights[hi - first] <= tail:
        above += weights[hi - first]
        hi -= 1
    return lo, hi


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
