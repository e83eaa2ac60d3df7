"""Metrics and statistical tests against independent oracles."""

import math

import numpy as np
import pytest
from scipy.stats import chi2 as scipy_chi2

from tracefault.errors import DegenerateTable, EmptyBenchmark
from tracefault.stats import (
    bootstrap_ci,
    chi2_sf_1dof,
    cohens_h,
    format_p_value,
    hit_at_k,
    mcnemar,
    mrr,
    percentile,
)


def test_hit_and_mrr_hand_values():
    ranks = [1, 2, 4]
    assert hit_at_k(ranks, 1) == pytest.approx(1 / 3)
    assert hit_at_k(ranks, 3) == pytest.approx(2 / 3)
    assert mrr(ranks) == pytest.approx((1 + 0.5 + 0.25) / 3)


def test_all_rank_one():
    ranks = [1] * 7
    for k in (1, 3, 5):
        assert hit_at_k(ranks, k) == 1.0
    assert mrr(ranks) == 1.0


def test_absent_rank_counts_as_miss():
    assert hit_at_k([1, None], 1) == 0.5
    assert mrr([1, None]) == 0.5


def test_empty_inputs_rejected():
    with pytest.raises(EmptyBenchmark):
        hit_at_k([], 1)
    with pytest.raises(EmptyBenchmark):
        mrr([])
    with pytest.raises(EmptyBenchmark):
        bootstrap_ci([[]])
    with pytest.raises(EmptyBenchmark):
        bootstrap_ci([[], []])


def test_bootstrap_of_zero_rows_is_empty():
    assert bootstrap_ci([]) == []


def oracle_bootstrap(values, b, confidence, seed):
    """Independent brute-force percentile bootstrap on the same seed stream."""
    rng = np.random.default_rng(seed)
    n = len(values)
    means = []
    for _ in range(b):
        idx = rng.integers(0, n, size=n)
        means.append(sum(values[i] for i in idx) / n)
    means.sort()

    def pick(q):
        pos = q * (len(means) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(means) - 1)
        frac = pos - lo
        return means[lo] + (means[hi] - means[lo]) * frac

    alpha = 1.0 - confidence
    return pick(alpha / 2.0), pick(1.0 - alpha / 2.0)


@pytest.mark.parametrize(
    "values", [[1, 1, 0, 1], [0, 1], [1, 0, 0, 0, 1, 1, 1, 0, 1, 0], [0.25, 0.5, 1.0]]
)
def test_bootstrap_matches_independent_resampler_exactly(values):
    ours = bootstrap_ci([values], b=10_000, confidence=0.95, seed=12345)
    theirs = oracle_bootstrap(values, b=10_000, confidence=0.95, seed=12345)
    assert ours == [theirs]  # exact float equality: shared seed stream contract


# Rows of one call share n; the dyadic fractions sum exactly in any order, so
# numpy's pairwise sums equal the oracle's left-to-right ones.
SHARED_ROWS = {
    1: [[0], [1], [0.75]],
    8: [
        [0] * 8,
        [1] * 8,
        [1, 0, 1, 1, 0, 1, 1, 1],
        [0.5, 0.25, 0.125, 1.0, 0.0, 0.75, 0.375, 0.0625],
    ],
}


@pytest.mark.parametrize("b", [1, 37, 10_001])
@pytest.mark.parametrize("n", sorted(SHARED_ROWS))
def test_every_row_of_one_call_matches_the_resampler_alone(n, b):
    rows = SHARED_ROWS[n]
    ours = bootstrap_ci(rows, b=b, confidence=0.9, seed=2024)
    assert ours == [oracle_bootstrap(row, b=b, confidence=0.9, seed=2024) for row in rows]


def test_rows_of_one_call_equal_their_single_row_calls():
    # Arbitrary floats: the sums round, and each row must still get the
    # reduction a call with that row alone makes.
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(3, 41)).tolist()
    assert bootstrap_ci(rows, b=99) == [bootstrap_ci([row], b=99)[0] for row in rows]


def test_bootstrap_degenerate_all_ones():
    assert bootstrap_ci([[1, 1, 1, 1]], b=500) == [(1.0, 1.0)]


def test_bootstrap_rejects_ragged_rows_and_bad_parameters():
    with pytest.raises(ValueError, match="differ in length"):
        bootstrap_ci([[1, 0], [1]])
    with pytest.raises(ValueError, match="iterations"):
        bootstrap_ci([[1, 0]], b=0)
    for confidence in (0.0, 1.0, -0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match="confidence"):
            bootstrap_ci([[1, 0]], b=10, confidence=confidence)


def test_bootstrap_interval_width_near_reference():
    # Bernoulli(0.949) sample of 550: the 95% interval should be ~3.6pp wide.
    rng = np.random.default_rng(99)
    outcomes = (rng.random(550) < 0.949).astype(int).tolist()
    [(lo, hi)] = bootstrap_ci([outcomes], b=10_000)
    width = hi - lo
    assert 0.026 <= width <= 0.046


def test_percentile_linear_interpolation():
    values = [0.0, 1.0, 2.0, 3.0]
    assert percentile(values, 0.5) == pytest.approx(1.5)
    assert percentile(values, 0.0) == 0.0
    assert percentile(values, 1.0) == 3.0
    assert percentile([7.0], 0.4) == 7.0


@pytest.mark.parametrize("q", [-0.1, 1.1, math.nan])
def test_percentile_rejects_q_outside_unit_interval(q):
    with pytest.raises(ValueError, match="percentile q"):
        percentile([0.0, 1.0, 2.0, 3.0], q)


def test_mcnemar_hand_values():
    chi, _ = mcnemar(10, 0)
    assert chi == pytest.approx(8.1, abs=1e-10)
    chi, _ = mcnemar(5, 5)
    assert chi == pytest.approx(0.1, abs=1e-10)  # correction applied verbatim
    chi, p = mcnemar(1, 0)
    assert chi == 0.0
    assert p == pytest.approx(1.0)


def test_mcnemar_symmetry():
    for a, b in ((4, 9), (12, 3), (100, 1)):
        assert mcnemar(a, b)[0] == mcnemar(b, a)[0]


def test_mcnemar_degenerate():
    with pytest.raises(DegenerateTable):
        mcnemar(0, 0)
    with pytest.raises(ValueError):
        mcnemar(-1, 2)


@pytest.mark.parametrize("x", [0.1, 1.0, 3.84, 8.1, 25.0, 100.0, 459.2])
def test_chi2_sf_matches_scipy(x):
    assert chi2_sf_1dof(x) == pytest.approx(float(scipy_chi2.sf(x, 1)), abs=1e-10)


def test_p_value_formatting():
    assert format_p_value(1e-310) == "< 1e-300"
    assert format_p_value(0.0) == "< 1e-300"
    assert "e-12" in format_p_value(4.2e-12)


def test_cohens_h_identities():
    assert cohens_h(0.3, 0.3) == 0.0
    assert cohens_h(1.0, 0.0) == pytest.approx(math.pi)
    assert cohens_h(0.2, 0.6) == pytest.approx(-cohens_h(0.6, 0.2))


def test_cohens_h_reference_proportions():
    # Direct arcsine evaluation gives ~0.736, not the rounded 0.77 sometimes
    # quoted for these proportions; we assert the formula value.
    value = cohens_h(0.949, 0.685)
    assert value == pytest.approx(0.736193694488936, abs=1e-10)
    assert value == pytest.approx(0.74, abs=0.005)
    with pytest.raises(ValueError):
        cohens_h(1.2, 0.5)

