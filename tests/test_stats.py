"""Metrics and statistical tests against independent oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


def exact_interval(h: int, n: int, start: int | None = None) -> tuple[float, float]:
    """The ideal-bootstrap interval from exact integer counts of the n**n
    resamples of h hits in n: C(n, j) h**j (n - h)**(n - j) of them hold j
    hits. Each end is the least j at which the resamples holding at most j
    hits reach 1/40, then 39/40, of all.

    The walk over j begins ``start`` (default: ten standard deviations and
    ten hits) below h. Counts grow up to h, so the resamples holding fewer
    than ``start`` hits number at most ``start`` times the count at
    ``start``; an end that this slack leaves undecided is found again by a
    walk from zero, which has none.
    """
    if h in (0, n):
        return h / n, h / n
    if start is None:
        start = max(0, h - 10 * math.isqrt(h * (n - h) // n) - 10)
    g = math.gcd(h, n)  # every count shares the factor g**n
    hits, misses, total = h // g, (n - h) // g, (n // g) ** n
    term = math.comb(n, start) * hits**start * misses ** (n - start)
    slack = start * term
    upper, j, ends = term + slack, start, []
    for share in (1, 39):
        least = -(-share * total // 40)
        while upper < least:
            term = term * ((n - j) * hits) // ((j + 1) * misses)
            j += 1
            upper += term
        if upper - slack < least:
            return exact_interval(h, n, start=0)
        ends.append(j / n)
    return ends[0], ends[1]


# Every row of n <= 6 outcomes, hits last: n**n resamples at most.
SMALL_ROWS = [[0] * (n - h) + [1] * h for n in range(1, 7) for h in range(n + 1)]


@pytest.mark.parametrize("values", SMALL_ROWS)
def test_bootstrap_matches_independent_resampler_exactly(values):
    # Every one of the n**n resamples, each drawn once: the percentile
    # bootstrap with nothing left to chance. Each end is the least mean that
    # 1/40 (39/40) of the resamples do not exceed.
    n = len(values)
    means = sorted(
        sum(map(values.__getitem__, idx)) / n for idx in itertools.product(range(n), repeat=n)
    )
    lower = means[-(-len(means) // 40) - 1]
    upper = means[-(-39 * len(means) // 40) - 1]
    assert bootstrap_ci([values]) == [(lower, upper)]


@pytest.mark.parametrize("count", [1, 37, 10_001])
@pytest.mark.parametrize("n", [1, 8])
def test_every_row_of_one_call_matches_the_resampler_alone(n, count):
    # One call of ``count`` rows that cycle through all 2**n arrangements of
    # n outcomes: each row gets the exact interval of its own hit count.
    rows = [[(i >> bit) & 1 for bit in range(n)] for i in range(count)]
    assert bootstrap_ci(rows) == [exact_interval(sum(row), n) for row in rows]


@pytest.mark.parametrize(
    "sizes", [range(1, 121), [550], [551], [1000], [2000]], ids=lambda s: f"n{s[0]}-{s[-1]}"
)
def test_bootstrap_matches_exact_integer_counts(sizes):
    for n in sizes:
        for h in range(n + 1):
            assert bootstrap_ci([[1] * h + [0] * (n - h)]) == [exact_interval(h, n)], (h, n)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 20_000).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))))
def test_bootstrap_contains_the_rate_and_is_monotone_in_hits(case):
    n, h = case
    rows = [[1] * h + [0] * (n - h), [1] * (h + 1) + [0] * (n - h - 1)]
    (lo, hi), (next_lo, next_hi) = bootstrap_ci(rows)
    assert 0.0 <= lo <= h / n <= hi <= 1.0
    assert lo <= next_lo and hi <= next_hi


def test_bootstrap_agrees_with_a_monte_carlo_bootstrap():
    # 100,000 resamples of 550 outcomes, drawn as indices as a Monte Carlo
    # bootstrap does; its percentiles may miss the exact ones by one hit.
    n, b = 550, 100_000
    rng = np.random.default_rng(2026)
    for h in (521, 275, 17):
        row = np.zeros(n, dtype=np.int64)
        row[rng.choice(n, size=h, replace=False)] = 1
        chunks = (rng.integers(0, n, size=(5_000, n)) for _ in range(b // 5_000))
        hits = np.concatenate([row[idx].sum(axis=1) for idx in chunks])
        mc = np.quantile(hits, [1 / 40, 39 / 40], method="inverted_cdf")
        [(lo, hi)] = bootstrap_ci([row.tolist()])
        assert abs(mc[0] - round(lo * n)) <= 1 and abs(mc[1] - round(hi * n)) <= 1, h


def test_rows_of_one_call_equal_their_single_row_calls():
    rng = np.random.default_rng(3)
    rows = (rng.random(size=(4, 41)) < [[0.1], [0.5], [0.9], [1.0]]).tolist()
    assert bootstrap_ci(rows) == [bootstrap_ci([row])[0] for row in rows]


def test_bootstrap_degenerate_all_ones():
    assert bootstrap_ci([[1, 1, 1, 1]]) == [(1.0, 1.0)]


def test_bootstrap_rejects_ragged_rows_and_bad_parameters():
    with pytest.raises(ValueError, match="differ in length"):
        bootstrap_ci([[1, 0], [1]])
    for value in (0.5, 2, -1, math.nan, "1", None):
        with pytest.raises(ValueError, match="only 0/1 outcomes"):
            bootstrap_ci([[1, 0], [0, value]])


def test_bootstrap_interval_width_near_reference():
    # Bernoulli(0.949) sample of 550: the 95% interval should be ~3.6pp wide.
    rng = np.random.default_rng(99)
    outcomes = (rng.random(550) < 0.949).astype(int).tolist()
    [(lo, hi)] = bootstrap_ci([outcomes])
    width = hi - lo
    assert 0.026 <= width <= 0.046


def test_percentile_linear_interpolation():
    values = [0.0, 1.0, 2.0, 3.0]
    assert percentile(values, 0.5) == pytest.approx(1.5)
    assert percentile(values, 0.0) == 0.0
    assert percentile(values, 1.0) == 3.0
    assert percentile([7.0], 0.4) == 7.0
    for sample in ([3.0, 1.0], [0.4, 0.1, 0.9, 0.3, 0.7], list(range(20, 0, -1))):
        for q in (0.5, 0.95):
            assert percentile(sorted(sample), q) == pytest.approx(float(np.quantile(sample, q)))


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

