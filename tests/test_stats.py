"""Tests for the confidence-interval and entropy helpers."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy import special

from decoyqkd import stats
from decoyqkd.stats import (
    _bisect_to,
    binary_entropy,
    binomial_interval,
    binomial_lower,
    binomial_upper,
    poisson_tail,
    poisson_weights,
)

# Reference values computed with an independent arbitrary-precision
# implementation (regularized incomplete beta via mpmath) and frozen here.
FROZEN_INTERVALS = [
    (2, 10, 0.05, 0.03677143788746509, 0.5069013010632024),
    (0, 10, 0.05, 0.0, 0.2588655508930523),
    (10, 10, 0.05, 0.7411344491069476, 1.0),
    (7, 19, 1e-3, 0.09146497534286706, 0.7308696250022483),
    (500, 40000, 1e-7, 0.009820175238933943, 0.015629713706629373),
    (81, 341, 1e-7, 0.13231641524282514, 0.370755766118211),
    (80776, 1.67e10, 1e-7, 4.748919823745473e-06, 4.9259522902951e-06),
]


@pytest.mark.parametrize("k, n, eps, lo, hi", FROZEN_INTERVALS)
def test_frozen_interval_values(k, n, eps, lo, hi):
    assert binomial_lower(k, n, eps) == pytest.approx(lo, rel=1e-9, abs=1e-15)
    assert binomial_upper(k, n, eps) == pytest.approx(hi, rel=1e-9)


@pytest.mark.parametrize("k, n, eps", [(k, n, eps) for k, n, eps, _, _ in FROZEN_INTERVALS
                                         if 0 < k < n])
def test_bisection_fallback_matches_quantile(monkeypatch, k, n, eps):
    # A quantile that fails its check (here: always NaN) is re-inverted by
    # bisection on the forward function, on both sides of the mean.
    expected = binomial_interval(k, n, eps)
    monkeypatch.setattr(stats.special, "betaincinv", lambda *args: math.nan)
    lo, hi = binomial_interval(k, n, eps)
    assert lo == pytest.approx(expected[0], rel=1e-9, abs=1e-15)
    assert hi == pytest.approx(expected[1], rel=1e-9)


@pytest.mark.parametrize("k, n", [(999.5, 1000), (23_999_999_999, 24e9)])
def test_upper_bound_next_to_n_rounds_to_one(monkeypatch, k, n):
    # The bound lies within one ulp of 1, so the quantile's check fails and
    # the bisection settles on 1.0: the tail P[X <= k] is 0 there and
    # above epsilon one double below, so 1.0 is the tightest valid double.
    eps = 1e-7
    bisected = []
    bisect_to = stats._bisect_to

    def recorded(*args):
        bisected.append(bisect_to(*args))
        return bisected[-1]

    monkeypatch.setattr(stats, "_bisect_to", recorded)
    assert binomial_upper(k, n, eps) == 1.0
    assert bisected == [1.0]
    with mpmath.workdps(50):
        def tail(p):
            return 1 - mpmath.betainc(k + 1, n - k, 0, p, regularized=True)
        assert tail(1) <= eps
        assert tail(math.nextafter(1.0, 0.0)) > eps


# The two per-side inversions that ``stats._quantile`` replaced, kept verbatim
# (less their docstrings) as the reference: the shared path must give every
# bound bit for bit.
def _reference_lower(k, n, epsilon):
    stats._check_count_args(k, n, epsilon)
    if k <= 0.0:
        return 0.0
    if k >= n:
        # P[X >= n] = p^n  =>  p = epsilon ** (1/n)
        return float(epsilon) ** (1.0 / n)
    # P[X >= k] = I_p(k, n - k + 1), increasing in p.
    a, b = k, n - k + 1.0
    x = float(special.betaincinv(a, b, epsilon))
    # The quantile routine loses its footing in the extreme-n, tiny-rate
    # corner (it can land above the observed rate), and in the upper
    # bound's k ~ n corner (see there).  The forward function stays
    # accurate, so verify the tail mass and re-invert by bisection below
    # the observed rate when the check fails.
    if not (0.0 <= x <= k / n) or not (
        0.2 * epsilon <= float(special.betainc(a, b, x)) <= 5.0 * epsilon
    ):
        x = _bisect_to(a, b, 0.0, k / n, epsilon)
    return x


def _reference_upper(k, n, epsilon):
    stats._check_count_args(k, n, epsilon)
    if k >= n:
        return 1.0
    if k <= 0.0:
        # P[X <= 0] = (1-p)^n  =>  p = 1 - epsilon ** (1/n), formed by
        # expm1: the plain difference cancels at large n and rounds inward.
        return -math.expm1(math.log(epsilon) / n)
    # P[X <= k] = 1 - I_p(k + 1, n - k), so invert I at 1 - epsilon.
    a, b = k + 1.0, n - k
    x = float(special.betaincinv(a, b, 1.0 - epsilon))
    # Same safeguard as the lower bound, on the other side of the mean.
    # It also fires when k is so close to n that the bound lies within one
    # ulp of 1 (k = 999.5 of 1000 at epsilon 1e-7): the quantile rounds to
    # 1.0, where the tail is 0 and the check fails, and the bisection
    # settles on 1.0, the smallest double with a tail of at most epsilon.
    if not (k / n <= x <= 1.0) or not (
        0.2 * epsilon <= 1.0 - float(special.betainc(a, b, x)) <= 5.0 * epsilon
    ):
        x = _bisect_to(a, b, k / n, 1.0, 1.0 - epsilon)
    return x


def _reference_cases():
    """The two ulp-of-1 corners, then seeded random (k, n, epsilon) with n
    log-uniform in [1, 3e11], epsilon in [1e-12, 0.05] and k at 0, 1, n - 1,
    n - 1/2, n, a random integer and a random real."""
    cases = [(999.5, 1000, 1e-7), (23_999_999_999, 24e9, 1e-7)]
    rng = np.random.default_rng(4003)
    while len(cases) < 4002:
        n = int(round(10.0 ** rng.uniform(0.0, math.log10(3e11))))
        eps = float(10.0 ** rng.uniform(-12.0, math.log10(0.05)))
        ks = (0, 1, n - 1, n - 0.5, n, int(rng.integers(0, n + 1)), float(rng.uniform(0, n)))
        cases += [(k, n, eps) for k in ks]
    return cases


REFERENCE_CASES = _reference_cases()


def _assert_bit_identical(cases):
    for k, n, eps in cases:
        assert binomial_lower(k, n, eps).hex() == _reference_lower(k, n, eps).hex(), (k, n, eps)
        assert binomial_upper(k, n, eps).hex() == _reference_upper(k, n, eps).hex(), (k, n, eps)


def test_one_quantile_path_matches_the_two_it_replaced():
    assert len(REFERENCE_CASES) >= 4000
    _assert_bit_identical(REFERENCE_CASES)


def test_one_bisection_path_matches_the_two_it_replaced(monkeypatch):
    # A NaN quantile fails every check, so both sides bisect.
    monkeypatch.setattr(stats.special, "betaincinv", lambda *args: math.nan)
    _assert_bit_identical(REFERENCE_CASES[:2] + REFERENCE_CASES[2::20])


def test_interval_is_lower_upper_pair():
    for k, n, eps, _, _ in FROZEN_INTERVALS:
        pair = binomial_interval(k, n, eps)
        assert pair == (binomial_lower(k, n, eps), binomial_upper(k, n, eps))


def test_extreme_count_closed_forms():
    # k = 0 and k = n admit closed-form bounds; check against them directly.
    for n in (1, 7, 64, 5000):
        for eps in (0.05, 1e-3, 1e-7):
            assert binomial_lower(0, n, eps) == 0.0
            assert binomial_upper(n, n, eps) == 1.0
            assert binomial_upper(0, n, eps) == pytest.approx(
                1.0 - eps ** (1.0 / n), rel=1e-10
            )
            assert binomial_lower(n, n, eps) == pytest.approx(
                eps ** (1.0 / n), rel=1e-10
            )


@pytest.mark.parametrize("eps", [0.05, 1e-3, 1e-7])
def test_zero_count_upper_bound_is_exact_and_never_inward(eps):
    # 1 - eps**(1/n) cancels at large n; the bound must hold to 1e-12
    # relative across [1, 3e11] and its tail (1 - p)^n must not exceed eps.
    ns = sorted({round(n) for n in np.geomspace(1.0, 3e11, 240)})
    assert len(ns) >= 200
    with mpmath.workdps(50):
        for n in ns:
            p = binomial_upper(0, n, eps)
            exact = 1 - mpmath.mpf(eps) ** (mpmath.mpf(1) / n)
            assert abs(p - exact) <= 1e-12 * exact, n
            assert (1 - mpmath.mpf(p)) ** n <= eps * (1 + mpmath.mpf(1e-12)), n


def _binom_cdf(k: int, n: int, p: float) -> float:
    """P[X <= k] for X ~ Binomial(n, p), summed term by term in log space."""
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 1.0 if k >= n else 0.0
    total = 0.0
    for i in range(int(k) + 1):
        log_term = (
            math.lgamma(n + 1)
            - math.lgamma(i + 1)
            - math.lgamma(n - i + 1)
            + i * math.log(p)
            + (n - i) * math.log1p(-p)
        )
        total += math.exp(log_term)
    return min(total, 1.0)


def _bisect(func, lo: float, hi: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if func(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_bounds_agree_with_direct_tail_inversion():
    # Second, structurally different route: invert the summed binomial CDF
    # by bisection and compare.  Small n keeps the summation exact enough.
    rng = np.random.default_rng(1812)
    for _ in range(40):
        n = int(rng.integers(2, 400))
        k = int(rng.integers(0, n + 1))
        eps = float(10.0 ** rng.uniform(-8, -1))

        lo = binomial_lower(k, n, eps)
        hi = binomial_upper(k, n, eps)

        if k > 0:
            # lower bound: P[X >= k] = eps, i.e. P[X <= k-1] = 1 - eps.
            direct = _bisect(lambda p: _binom_cdf(k - 1, n, p) - (1.0 - eps), 0.0, 1.0)
            assert lo == pytest.approx(direct, rel=1e-7, abs=1e-12)
        else:
            assert lo == 0.0
        if k < n:
            # upper bound: P[X <= k] = eps.
            direct = _bisect(lambda p: _binom_cdf(k, n, p) - eps, 0.0, 1.0)
            assert hi == pytest.approx(direct, rel=1e-7, abs=1e-12)
        else:
            assert hi == 1.0


def test_interval_brackets_point_estimate():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 10**6))
        k = int(rng.integers(0, n + 1))
        eps = float(10.0 ** rng.uniform(-9, -1))
        lo, hi = binomial_interval(k, n, eps)
        assert 0.0 <= lo <= k / n <= hi <= 1.0


def test_interval_widens_as_epsilon_shrinks():
    for k, n in [(3, 40), (120, 900), (4000, 2_000_000)]:
        epsilons = [0.1, 1e-2, 1e-4, 1e-7, 1e-10]
        lowers = [binomial_lower(k, n, e) for e in epsilons]
        uppers = [binomial_upper(k, n, e) for e in epsilons]
        assert lowers == sorted(lowers, reverse=True)
        assert uppers == sorted(uppers)


def test_fractional_counts_interpolate():
    # The beta-function form extends smoothly to non-integer counts.
    lo_mid = binomial_lower(7.5, 19, 1e-3)
    hi_mid = binomial_upper(7.5, 19, 1e-3)
    assert binomial_lower(7, 19, 1e-3) < lo_mid < binomial_lower(8, 19, 1e-3)
    assert binomial_upper(7, 19, 1e-3) < hi_mid < binomial_upper(8, 19, 1e-3)


def test_large_n_small_rate_corner():
    # Huge-n, tiny-rate corner that is numerically hostile; values frozen
    # from the arbitrary-precision route.
    lo, hi = binomial_interval(2214, 17_494_100_094, 1e-7)
    assert lo == pytest.approx(1.130650e-07, rel=1e-5)
    assert hi == pytest.approx(1.411012e-07, rel=1e-5)
    assert lo < 2214 / 17_494_100_094 < hi


def test_input_validation():
    with pytest.raises(ValueError):
        binomial_lower(-1, 10, 0.05)
    with pytest.raises(ValueError):
        binomial_upper(11, 10, 0.05)
    with pytest.raises(ValueError):
        binomial_lower(2, 10, 0.0)
    with pytest.raises(ValueError):
        binomial_upper(2, 10, 0.5)
    with pytest.raises(ValueError):
        binomial_lower(3, float("inf"), 1e-7)
    with pytest.raises(ValueError):
        binomial_upper(float("nan"), 10, 0.05)


class TestBinaryEntropy:
    def test_frozen_values(self):
        assert binary_entropy(0.11) == pytest.approx(
            0.49991595816452799594, rel=1e-12
        )
        assert binary_entropy(0.494) == pytest.approx(
            0.99989612346393541564, rel=1e-12
        )
        assert binary_entropy(0.03) == pytest.approx(
            0.19439185783157619802, rel=1e-12
        )

    def test_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(404)
        for p in rng.random(50):
            assert binary_entropy(p) == pytest.approx(
                binary_entropy(1.0 - p), rel=1e-12, abs=1e-15
            )

    def test_concave_shape(self):
        # strictly increasing on [0, 1/2]
        grid = [0.0, 0.01, 0.1, 0.25, 0.4, 0.5]
        values = [binary_entropy(p) for p in grid]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestPoissonWeights:
    def test_matches_formula(self):
        for mu in (0.002678, 0.13, 0.48, 0.7):
            weights = poisson_weights(mu, 6)
            assert len(weights) == 7
            for n, w in enumerate(weights):
                expected = math.exp(-mu) * mu**n / math.factorial(n)
                assert w == pytest.approx(expected, rel=1e-12)

    def test_weights_and_tail_partition_unity(self):
        for mu, cutoff in [(0.1, 2), (0.48, 4), (0.9, 10)]:
            weights = poisson_weights(mu, cutoff)
            tail = poisson_tail(mu, cutoff)
            assert tail >= 0.0
            assert sum(weights) + tail == pytest.approx(1.0, rel=1e-12)

    def test_tail_shrinks_with_cutoff(self):
        tails = [poisson_tail(0.48, c) for c in range(8)]
        assert tails == sorted(tails, reverse=True)

    def test_zero_intensity(self):
        assert poisson_weights(0.0, 3) == [1.0, 0.0, 0.0, 0.0]
        assert poisson_tail(0.0, 3) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_weights(-1.0, 3)
        with pytest.raises(ValueError):
            poisson_weights(0.1, -1)
        with pytest.raises(ValueError):
            poisson_tail(-0.5, 2)
