"""Tests for the per-basis secret-length budget and session composition."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import special

from decoyqkd import keyrate
from decoyqkd.core import (
    DEFAULT_PA_EPSILON,
    ConfidenceConfig,
    DecoyScheme,
    InputError,
    SessionTally,
    ValidationError,
)
from decoyqkd.keyrate import (
    KeyBudget,
    compose_session,
    privacy_amplification_factor,
    secret_length,
)
from decoyqkd.sim import expected_tally, reference_model, reference_scheme, simulate_session
from decoyqkd.stats import binary_entropy
from ledger import FROZEN


def _reference_formula(n, y1, mu, b1, ber, z, f_ec, f_pa, f_ds):
    """Independent re-statement of the budget bracket, for cross-checking."""
    bracket = (
        y1 * mu * math.exp(-mu) * (1.0 - f_pa * binary_entropy(b1))
        - f_ec * binary_entropy(ber)
        - (1.0 - binary_entropy(z) / f_ds)
    )
    return max(0, math.floor(n * bracket))


def _full_range_threshold(n1, b1, epsilon):
    """Smallest t with P[Binomial(n1, b1) > t] <= epsilon, by bisecting [-1, n1]."""
    lo, hi = -1, n1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid >= n1 or special.betainc(mid + 1.0, n1 - mid, b1) <= epsilon:
            hi = mid
        else:
            lo = mid
    return hi


def _bisected_factor(n1, b1, epsilon):
    """:func:`privacy_amplification_factor` as computed with t from
    :func:`_full_range_threshold`, for holding the bracketed search to it.

    Returns ``(factor, t)``; the window and its sum are the package's.
    """
    n1 = int(math.floor(n1))
    b1 = min(0.5, max(0.0, b1))
    if b1 == 0.0:
        return 1.0, 0
    t = _full_range_threshold(n1, b1, epsilon)
    r = t / (n1 - t + 1)
    w = _window(t, r)
    ks = np.arange(t - w + 1, t + 1, dtype=float)
    log_binom = (
        special.gammaln(n1 + 1.0)
        - special.gammaln(ks + 1.0)
        - special.gammaln(n1 - ks + 1.0)
    )
    peak = float(np.max(log_binom))
    total = float(np.sum(np.exp(log_binom - peak)))
    if w <= t:
        total += math.exp(float(log_binom[-1]) - peak) * r**w / (1.0 - r)
    log_sum = peak + math.log(total)
    return max(1.0, log_sum / math.log(2.0) / (n1 * binary_entropy(b1))), t


def _full_sum_factor(n1, b1, epsilon):
    """The typical-set factor summed over every k <= t, for cross-checking.

    Returns ``(factor, t, r)`` with r = t / (n1-t+1) the ratio bound that
    decides the summation window of :func:`privacy_amplification_factor`.
    """
    n1 = int(math.floor(n1))
    b1 = min(0.5, max(0.0, b1))
    if b1 == 0.0:
        return 1.0, 0, 0.0
    t = _full_range_threshold(n1, b1, epsilon)
    ks = np.arange(0, t + 1, dtype=float)
    log_binom = (
        special.gammaln(n1 + 1.0)
        - special.gammaln(ks + 1.0)
        - special.gammaln(n1 - ks + 1.0)
    )
    peak = float(np.max(log_binom))
    log_sum = peak + math.log(float(np.sum(np.exp(log_binom - peak))))
    factor = max(1.0, log_sum / math.log(2.0) / (n1 * binary_entropy(b1)))
    return factor, t, t / (n1 - t + 1)


def _window(t, r):
    """Summation window width for ratio bound r (t + 1 means no window)."""
    if 0.0 < r < 1.0:
        return min(t + 1, math.ceil(60 * math.log(2) / -math.log(r)))
    return t + 1


class TestSecretLength:
    # hand-checked against _reference_formula evaluated separately
    FROZEN = [
        ((10000, 0.9, 0.48, 0.04, 0.018, 0.494, 1.07, 1.09, 1.05), 98),
        (
            (
                18852,
                0.85,
                0.599604,
                0.0376,
                0.0175,
                0.4939794709830241,
                1.1314,
                1.090856044019817,
                1.0407,
            ),
            493,
        ),
        ((50000, 0.5, 0.2, 0.10, 0.05, 0.45, 1.2, 1.3, 1.2), 0),
    ]

    @pytest.mark.parametrize("args, expected", FROZEN)
    def test_frozen_cases(self, args, expected):
        assert secret_length(*args) == expected

    def test_matches_reference_formula_on_random_inputs(self):
        rng = np.random.default_rng(7171)
        for _ in range(100):
            args = (
                int(rng.integers(1, 10**6)),
                float(rng.uniform(0.2, 1.5)),
                float(rng.uniform(0.05, 0.9)),
                float(rng.uniform(0.0, 0.45)),
                float(rng.uniform(0.0, 0.2)),
                float(rng.uniform(0.3, 0.5)),
                1.0 + float(rng.uniform(0, 0.4)),
                1.0 + float(rng.uniform(0, 0.4)),
                1.0 + float(rng.uniform(0, 0.4)),
            )
            assert secret_length(*args) == _reference_formula(*args)

    def test_zero_sifted_gives_zero(self):
        assert secret_length(0, 1.0, 0.5, 0.01, 0.01, 0.5, 1.0, 1.0, 1.0) == 0

    def test_hopeless_budget_floors_at_zero(self):
        assert secret_length(100, 0.01, 0.48, 0.4, 0.2, 0.494, 1.5, 1.5, 1.5) == 0

    @pytest.mark.parametrize("position", [6, 7])
    @pytest.mark.parametrize("value, rate", [(1e308, 0.02), (math.inf, 0.02), (math.inf, 0.0)])
    def test_huge_or_infinite_factor_gives_zero(self, position, value, rate):
        # The bracket is -inf, or NaN where an infinite factor meets a zero
        # entropy (error rate or b1 of 0); either way no key is left.
        args = [10000, 0.9, 0.48, rate, rate, 0.494, 1.07, 1.09, 1.05]
        args[position] = value
        assert secret_length(*args) == 0

    def test_rejects_negative_sifted(self):
        with pytest.raises(ValueError):
            secret_length(-1, 1.0, 0.5, 0.01, 0.01, 0.5, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("n_sifted", [-1, True, np.bool_(True), 1.5, "3", math.nan, math.inf],
                             ids=["negative", "bool", "np.bool_", "fraction", "string", "nan", "inf"])
    def test_sifted_count_is_a_non_negative_integer(self, n_sifted):
        with pytest.raises(ValidationError, match="n_sifted"):
            secret_length(n_sifted, 1.0, 0.5, 0.01, 0.01, 0.5, 1.0, 1.0, 1.0)

    def test_numpy_sifted_count_runs(self):
        args = (1.0, 0.5, 0.01, 0.01, 0.5, 1.0, 1.0, 1.0)
        assert secret_length(np.int64(100000), *args) == secret_length(100000, *args)

    @pytest.mark.parametrize("position", [6, 7, 8])
    def test_rejects_subunity_efficiency_factors(self, position):
        name = ("f_ec", "f_pa", "f_ds")[position - 6]
        for value in (0.99, math.nan):
            args = [10000, 0.9, 0.48, 0.04, 0.018, 0.494, 1.07, 1.09, 1.05]
            args[position] = value
            with pytest.raises(ValueError, match=rf"{name} must lie in \[1, inf\]"):
                secret_length(*args)

    @pytest.mark.parametrize("position, name", [(3, "b1_upper"), (4, "bit_error_rate")])
    def test_rejects_nan_rates(self, position, name):
        for n_sifted in (100000, 0):
            args = [n_sifted, 0.5, 0.6, 0.05, 0.02, 0.5, 1.07, 1.1, 1.05]
            args[position] = math.nan
            with pytest.raises(ValueError, match=rf"{name} must lie in \[-inf, inf\], got nan"):
                secret_length(*args)

    @pytest.mark.parametrize(
        "position, name, value",
        [(1, "y1_eff", math.nan), (1, "y1_eff", math.inf), (2, "mu", math.nan),
         (5, "zero_fraction", math.nan)],
    )
    def test_rejects_non_finite_inputs(self, position, name, value):
        args = [10000, 0.9, 0.48, 0.04, 0.018, 0.494, 1.07, 1.09, 1.05]
        args[position] = value
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, "):
            secret_length(*args)

    @pytest.mark.parametrize("args, name", [
        # more certified single-photon bits than sifted bits (297,016,028,066 secret bits)
        ((10**6, 1e6, 0.48, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0), "y1_eff"),
        # a zero fraction past 1 (a bare ValueError from binary_entropy)
        ((10000, 0.9, 0.48, 0.04, 0.018, 1.5, 1.07, 1.09, 1.05), "zero_fraction"),
    ], ids=["y1_eff", "zero_fraction"])
    def test_terms_no_session_can_give_are_refused_by_name(self, args, name, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("binary_entropy ran")

        monkeypatch.setattr(keyrate, "binary_entropy", no_work)
        with pytest.raises(InputError) as info:
            secret_length(*args)
        assert info.value.input_name == name

    def test_single_photon_share_of_one_is_the_most_accepted(self):
        # y1_eff * mu * exp(-mu) = 1: every sifted bit came from a single photon.
        args = [1000, 1.0 / (0.5 * math.exp(-0.5)), 0.5, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0]
        assert args[1] * (0.5 * math.exp(-0.5)) == 1.0
        assert secret_length(*args) == 1000
        args[1] = math.nextafter(args[1], math.inf)
        with pytest.raises(InputError, match=r"^y1_eff \* mu \* exp\(-mu\) must be <= 1, got "):
            secret_length(*args)

    def test_monotone_in_every_budget_term(self):
        # Non-increasing in error rate, flip bound, and all three overhead
        # factors; non-decreasing in the yield coefficient and in the bit
        # entropy of the zero fraction.
        rng = np.random.default_rng(515)
        for _ in range(40):
            base = [
                int(rng.integers(5000, 50000)),
                float(rng.uniform(0.6, 1.4)),
                float(rng.uniform(0.3, 0.7)),
                float(rng.uniform(0.01, 0.08)),
                float(rng.uniform(0.005, 0.04)),
                float(rng.uniform(0.45, 0.5)),
                1.0 + float(rng.uniform(0.0, 0.15)),
                1.0 + float(rng.uniform(0.0, 0.15)),
                1.0 + float(rng.uniform(0.0, 0.15)),
            ]
            here = secret_length(*base)

            def bumped(idx, delta):
                args = list(base)
                args[idx] += delta
                return secret_length(*args)

            assert bumped(1, 0.05) >= here  # y1_eff up -> more key
            assert bumped(3, 0.02) <= here  # b1 up -> less key
            assert bumped(4, 0.02) <= here  # error rate up -> less key
            assert bumped(6, 0.05) <= here  # f_ec up -> less key
            assert bumped(7, 0.05) <= here  # f_pa up -> less key
            assert bumped(8, 0.05) <= here  # f_ds up -> less key
            # zero fraction toward 1/2 raises H2(z) -> more key
            less_biased = list(base)
            less_biased[5] = base[5] + 0.5 * (0.5 - base[5])
            assert secret_length(*less_biased) >= here


def _random_valid_secret_length_args(rng):
    """Arguments ``secret_length`` accepts: about half of them plausible budgets,
    the rest with rates past 1/2 or below 0, empty bases and infinite factors."""
    if rng.random() < 0.5:
        return [
            int(rng.integers(1, 10**6)),
            float(rng.uniform(0.5, 2.7)),  # below e, so y1_eff * mu * exp(-mu) < 1
            float(rng.uniform(0.2, 0.9)),
            float(rng.uniform(0.0, 0.15)),
            float(rng.uniform(0.0, 0.08)),
            float(rng.uniform(0.4, 0.5)),
            *(1.0 + float(rng.uniform(0, 0.3)) for _ in range(3)),
        ]
    rates = (-math.inf, -0.1, 0.0, 0.5, 0.7, 1.0, 3.0, math.inf)
    return [
        0 if rng.random() < 0.2 else int(rng.integers(1, 10**9)),
        float(rng.uniform(0.0, 2.7)),
        float(rng.uniform(0.01, 2.0)),
        *(float(rng.choice(rates)) if rng.random() < 0.5 else float(rng.uniform(-0.2, 1.2))
          for _ in range(2)),
        float(rng.choice((0.0, 1.0))) if rng.random() < 0.1 else float(rng.uniform(0.0, 1.0)),
        *(math.inf if rng.random() < 0.15 else 1.0 + float(rng.exponential(0.3))
          for _ in range(3)),
    ]


class TestKeyLengthCore:
    """``keyrate._key_length``: the key-length formula on terms checked by its callers."""

    def test_equals_public_secret_length_on_random_valid_arguments(self):
        rng = np.random.default_rng(20261020)
        lengths = []
        for _ in range(1500):
            args = _random_valid_secret_length_args(rng)
            lengths.append(secret_length(*args))
            assert keyrate._key_length(*args) == lengths[-1], args
        # Both outcomes are well represented, so the comparison is not all zeros.
        assert sum(n > 0 for n in lengths) > 200
        assert sum(n == 0 for n in lengths) > 300

    @pytest.mark.parametrize("position", [3, 4], ids=["b1_upper", "bit_error_rate"])
    def test_nan_rate_gives_no_key(self, position):
        args = [100000, 0.9, 0.48, 0.04, 0.018, 0.494, 1.07, 1.09, 1.05]
        assert keyrate._key_length(*args) > 0
        args[position] = math.nan
        assert keyrate._key_length(*args) == 0
        args[0] = 0
        assert keyrate._key_length(*args) == 0


class TestPrivacyAmplificationFactor:
    FROZEN = [
        (100, 0.05, 1e-7, 2.4183520350513947),
        (400, 0.03, 1e-7, 2.0669145937479683),
        (1e8, 0.03, 1e-7, 1.0022874485986588),
        (1e8, 0.03, 1e-3, 1.0013593638718405),
        (1e8, 0.03, 0.02, 1.0009031924647358),
        # design-scale points, where the window leaves out most of the terms
        (1_310_625, 0.016, 1e-3, 1.0169493844671613),
        (1_310_625, 0.37, 1e-3, 1.001040136745115),
        (1_747, 0.37, 1e-3, 1.0223796623712265),
    ]

    @pytest.mark.parametrize("n1, b1, eps, expected", FROZEN)
    def test_frozen_values(self, n1, b1, eps, expected):
        assert privacy_amplification_factor(n1, b1, eps) == pytest.approx(
            expected, rel=1e-12
        )

    def _check_against_full_sum(self, n1, b1, eps):
        expected, t, r = _full_sum_factor(n1, b1, eps)
        got = privacy_amplification_factor(n1, b1, eps)
        assert got >= expected, (n1, b1, eps)
        assert got == pytest.approx(expected, rel=1e-12, abs=0), (n1, b1, eps)
        return t, r

    def test_matches_full_sum_on_random_inputs(self):
        rng = np.random.default_rng(2718)
        windowed = 0
        for _ in range(120):
            n1 = float(10.0 ** rng.uniform(0, 7))
            b1 = float(rng.uniform(0.0, 0.5))
            eps = float(10.0 ** rng.uniform(-9, math.log10(0.4)))
            t, r = self._check_against_full_sum(n1, b1, eps)
            windowed += _window(t, r) <= t
        assert windowed >= 60  # most draws drop terms below the window

    @pytest.mark.parametrize("n1, b1, eps, branch", [
        (5000, 0.0, 1e-7, "b1 = 0"),
        (1000, 1e-8, 1e-3, "t = 0"),
        (100, 0.05, 1e-7, "window capped at t + 1"),
        (200, 0.49, 1e-3, "r >= 1"),
        (1_310_625, 0.016, 1e-3, "terms dropped"),
        (1e7, 0.49, 1e-9, "terms dropped"),
    ])
    def test_matches_full_sum_on_each_branch(self, n1, b1, eps, branch):
        t, r = self._check_against_full_sum(n1, b1, eps)
        w = _window(t, r)
        assert {
            "b1 = 0": b1 == 0.0,
            "t = 0": b1 > 0.0 and t == 0,
            "window capped at t + 1": 0.0 < r < 1.0 and w == t + 1,
            "r >= 1": r >= 1.0,
            "terms dropped": w <= t,
        }[branch]

    @staticmethod
    def _first_guess(n1, b1, eps):
        """The normal quantile the package starts its search for t from."""
        n1, b1 = math.floor(n1), min(0.5, b1)
        guess = n1 * b1 - float(special.ndtri(eps)) * math.sqrt(n1 * b1 * (1.0 - b1))
        return min(n1, max(0, math.floor(guess)))

    def test_bracketed_search_equals_full_range_bisection(self):
        # The tail does not increase with t, so the bracket widened from the
        # normal quantile bisects to the t that bisecting all of [-1, n1]
        # finds: the factor is the same to the bit.
        rng = np.random.default_rng(4242)
        below = exact = 0
        for _ in range(2000):
            n1 = float(10.0 ** rng.uniform(0, 12))
            # b1 near 1/2 at large n1 widens the window past memory
            b1 = float(10.0 ** rng.uniform(-9, math.log10(0.49 if n1 > 1e6 else 0.6)))
            eps = float(10.0 ** rng.uniform(-15, math.log10(0.499)))
            expected, t = _bisected_factor(n1, b1, eps)
            assert privacy_amplification_factor(n1, b1, eps) == expected, (n1, b1, eps)
            guess = self._first_guess(n1, b1, eps)
            below += guess < t
            exact += guess == t
        assert below >= 1000 and exact >= 100

    @pytest.mark.parametrize("n1, b1, eps, case", [
        (37, 0.445, 2e-10, "guess above t"),
        (200, 0.01, 1e-3, "guess below t"),
        (1e9, 0.02, 1e-15, "guess below t"),
        (1e12, 0.3, 1e-7, "guess below t"),
        (1000, 1e-8, 1e-3, "t = 0"),
        (3, 0.4, 1e-15, "t = n1"),
        (1, 0.3, 1e-3, "n1 = 1"),
        (40, 0.7, 1e-3, "b1 clamped"),
        (40, 0.5, 1e-9, "b1 clamped"),
        (1e6, 0.03, 0.4999999, "eps near 1/2"),
        (1e12, 0.01, 0.49999, "eps near 1/2"),
        (1e9, 0.02, 1e-15, "eps = 1e-15"),
    ])
    def test_bracketed_search_edge_cases(self, n1, b1, eps, case):
        expected, t = _bisected_factor(n1, b1, eps)
        assert privacy_amplification_factor(n1, b1, eps) == expected
        guess = self._first_guess(n1, b1, eps)
        assert {
            "guess above t": guess > t,
            "guess below t": guess < t,
            "t = 0": t == 0,
            "t = n1": t == n1,
            "n1 = 1": n1 == 1 and t == 1,
            "b1 clamped": b1 >= 0.5,
            "eps near 1/2": eps > 0.4999,
            "eps = 1e-15": eps == 1e-15,
        }[case]

    @pytest.mark.parametrize("n1, b1", [(1e9, 0.4999), (4e10, 0.49998)])
    def test_window_capped_below_half(self, n1, b1):
        # r < 1 but the 2**-60 window would pass 2**16 terms: the tail bound
        # covers the rest, so the factor can only rise, and only a little
        expected, t = _bisected_factor(n1, b1, 1e-7)
        r = t / (n1 - t + 1)
        assert r < 1.0 and _window(t, r) > 2**16
        tracemalloc.start()
        try:
            got = privacy_amplification_factor(n1, b1, 1e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert expected <= got == pytest.approx(expected, rel=1e-9)
        assert peak < 2**22  # a few temporaries of 2**16 doubles

    @pytest.mark.parametrize("n1, b1", [(3e5, 0.5), (1e12, 0.5), (1e12, 0.4999999), (1e13, 0.7)])
    def test_half_error_prices_every_bit(self, n1, b1):
        # r >= 1 and t + 1 > 2**16: the sum is bounded by 2**n1, in bounded memory
        tracemalloc.start()
        try:
            got = privacy_amplification_factor(n1, b1, 1e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == 1.0 / binary_entropy(min(b1, 0.5))
        assert peak < 2**20

    def test_never_below_one(self):
        rng = np.random.default_rng(808)
        for _ in range(60):
            n1 = float(rng.uniform(1, 1e7))
            b1 = float(rng.uniform(0.0, 0.49))
            eps = float(10.0 ** rng.uniform(-9, -1))
            assert privacy_amplification_factor(n1, b1, eps) >= 1.0

    def test_non_increasing_in_block_size(self):
        for b1, eps in [(0.03, 1e-7), (0.05, 1e-3), (0.12, 1e-5)]:
            values = [
                privacy_amplification_factor(n1, b1, eps)
                for n1 in (100, 1000, 10**4, 10**5, 10**6, 10**7)
            ]
            assert values == sorted(values, reverse=True)

    def test_large_block_moderate_error(self):
        assert 1.0 < privacy_amplification_factor(1e7, 0.05, 1e-7) < 1.05

    def test_zero_flip_bound_needs_no_overhead(self):
        assert privacy_amplification_factor(5000, 0.0, 1e-7) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            privacy_amplification_factor(0, 0.03, 1e-7)
        with pytest.raises(ValueError):
            privacy_amplification_factor(100, 0.03, 0.0)
        with pytest.raises(ValueError):
            privacy_amplification_factor(100, 0.03, 0.5)
        with pytest.raises(ValueError, match="epsilon"):
            privacy_amplification_factor(100, 0.03, math.nan)
        with pytest.raises(ValueError, match=r"b1 must lie in \[-inf, inf\], got nan"):
            privacy_amplification_factor(1e5, math.nan, 1e-3)
        for n1 in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"n1 must lie in \[1, inf\)"):
                privacy_amplification_factor(n1, 0.03, 1e-3)

    def test_asymptotic_convergence_at_relaxed_epsilon(self):
        # 1e8 single-photon detections: within 1e-3 of unity.
        assert privacy_amplification_factor(1e8, 0.03, 0.02) <= 1.001

    @pytest.mark.xfail(
        strict=True,
        reason="at the global epsilon 1e-7 the factor is ~1.0023 for n1=1e8,"
        " b=0.03; the 1e-3 convergence window needs a looser tail epsilon",
    )
    def test_asymptotic_convergence_at_global_epsilon(self):
        assert privacy_amplification_factor(1e8, 0.03, 1e-7) <= 1.001

    @pytest.mark.xfail(
        strict=True,
        reason="still ~1.0014 at the default tail epsilon 1e-3",
    )
    def test_asymptotic_convergence_at_default_tail_epsilon(self):
        assert privacy_amplification_factor(1e8, 0.03, 1e-3) <= 1.001


class TestComposeSession:
    def test_reference_operating_point(self, calibration):
        analysis = compose_session(
            calibration.tally,
            calibration.scheme,
            ConfidenceConfig(),
            f_ec=1.07,
            f_ds=1.05,
        )
        assert analysis.feasible
        assert analysis.total_tight == FROZEN["calibrate.total_tight"]
        assert analysis.total_worst == FROZEN["calibrate.total_worst"]
        assert analysis.total_tight > analysis.total_worst
        # recomposition reproduces what the calibration stored
        assert analysis.to_json() == calibration.analysis.to_json()

        bounds = analysis.bounds
        assert bounds.y1_lower == pytest.approx(FROZEN["calibrate.y1_lower"], rel=1e-9)
        for basis in ("X", "Z"):
            assert bounds.b1_tight_by_basis[basis] == pytest.approx(
                FROZEN["calibrate.b1_tight"], rel=1e-9
            )
            assert bounds.b1_worst_by_basis[basis] == pytest.approx(
                FROZEN["calibrate.b1_worst"], rel=1e-9
            )
            assert bounds.b1_tight_by_basis[basis] <= bounds.b1_worst_by_basis[basis]

    @pytest.mark.parametrize("f_ec", [1e308, math.inf])
    def test_unbounded_f_ec_gives_zero_key(self, f_ec):
        tally = expected_tally(reference_model(25.0), reference_scheme(), 20_000_000,
                               sift_ratio=0.5, zero_fraction=0.5)
        analysis = compose_session(tally, reference_scheme(), f_ec=f_ec)
        assert (analysis.total_tight, analysis.total_worst) == (0, 0)

    @pytest.mark.parametrize("pa_epsilon", [-1.0, 0.0, 0.5, 0.7, 5.0])
    def test_pa_epsilon_checked_without_a_key(self, calibration, pa_epsilon):
        # 200 km certifies no single photons, so no factor is computed.
        starved, _ = simulate_session(
            reference_model(200.0), calibration.scheme, 20_000_000, 11
        )
        assert compose_session(starved, calibration.scheme).total_tight == 0
        for tally in (calibration.tally, starved):
            with pytest.raises(ValueError, match=r"pa_epsilon must lie in \(0, 0.5\)"):
                compose_session(tally, calibration.scheme, pa_epsilon=pa_epsilon)

    @pytest.mark.parametrize("name", ["f_ec", "f_ds"])
    @pytest.mark.parametrize("value", [0.5, math.nan])
    def test_efficiency_factors_checked_without_a_key(self, calibration, name, value):
        # 250 km over 2e6 pulses detects nothing, so no budget is computed.
        empty, _ = simulate_session(reference_model(250.0), calibration.scheme, 2_000_000, 3)
        assert compose_session(empty, calibration.scheme).total_tight == 0
        for tally in (calibration.tally, empty):
            with pytest.raises(InputError, match=rf"{name} must lie in \[1, inf\]") as info:
                compose_session(tally, calibration.scheme, **{name: value})
            assert info.value.input_name == name

    def test_budget_internal_consistency(self, calibration):
        analysis = calibration.analysis
        signal_mu = calibration.scheme.mus[calibration.scheme.signal_index]
        for variant, budgets in (
            ("tight", analysis.budgets_tight),
            ("worst_case", analysis.budgets_worst),
        ):
            for basis, budget in budgets.items():
                assert budget.basis == basis
                assert budget.variant == variant
                assert budget.mu == signal_mu
                assert budget.f_ec == 1.07
                assert budget.f_ds == 1.05
                # y1_eff stores n1 per sifted bit divided by the Poisson
                # single-photon weight, so this product closes the loop.
                reconstructed = (
                    budget.y1_eff
                    * budget.mu
                    * math.exp(-budget.mu)
                    * budget.n_sifted
                )
                assert reconstructed == pytest.approx(budget.n1_lower, rel=1e-9)
                assert budget.n_secret == secret_length(
                    budget.n_sifted,
                    budget.y1_eff,
                    budget.mu,
                    budget.b1_upper,
                    budget.bit_error_rate,
                    budget.zero_fraction,
                    budget.f_ec,
                    budget.f_pa,
                    budget.f_ds,
                )

    def test_pooled_amplification_factor(self, calibration):
        # Both bases share one typical-set factor computed from the pooled
        # single-photon count and the worse flip bound.
        analysis = calibration.analysis
        tight = analysis.budgets_tight
        n1_pooled = sum(b.n1_lower for b in tight.values())
        b1_pool = max(b.b1_upper for b in tight.values())
        expected = privacy_amplification_factor(n1_pooled, b1_pool, DEFAULT_PA_EPSILON)
        for budget in tight.values():
            assert budget.f_pa == expected
        assert expected == pytest.approx(FROZEN["calibrate.f_pa_tight"], rel=1e-12)
        for budget in analysis.budgets_worst.values():
            assert budget.f_pa == pytest.approx(FROZEN["calibrate.f_pa_worst"], rel=1e-12)

    def test_totals_add_up(self, calibration):
        analysis = calibration.analysis
        assert analysis.total_tight == sum(
            b.n_secret for b in analysis.budgets_tight.values()
        )
        assert analysis.total_worst == sum(
            b.n_secret for b in analysis.budgets_worst.values()
        )

    def test_totals_are_the_budget_sums_on_simulated_sessions(self):
        scheme, config = reference_scheme(), ConfidenceConfig(photon_cutoff=10)
        keyed = 0
        for seed, km in enumerate(np.linspace(25.0, 150.0, 60)):
            tally, _ = simulate_session(reference_model(float(km)), scheme, 23_836_243_437,
                                        700 + seed)
            analysis = compose_session(tally, scheme, config, f_ec=1.07, f_ds=1.05)
            assert analysis.total_tight == sum(
                b.n_secret for b in analysis.budgets_tight.values())
            assert analysis.total_worst == sum(
                b.n_secret for b in analysis.budgets_worst.values())
            keyed += analysis.total_worst > 0
        assert keyed >= 30

    def test_budget_reports_are_flat_copies(self, calibration, readme_session):
        # The README session's analysis, re-composed from its tally with the
        # CLI's defaults, is the one ``analyze`` printed.
        tally = SessionTally.from_json(
            json.loads((readme_session.root / "tally.json").read_text()))
        readme = compose_session(tally, reference_scheme())
        printed = json.loads(readme_session.analyze[1])["analysis"]
        assert json.loads(json.dumps(readme.to_json())) == printed
        names = [f.name for f in dataclasses.fields(KeyBudget)]
        for analysis in (readme, calibration.analysis):
            for budget in (*analysis.budgets_tight.values(), *analysis.budgets_worst.values()):
                doc = budget.to_json()
                assert doc == dataclasses.asdict(budget)
                assert list(doc) == names

    def test_kept_analysis_is_small(self):
        # A process certifying session after session may keep every analysis:
        # the budgets are rebuilt on read, so one kept analysis holds about
        # 1.1 KB (3.1 KB when the four budgets and the per-basis dicts were stored).
        scheme, config = reference_scheme(), ConfidenceConfig(photon_cutoff=10)
        tallies = [simulate_session(reference_model(km), scheme, 23_836_243_437, seed)[0]
                   for seed, km in enumerate((25, 50, 75, 100, 125, 150) * 20)]
        compose_session(tallies[0], scheme, config)
        tracemalloc.start()
        try:
            kept = [compose_session(tally, scheme, config) for tally in tallies]
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / len(kept) < 1500
        first = kept[0]
        assert first.budgets_tight == first.budgets_tight is not first.budgets_tight
        assert first.bounds.b1_tight_by_basis is not first.bounds.b1_tight_by_basis

    def test_serialized_form(self, calibration):
        doc = calibration.analysis.to_json()
        assert doc["feasible"] is True
        assert doc["total_tight"] == FROZEN["calibrate.total_tight"]
        assert doc["total_worst"] == FROZEN["calibrate.total_worst"]
        assert set(doc["budgets_tight"]) == {"X", "Z"}
        budget_doc = doc["budgets_tight"]["X"]
        for key in (
            "basis",
            "variant",
            "n_sifted",
            "n1_lower",
            "y1_eff",
            "mu",
            "b1_upper",
            "bit_error_rate",
            "zero_fraction",
            "f_ec",
            "f_pa",
            "f_ds",
            "n_secret",
        ):
            assert key in budget_doc

    @pytest.mark.parametrize(
        "mus, probs",
        [((0.1, 0.5), (0.3, 0.7)), ((0.002, 0.1, 0.3, 0.6), (0.1, 0.1, 0.1, 0.7))],
        ids=["2 levels", "4 levels"],
    )
    def test_scheme_level_count_mismatch_rejected(self, calibration, mus, probs):
        scheme = DecoyScheme(mus=mus, send_probs=probs)
        with pytest.raises(ValidationError, match=f"tally has 3 levels but scheme has {len(mus)}"):
            compose_session(calibration.tally, scheme, ConfidenceConfig())

    def test_subunity_factors_rejected(self, calibration):
        with pytest.raises(ValueError):
            compose_session(
                calibration.tally,
                calibration.scheme,
                ConfidenceConfig(),
                f_ec=0.9,
                f_ds=1.05,
            )
