"""Tests for the channel model expectations and the Monte-Carlo session."""

from __future__ import annotations

import dataclasses
import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import least_squares
from scipy.stats import binomtest, chisquare

from decoyqkd import sim
from decoyqkd.core import BASES, InputError, LevelCounts, SessionTally, ValidationError
from decoyqkd.sim import (
    REFERENCE_DETECTIONS,
    REFERENCE_DURATION_H,
    REFERENCE_DUTY_CYCLE,
    REFERENCE_KEY_TARGETS,
    REFERENCE_SIFT_RATIO,
    REFERENCE_SIFTED_TOTAL,
    REFERENCE_ZERO_FRACTION,
    calibrate_to_reference,
    expected_statistics,
    expected_tally,
    reference_model,
    reference_scheme,
    simulate_session,
)
from ledger import FROZEN


def test_reference_constants():
    assert REFERENCE_DETECTIONS == (341, 5729, 80776)
    assert REFERENCE_SIFTED_TOTAL == 40538
    assert REFERENCE_KEY_TARGETS == (6127, 3990)
    assert REFERENCE_ZERO_FRACTION == 0.494
    assert REFERENCE_DURATION_H == 5.6
    assert REFERENCE_SIFT_RATIO == REFERENCE_SIFTED_TOTAL / sum(REFERENCE_DETECTIONS)


class TestLinkBudget:
    """The link quantities ``expected_statistics`` carries: eta and noise."""

    def test_loss_decomposition(self):
        model = reference_model(25.0)
        stats = expected_statistics(model, reference_scheme())
        fiber_db = model.fiber_length_km * model.attenuation_db_per_km
        assert stats.eta == pytest.approx(
            model.detector_efficiency * 10.0 ** (-fiber_db / 10.0), rel=1e-12
        )

    def test_noise_window(self):
        model = reference_model(25.0)
        stats = expected_statistics(model, reference_scheme())
        expected = (
            model.dark_count_rate_hz + model.background_rate_hz
        ) * model.timing_window_s
        assert stats.noise_prob == pytest.approx(expected, rel=1e-12)

    def test_longer_fiber_means_less_transmission(self):
        etas = [
            expected_statistics(reference_model(km), reference_scheme()).eta
            for km in (10, 50, 100, 150)
        ]
        assert etas == sorted(etas, reverse=True)


class TestExpectedStatistics:
    def test_vacuum_yield_is_noise_floor(self):
        model = reference_model(25.0)
        stats = expected_statistics(model, reference_scheme())
        assert stats.photon_yield(0) == pytest.approx(stats.noise_prob, rel=1e-12)

    def test_photon_yield_formula(self):
        model = reference_model(25.0)
        stats = expected_statistics(model, reference_scheme())
        eta = stats.eta
        c = stats.noise_prob
        for n in range(6):
            expected = 1.0 - (1.0 - c) * (1.0 - eta) ** n
            assert stats.photon_yield(n) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [1.5, True, np.bool_(True), "1", -1],
                             ids=["fraction", "bool", "np.bool_", "string", "negative"])
    def test_photon_number_is_a_non_negative_integer(self, n):
        stats = expected_statistics(reference_model(25.0), reference_scheme())
        with pytest.raises(InputError) as info:
            stats.photon_yield(n)
        assert info.value.input_name == "n"
        assert stats.photon_yield(np.int64(1)) == stats.photon_yield(1)

    def test_photon_error_formula(self):
        model = reference_model(25.0)
        stats = expected_statistics(model, reference_scheme())
        eta = stats.eta
        c = stats.noise_prob
        for n in range(1, 6):
            arrival = 1.0 - (1.0 - eta) ** n
            expected = (0.5 * c + model.intrinsic_error_rate * arrival) / stats.photon_yield(n)
            assert stats.photon_error_rate(n) == pytest.approx(expected, rel=1e-12)

    def test_yields_monotone_in_photon_number(self):
        stats = expected_statistics(reference_model(80.0), reference_scheme())
        values = [stats.photon_yield(n) for n in range(12)]
        assert values == sorted(values)

    def test_error_rate_approaches_intrinsic_floor(self):
        model = reference_model(25.0)
        stats = expected_statistics(model, reference_scheme())
        rates = [stats.photon_error_rate(n) for n in range(1, 12)]
        assert rates == sorted(rates, reverse=True)
        assert rates[-1] == pytest.approx(model.intrinsic_error_rate, rel=0.02)

    def test_level_yields_mix_poisson(self):
        # the per-level yield must equal the photon-number mixture
        model = reference_model(60.0)
        scheme = reference_scheme()
        stats = expected_statistics(model, scheme)
        for j, mu in enumerate(scheme.mus):
            mixture = sum(
                math.exp(-mu) * mu**n / math.factorial(n) * stats.photon_yield(n)
                for n in range(80)
            )
            assert stats.yields[j] == pytest.approx(mixture, rel=1e-9)


class TestExpectedTally:
    def test_reproduces_calibration_tally(self, calibration):
        tally = expected_tally(
            calibration.model,
            calibration.scheme,
            calibration.pulses,
            sift_ratio=calibration.sift_ratio,
            zero_fraction=calibration.zero_fraction,
        )
        assert tally.to_json() == calibration.tally.to_json()
        assert tally.reconstructed

    def test_split_by_send_probabilities(self):
        scheme = reference_scheme()
        tally = expected_tally(reference_model(25.0), scheme, 1_000_000,
                               sift_ratio=0.5, zero_fraction=0.5)
        sents = [level.sent for level in tally.levels]
        assert sum(sents) == 1_000_000
        for sent, prob in zip(sents, scheme.send_probs):
            assert sent == pytest.approx(1_000_000 * prob, abs=1.0)

    def test_zero_counts_follow_requested_fraction(self):
        tally = expected_tally(
            reference_model(25.0), reference_scheme(), 2_000_000,
            sift_ratio=0.5, zero_fraction=0.3,
        )
        for basis in ("X", "Z"):
            sifted = sum(level.sifted[basis] for level in tally.levels)
            assert tally.zeros[basis] == pytest.approx(0.3 * sifted, abs=1.0)

    def test_rejects_negative_pulses(self):
        with pytest.raises(ValidationError):
            expected_tally(reference_model(), reference_scheme(), -5,
                           sift_ratio=0.5, zero_fraction=0.5)


class TestSimulateSession:
    def test_counts_track_expectation(self):
        # Monte-Carlo detections per level vs the analytic expectation,
        # in units of the binomial standard deviation.
        model = reference_model(25.0)
        scheme = reference_scheme()
        pulses = 10_000_000
        tally, _ = simulate_session(model, scheme, pulses, 99)
        expectation = expected_tally(model, scheme, pulses, sift_ratio=0.5, zero_fraction=0.5)
        for j in range(scheme.n_levels):
            sent = expectation.levels[j].sent
            p = expectation.levels[j].detected_total() / sent
            got = tally.levels[j].detected_total()
            sigma = math.sqrt(sent * p * (1.0 - p))
            assert abs(got - sent * p) < 5.0 * sigma

    def test_raw_keys_match_tally(self):
        tally, keys = simulate_session(reference_model(25.0), reference_scheme(), 2_000_000, 7)
        signal = tally.levels[reference_scheme().signal_index]
        for basis in ("X", "Z"):
            alice = keys.alice[basis]
            bob = keys.bob[basis]
            assert alice.shape == bob.shape
            assert len(alice) == signal.sifted[basis]
            assert int((alice != bob).sum()) == signal.errors[basis]
            # tally zeros cover every sifted bit, keyed or not
            assert tally.zeros[basis] >= int((alice == 0).sum())

    def test_deterministic_per_seed(self):
        model, scheme = reference_model(25.0), reference_scheme()
        t1, k1 = simulate_session(model, scheme, 500_000, 31)
        t2, k2 = simulate_session(model, scheme, 500_000, 31)
        assert t1.to_json() == t2.to_json()
        assert all((k1.alice[b] == k2.alice[b]).all() for b in ("X", "Z"))
        t3, _ = simulate_session(model, scheme, 500_000, 32)
        assert t3.to_json() != t1.to_json()

    def test_simulated_tally_is_not_flagged_reconstructed(self):
        tally, _ = simulate_session(reference_model(25.0), reference_scheme(), 100_000, 1)
        assert not tally.reconstructed

    def test_empty_session(self):
        tally, keys = simulate_session(reference_model(25.0), reference_scheme(), 0, 1)
        assert all(level.sent == 0 for level in tally.levels)
        assert all(len(keys.alice[b]) == 0 for b in ("X", "Z"))

    def test_zero_bias_shifts_bit_balance(self):
        model, scheme = reference_model(25.0), reference_scheme()
        biased, _ = simulate_session(model, scheme, 2_000_000, 7, zero_bias=0.2)
        balanced, _ = simulate_session(model, scheme, 2_000_000, 7)
        assert biased.zero_fraction("X") < 0.32
        assert 0.42 < balanced.zero_fraction("X") < 0.58

    def test_zero_bias_domain(self):
        with pytest.raises(ValidationError):
            simulate_session(reference_model(), reference_scheme(), 100, 1, zero_bias=1.5)

    def test_negative_seed_names_seed(self):
        with pytest.raises(InputError, match="seed must be >= 0, got -1") as info:
            simulate_session(reference_model(), reference_scheme(), 100, -1)
        assert info.value.input_name == "seed"

    def test_bound_soundness_on_small_batch(self):
        # simulated sessions must not certify better-than-true values;
        # the acceptance suite runs the full 500-session version
        from decoyqkd.core import ConfidenceConfig
        from decoyqkd.decoy import single_photon_bounds

        model = reference_model(25.0)
        scheme = reference_scheme()
        stats = expected_statistics(model, scheme)
        y1_true = stats.photon_yield(1)
        b1_true = stats.photon_error_rate(1)
        cfg = ConfidenceConfig()
        sound = 0
        for seed in range(20):
            tally, _ = simulate_session(model, scheme, 1_000_000, 4200 + seed)
            bounds = single_photon_bounds(tally, scheme, cfg)
            if not bounds.feasible:
                continue
            ok_y = bounds.y1_lower <= y1_true
            ok_b = all(
                bounds.b1_tight_by_basis[b] >= b1_true for b in ("X", "Z")
            )
            sound += ok_y and ok_b
        assert sound >= 19


def _binomial_cells(model, scheme, pulses, seed, zero_bias):
    """The tally drawn as one binomial per count, in ``simulate_session``'s
    order, and each level's zero draws per basis: the stream it must follow."""
    stats = expected_statistics(model, scheme)
    rng = np.random.default_rng(seed)
    sent = rng.multinomial(pulses, scheme.send_probs)
    levels, level_zeros = [], []
    for n, q, e in zip(sent, stats.yields, stats.error_rates):
        det_total = int(rng.binomial(n, q))
        det_x = int(rng.binomial(det_total, 0.5))
        detected = {"X": det_x, "Z": det_total - det_x}
        sifted = {b: int(rng.binomial(detected[b], 0.5)) for b in BASES}
        errors, zeros = {}, {}
        for b in BASES:
            errors[b] = int(rng.binomial(sifted[b], e))
            zeros[b] = int(rng.binomial(sifted[b], zero_bias))
        levels.append(LevelCounts(sent=int(n), detected=detected, sifted=sifted, errors=errors))
        level_zeros.append(zeros)
    zeros = {b: sum(z[b] for z in level_zeros) for b in BASES}
    return SessionTally(levels=tuple(levels), zeros=zeros), level_zeros


#: Pulses of the README session size: about 3,000 sifted signal bits per basis at 25 km.
LAW_PULSES = 20_000_000
LAW_SEEDS = range(2000)
LAW_ZERO_BIAS = 0.3
#: Significance of every exact test of the simulator's law.
ALPHA = 1e-3


def _signal_cells(seeds):
    """Per seed and basis: the signal level's sifted bits, errors, Alice's zeros,
    the key differences and the flip positions, at 25 km."""
    model, scheme = reference_model(25.0), reference_scheme()
    rows = []
    for seed in seeds:
        tally, keys = simulate_session(model, scheme, LAW_PULSES, seed, zero_bias=LAW_ZERO_BIAS)
        signal = tally.levels[scheme.signal_index]
        for b in BASES:
            alice, bob = keys.alice[b], keys.bob[b]
            rows.append((signal.sifted[b], signal.errors[b], alice.size - int(alice.sum()),
                         int(np.count_nonzero(alice ^ bob)), np.flatnonzero(alice ^ bob), seed, b))
    return rows


@pytest.fixture(scope="module")
def signal_cells():
    return _signal_cells(LAW_SEEDS)


def _binomial_pvalues(rows):
    """Exact two-sided p-values of each basis's summed signal errors and zeros
    against Bin(summed sifted, e_j) and Bin(summed sifted, zero_bias)."""
    e = expected_statistics(reference_model(25.0), reference_scheme()).error_rates[-1]
    out = {}
    for b in BASES:
        n = sum(r[0] for r in rows if r[6] == b)
        errors = sum(r[1] for r in rows if r[6] == b)
        zeros = sum(r[2] for r in rows if r[6] == b)
        out[b] = (binomtest(errors, n, e).pvalue, binomtest(zeros, n, LAW_ZERO_BIAS).pvalue)
    return out


class TestSignalStream:
    """``simulate_session`` draws the documented stream: one binomial per tally
    cell, then keys drawn from the tally, which they agree with."""

    PULSES = 23_836_243_437

    @staticmethod
    def assert_matches_cells(km, pulses, seed, zero_bias=0.494):
        model, scheme = reference_model(km), reference_scheme()
        tally, keys = simulate_session(model, scheme, pulses, seed, zero_bias=zero_bias)
        expected, level_zeros = _binomial_cells(model, scheme, pulses, seed, zero_bias)
        assert tally == expected
        signal = tally.levels[scheme.signal_index]
        for b in BASES:
            alice, bob = keys.alice[b], keys.bob[b]
            assert alice.dtype == bob.dtype == np.uint8
            assert alice.size == bob.size == signal.sifted[b]
            assert alice.size - int(alice.sum()) == level_zeros[scheme.signal_index][b]
            assert int(np.count_nonzero(alice ^ bob)) == signal.errors[b]

    @pytest.mark.parametrize("km", [25, 75, 125, 150])
    def test_full_sessions(self, km):
        for seed in (1, 2, 3):
            self.assert_matches_cells(km, self.PULSES, seed)

    @pytest.mark.parametrize("zero_bias", [0.0, 0.494, 1.0])
    def test_zero_bias(self, zero_bias):
        self.assert_matches_cells(75, self.PULSES, 4, zero_bias)

    def test_empty_session(self):
        self.assert_matches_cells(25, 0, 1)


class TestCountsFirst:
    """The law of the counts, and keys drawn from the tally only when read."""

    def test_keys_agree_with_tally_on_every_seed(self, signal_cells):
        model, scheme = reference_model(25.0), reference_scheme()
        for sifted, errors, zeros, differences, _, seed, b in signal_cells:
            assert differences == errors, (seed, b)
            if b == "X":
                _, level_zeros = _binomial_cells(model, scheme, LAW_PULSES, seed, LAW_ZERO_BIAS)
            assert zeros == level_zeros[scheme.signal_index][b], (seed, b)

    def test_signal_cells_follow_their_binomials(self, signal_cells):
        assert len(signal_cells) == 2 * len(LAW_SEEDS)
        for b, pvalues in _binomial_pvalues(signal_cells).items():
            assert min(pvalues) > ALPHA, (b, pvalues)

    def test_planted_error_bias_is_caught(self, monkeypatch):
        # the same test must reject a signal error rate 5% too high
        def biased(model, scheme):
            stats = expected_statistics(model, scheme)
            rates = list(stats.error_rates)
            rates[scheme.signal_index] *= 1.05
            return dataclasses.replace(stats, error_rates=tuple(rates))

        monkeypatch.setattr(sim, "expected_statistics", biased)
        pvalues = _binomial_pvalues(_signal_cells(LAW_SEEDS))
        assert all(pvalues[b][0] < ALPHA for b in BASES), pvalues

    def test_flip_positions_are_uniform(self, signal_cells):
        # 20 bins of equal index range; a bin's expected share is its exact size / n
        bins = 20
        observed, expected = np.zeros(bins), np.zeros(bins)
        for sifted, errors, _, _, positions, _, _ in signal_cells:
            observed += np.bincount(positions * bins // sifted, minlength=bins)
            edges = -(-np.arange(bins + 1) * sifted // bins)  # first position of each bin
            expected += errors * np.diff(edges) / sifted
        assert chisquare(observed, expected).pvalue > ALPHA

    def test_tally_does_not_depend_on_reading_keys(self):
        model, scheme = reference_model(25.0), reference_scheme()
        for seed in range(20):
            read, keys = simulate_session(model, scheme, 2_000_000, seed)
            keys.alice
            unread, _ = simulate_session(model, scheme, 2_000_000, seed)
            assert read == unread

    def test_keys_are_the_same_on_every_read(self):
        model, scheme = reference_model(25.0), reference_scheme()
        _, first = simulate_session(model, scheme, 2_000_000, 9)
        _, second = simulate_session(model, scheme, 2_000_000, 9)
        bob = {b: k.copy() for b, k in first.bob.items()}
        simulate_session(model, scheme, 2_000_000, 10)[1].alice  # another draw between reads
        assert first.alice is first.alice and first.bob is first.bob
        for b in BASES:
            assert np.array_equal(first.bob[b], bob[b])
            assert np.array_equal(first.alice[b], second.alice[b])
            assert np.array_equal(first.bob[b], second.bob[b])

    def test_keyless_session_is_small_and_single_threaded(self, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        tracemalloc.start()
        try:
            tally, _ = simulate_session(reference_model(25.0), reference_scheme(),
                                        23_836_243_437, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(tally.levels[-1].sifted.values()) > 7_000_000
        assert peak < 2**20
        assert started == []


class TestExactBits:
    """``sim._exact_bits``: exactly k ones, each arrangement equally likely."""

    @pytest.mark.parametrize("n, k", [
        (0, 0), (1, 0), (1, 1), (10, 3), (65536, 65536), (65537, 1),
        (200_003, 0), (200_003, 1), (200_003, 7), (200_003, 100_001), (200_003, 199_999),
        (200_003, 200_003),
    ])
    def test_exact_count(self, n, k):
        bits = sim._exact_bits(np.random.default_rng(n + k), n, k)
        assert bits.dtype == np.uint8 and bits.shape == (n,)
        assert int(np.count_nonzero(bits)) == int(bits.sum()) == k

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_every_arrangement_equally_likely(self, monkeypatch, k):
        # blocks of 3 bits over n = 7, so the mending spans blocks and a short one
        monkeypatch.setattr(sim, "_FILL_BLOCK", 3)
        n, draws = 7, 100 * math.comb(7, k)
        rng = np.random.default_rng(k)
        weights = 1 << np.arange(n)
        counts = np.bincount([int(sim._exact_bits(rng, n, k) @ weights) for _ in range(draws)],
                             minlength=1 << n)
        patterns = [p for p in range(1 << n) if p.bit_count() == k]
        assert counts.sum() == counts[patterns].sum() == draws
        assert chisquare(counts[patterns]).pvalue > ALPHA

    def test_no_temporary_of_the_key_length(self):
        n = 1 << 22
        tracemalloc.start()
        try:
            for k in (n // 2, n // 100, 3):
                sim._exact_bits(np.random.default_rng(k), n, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n + 2**21  # the output, and temporaries of a block


class TestCalibration:
    def test_frozen_operating_point(self, calibration):
        assert calibration.pulses == FROZEN["calibrate.pulses"]
        assert calibration.duty_cycle == pytest.approx(FROZEN["calibrate.duty_cycle"], rel=1e-9)
        assert calibration.model.background_rate_hz == pytest.approx(
            FROZEN["calibrate.background_rate_hz"], rel=1e-6)
        assert calibration.model.intrinsic_error_rate == pytest.approx(
            FROZEN["calibrate.intrinsic_error_rate"], rel=1e-6)
        assert calibration.sift_ratio == REFERENCE_SIFT_RATIO
        assert calibration.zero_fraction == REFERENCE_ZERO_FRACTION

    def test_duty_cycle_matches_pulse_count(self, calibration):
        clock = calibration.model.clock_rate_hz
        implied = round(REFERENCE_DURATION_H * 3600.0 * clock * calibration.duty_cycle)
        assert implied == calibration.pulses

    def test_detections_close_to_targets(self, calibration):
        for level, target in zip(calibration.tally.levels, REFERENCE_DETECTIONS):
            assert abs(level.detected_total() / target - 1.0) < 0.01
        sifted = sum(sum(level.sifted.values()) for level in calibration.tally.levels)
        assert abs(sifted / REFERENCE_SIFTED_TOTAL - 1.0) < 0.001

    def test_key_totals(self, calibration):
        totals = [FROZEN["calibrate.total_tight"], FROZEN["calibrate.total_worst"]]
        assert calibration.analysis.total_tight == totals[0]
        assert calibration.analysis.total_worst == totals[1]
        assert calibration.diagnostics["key_totals_model"] == totals

    def test_diagnostics_shape(self, calibration):
        assert calibration.diagnostics["converged"] is True
        assert set(calibration.diagnostics) == {
            "converged",
            "detections_model",
            "detections_target",
            "fit_objective",
            "key_targets",
            "key_totals_model",
            "sifted_model",
            "sifted_target",
        }
        assert calibration.diagnostics["detections_target"] == list(REFERENCE_DETECTIONS)

    @pytest.mark.parametrize("totals, name", [
        (dict(detections=(5729, 80776)), "detections"),
        (dict(detections=(0, 5729, 80776)), "detections"),
        (dict(sifted_total=0), "sifted"),
        (dict(key_targets=(0, 10)), "targets"),
        (dict(detections=(34100, 5729, 80776)), "detections"),
        (dict(detections=(10**12,) * 3), "detections"),
    ])
    def test_bad_totals_name_their_input(self, totals, name):
        with pytest.raises(InputError) as info:
            calibrate_to_reference(**totals)
        assert info.value.input_name == name

    @pytest.mark.parametrize("scales", itertools.product((0.7, 1.0, 1.4), repeat=3), ids=str)
    def test_stage_one_reaches_the_least_squares_optimum(self, scales):
        # scipy's least_squares, started where stage 1 starts, is the oracle.
        scheme, base = reference_scheme(), reference_model()
        targets = np.array([round(d * s) for d, s in zip(REFERENCE_DETECTIONS, scales)], float)

        def residuals(x):
            model = dataclasses.replace(base, background_rate_hz=math.exp(x[1]))
            modeled = sim._modeled_detections(model, scheme, math.exp(x[0]))
            return np.log(modeled) - np.log(targets)

        eta, window = expected_statistics(base, scheme).eta, base.timing_window_s
        dark_c = base.dark_count_rate_hz * window
        (p0, *_, ps), (mu0, *_, mus) = scheme.send_probs, scheme.mus
        n0 = targets[-1] / (ps * (dark_c + eta * mus))
        bg0 = max((targets[0] / (n0 * p0) - eta * mu0 - dark_c) / window, 1e-3)
        oracle = least_squares(residuals, x0=[math.log(n0), math.log(bg0)])
        assert (base.dark_count_rate_hz + math.exp(oracle.x[1])) * window < 1.0

        bg = sim._fit_background(targets, base, scheme)
        assert sim._fit_background(targets, base, scheme) == bg
        fitted = dataclasses.replace(base, background_rate_hz=bg)
        log_pulses = np.mean(np.log(targets / sim._modeled_detections(fitted, scheme, 1.0)))
        cost = 0.5 * float(np.sum(residuals([log_pulses, math.log(bg)]) ** 2))
        assert cost <= oracle.cost * (1.0 + 1e-9)

    @pytest.mark.parametrize("duration_h", [0.0, -1.0])
    def test_duration_must_be_positive_before_any_fit(self, duration_h, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("stage 1 ran")

        monkeypatch.setattr("decoyqkd.sim._fit_background", no_fit)
        with pytest.raises(InputError, match=r"duration_h must lie in \(0, inf\)") as info:
            calibrate_to_reference(duration_h=duration_h)
        assert info.value.input_name == "duration_h"

    def test_sift_ratio_is_the_fitted_one(self):
        # calibration derives the ratio from the totals; a caller's would be ignored
        with pytest.raises(TypeError, match="sift_ratio"):
            calibrate_to_reference(sift_ratio=0.5)
