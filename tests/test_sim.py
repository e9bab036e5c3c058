"""Tests for the channel model expectations and the Monte-Carlo session."""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from decoyqkd import sim
from decoyqkd.core import BASES, InputError, LevelCounts, SessionTally
from decoyqkd.sim import (
    REFERENCE_DETECTIONS,
    REFERENCE_DURATION_H,
    REFERENCE_DUTY_CYCLE,
    REFERENCE_KEY_TARGETS,
    REFERENCE_SIFT_RATIO,
    REFERENCE_SIFTED_TOTAL,
    REFERENCE_ZERO_FRACTION,
    ValidationError,
    calibrate_to_reference,
    expected_statistics,
    expected_tally,
    reference_model,
    reference_scheme,
    simulate_session,
)


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


def _sequential_session(model, scheme, pulses, seed, zero_bias):
    """``simulate_session`` with the signal level drawn by two ``rng.random(n)``
    calls per basis in the calling thread: the stream the parallel fill must
    reproduce draw for draw."""
    stats = expected_statistics(model, scheme)
    rng = np.random.default_rng(seed)
    sent = rng.multinomial(pulses, scheme.send_probs)
    levels, zeros, alice, bob = [], {"X": 0, "Z": 0}, {}, {}
    for j in range(scheme.n_levels):
        det_total = int(rng.binomial(sent[j], stats.yields[j]))
        det_x = int(rng.binomial(det_total, 0.5))
        detected = {"X": det_x, "Z": det_total - det_x}
        sifted = {b: int(rng.binomial(detected[b], 0.5)) for b in BASES}
        errors = {}
        for b in BASES:
            n = sifted[b]
            if j == scheme.signal_index:
                bits = (rng.random(n) >= zero_bias).astype(np.uint8)
                flips = rng.random(n) < stats.error_rates[j]
                alice[b] = bits
                bob[b] = bits ^ flips.astype(np.uint8)
                errors[b] = int(np.count_nonzero(flips))
                zeros[b] += int(np.count_nonzero(bits == 0))
            else:
                errors[b] = int(rng.binomial(n, stats.error_rates[j]))
                zeros[b] += int(rng.binomial(n, zero_bias))
        levels.append(
            LevelCounts(sent=int(sent[j]), detected=detected, sifted=sifted, errors=errors)
        )
    return SessionTally(levels=tuple(levels), zeros=zeros), alice, bob


class TestSignalStream:
    """The signal level's parallel block fill draws the sequential stream."""

    PULSES = 23_836_243_437
    # 2 * 65505 and 2 * 65539 signal draws at 25 km, seed 7: just below and
    # just above sim._PARALLEL_DRAWS, and no multiple of sim._BLOCK
    NEAR_THRESHOLD = ((214_797_613, False), (214_908_479, True))

    @staticmethod
    def assert_matches_sequential(monkeypatch, km, pulses, seed, zero_bias=0.494):
        """Compare with 1, 2 and 3 workers; return the reference tally."""
        model, scheme = reference_model(km), reference_scheme()
        ref_tally, ref_alice, ref_bob = _sequential_session(model, scheme, pulses, seed, zero_bias)
        for workers in (1, 2, 3):
            monkeypatch.setattr(sim, "_usable_cpus", lambda: workers)
            threads = threading.active_count()
            tally, keys = simulate_session(model, scheme, pulses, seed, zero_bias=zero_bias)
            assert threading.active_count() == threads
            assert tally == ref_tally
            for got, want in ((keys.alice, ref_alice), (keys.bob, ref_bob)):
                for b in BASES:
                    assert got[b].dtype == np.uint8
                    assert np.array_equal(got[b], want[b]), (km, pulses, seed, workers, b)
        return ref_tally

    @pytest.mark.parametrize("km", [25, 75, 125, 150])
    def test_full_sessions(self, monkeypatch, km):
        for seed in (1, 2, 3):
            self.assert_matches_sequential(monkeypatch, km, self.PULSES, seed)

    @pytest.mark.parametrize("zero_bias", [0.0, 0.494, 1.0])
    def test_zero_bias(self, monkeypatch, zero_bias):
        self.assert_matches_sequential(monkeypatch, 75, self.PULSES, 4, zero_bias)

    def test_around_parallel_threshold(self, monkeypatch):
        for pulses, parallel in self.NEAR_THRESHOLD:
            tally = self.assert_matches_sequential(monkeypatch, 25, pulses, 7)
            draws = 2 * sum(tally.levels[-1].sifted.values())
            assert (draws >= sim._PARALLEL_DRAWS) == parallel
            assert draws % sim._BLOCK

    def test_empty_session(self, monkeypatch):
        self.assert_matches_sequential(monkeypatch, 25, 0, 1)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_leaves_stream_after_the_draws(self, monkeypatch, workers):
        monkeypatch.setattr(sim, "_usable_cpus", lambda: workers)
        sizes = [100_003, 0, 70_001]
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        pairs = sim._signal_draws(rng, sizes, 0.494, 0.03)
        for n, (bits, flips) in zip(sizes, pairs):
            assert np.array_equal(bits, ref.random(n) >= 0.494)
            assert np.array_equal(flips, ref.random(n) < 0.03)
        assert rng.random(3).tolist() == ref.random(3).tolist()


class TestCalibration:
    def test_frozen_operating_point(self, calibration):
        assert calibration.pulses == 23836243437
        assert calibration.duty_cycle == pytest.approx(0.11823533450892858, rel=1e-9)
        assert calibration.model.background_rate_hz == pytest.approx(586.00045754661, rel=1e-6)
        assert calibration.model.intrinsic_error_rate == pytest.approx(0.005092440316693087,
                                                                       rel=1e-6)
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
        assert calibration.analysis.total_tight == 5342
        assert calibration.analysis.total_worst == 4526
        assert calibration.diagnostics["key_totals_model"] == [5342, 4526]

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
    ])
    def test_bad_totals_name_their_input(self, totals, name):
        with pytest.raises(InputError) as info:
            calibrate_to_reference(**totals)
        assert info.value.input_name == name

    @pytest.mark.parametrize("duration_h", [0.0, -1.0])
    def test_duration_must_be_positive_before_any_fit(self, duration_h, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("stage 1 ran")

        monkeypatch.setattr("scipy.optimize.least_squares", no_fit)
        with pytest.raises(InputError, match="duration_h must be > 0") as info:
            calibrate_to_reference(duration_h=duration_h)
        assert info.value.input_name == "duration_h"

    def test_sift_ratio_is_the_fitted_one(self):
        # calibration derives the ratio from the totals; a caller's would be ignored
        with pytest.raises(TypeError, match="sift_ratio"):
            calibrate_to_reference(sift_ratio=0.5)
