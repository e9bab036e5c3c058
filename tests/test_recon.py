"""Tests for interactive parity reconciliation."""

from __future__ import annotations

import numpy as np
import pytest

from decoyqkd.recon import (
    ReconciliationResult,
    ValidationError,
    cascade_reconcile,
    measure_f_ec,
)
from decoyqkd.stats import binary_entropy


def _keys(seed, n, qber, flip_seed):
    g = np.random.default_rng(seed)
    alice = g.integers(0, 2, n)
    flips = np.random.default_rng(flip_seed).random(n) < qber
    return alice, alice ^ flips


def test_identical_keys_disclose_only_first_pass():
    alice = np.random.default_rng(5).integers(0, 2, 1024)
    result = cascade_reconcile(alice, alice.copy(), 0.01, rng_seed=9)
    assert result.parity_bits_leaked == 15
    assert result.passes == 1  # no errors seen, later passes are skipped
    assert result.corrections == 0
    assert not result.residual_error_detected
    assert (result.corrected_key == alice).all()


def test_single_error_is_found_and_charged():
    alice = np.random.default_rng(5).integers(0, 2, 1024)
    bob = alice.copy()
    bob[400] ^= 1
    result = cascade_reconcile(alice, bob, 0.01, rng_seed=9)
    assert (result.corrected_key == alice).all()
    assert result.corrections == 1
    assert result.parity_bits_leaked == 36
    assert result.passes == 4
    assert not result.residual_error_detected
    # the binary search for one error happens inside the first pass
    per_pass = [m.pass_index for m in result.transcript]
    assert per_pass.count(1) == 22


def test_leak_equals_transcript_length():
    for seed in range(4):
        alice, bob = _keys(100 + seed, 2048, 0.02, 900 + seed)
        result = cascade_reconcile(alice, bob, 0.02, rng_seed=seed)
        assert result.parity_bits_leaked == len(result.transcript)


def test_transcript_messages_are_well_formed():
    alice, bob = _keys(61, 512, 0.03, 62)
    result = cascade_reconcile(alice, bob, 0.03, rng_seed=63)
    n = alice.size
    for message in result.transcript:
        assert 1 <= message.pass_index <= result.passes
        assert 0 <= message.start < message.stop <= n
        assert message.parity in (0, 1)


def test_random_sessions_fully_reconcile():
    rng = np.random.default_rng(42424)
    for trial in range(25):
        n = int(rng.integers(256, 8192))
        qber = float(rng.uniform(0.005, 0.08))
        alice, bob = _keys(7000 + trial, n, qber, 7500 + trial)
        result = cascade_reconcile(alice, bob, qber, rng_seed=8000 + trial)
        assert (result.corrected_key == alice).all()
        assert result.corrections == int((alice != bob).sum())
        assert not result.residual_error_detected


def test_input_keys_are_left_unchanged():
    alice, bob = _keys(3, 2048, 0.03, 4)
    alice, bob = alice.astype(np.uint8), bob.astype(np.uint8)
    before = bob.copy()
    result = cascade_reconcile(alice, bob, 0.03, rng_seed=5)
    assert result.corrections > 0
    assert np.array_equal(bob, before)
    assert result.corrected_key is not bob


def test_determinism():
    alice, bob = _keys(11, 4096, 0.03, 12)
    first = cascade_reconcile(alice, bob, 0.03, rng_seed=13)
    second = cascade_reconcile(alice, bob, 0.03, rng_seed=13)
    assert first.parity_bits_leaked == second.parity_bits_leaked
    assert (first.corrected_key == second.corrected_key).all()
    assert [
        (m.pass_index, m.start, m.stop, m.parity) for m in first.transcript
    ] == [(m.pass_index, m.start, m.stop, m.parity) for m in second.transcript]


def test_leak_exceeds_shannon_floor_when_errors_present():
    rng = np.random.default_rng(5150)
    for trial in range(10):
        n = int(rng.integers(1000, 20000))
        qber = float(rng.uniform(0.01, 0.06))
        alice, bob = _keys(300 + trial, n, qber, 400 + trial)
        if int((alice != bob).sum()) == 0:
            continue
        result = cascade_reconcile(alice, bob, qber, rng_seed=500 + trial)
        observed = result.corrections / n
        assert result.parity_bits_leaked / n >= binary_entropy(observed)
        assert measure_f_ec(result) >= 1.0


class TestMeasureFEc:
    def test_defaults_to_observed_rate(self):
        alice, bob = _keys(21, 4096, 0.03, 22)
        result = cascade_reconcile(alice, bob, 0.03, rng_seed=23)
        observed = result.corrections / 4096
        assert measure_f_ec(result) == pytest.approx(
            result.parity_bits_leaked / (4096 * binary_entropy(observed)),
            rel=1e-12,
        )

    def test_zero_rate_falls_back_to_per_bit_leak(self):
        alice = np.random.default_rng(5).integers(0, 2, 1024)
        result = cascade_reconcile(alice, alice.copy(), 0.01, rng_seed=9)
        assert measure_f_ec(result) == pytest.approx(15 / 1024, rel=1e-12)

    def test_rejects_out_of_range_rate(self):
        # More than half the bits corrected: the observed rate exceeds 1/2.
        result = ReconciliationResult(
            corrected_key=np.zeros(100, dtype=np.uint8),
            parity_bits_leaked=0,
            passes=1,
            residual_error_detected=False,
            corrections=60,
            transcript=(),
        )
        with pytest.raises(ValidationError, match="qber"):
            measure_f_ec(result)


class TestValidation:
    def test_minimum_length(self):
        short = np.zeros(32, dtype=int)
        with pytest.raises(ValidationError):
            cascade_reconcile(short, short.copy(), 0.01, rng_seed=1)

    def test_equal_lengths(self):
        with pytest.raises(ValidationError):
            cascade_reconcile(
                np.zeros(128, dtype=int), np.zeros(100, dtype=int), 0.01, rng_seed=1
            )

    @pytest.mark.parametrize("qber", [0.0, -0.1, 0.3, 0.6])
    def test_estimate_range(self, qber):
        key = np.zeros(128, dtype=int)
        with pytest.raises(ValidationError):
            cascade_reconcile(key, key.copy(), qber, rng_seed=1)

    def test_bit_values(self):
        with pytest.raises(ValidationError):
            cascade_reconcile(
                np.full(128, 2, dtype=int),
                np.zeros(128, dtype=int),
                0.01,
                rng_seed=1,
            )

