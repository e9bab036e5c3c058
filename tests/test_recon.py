"""Tests for interactive parity reconciliation."""

from __future__ import annotations

import hashlib
import sys
import threading
from collections import deque

import numpy as np
import pytest

from decoyqkd import recon
from decoyqkd.core import BASES, InputError
from decoyqkd.recon import (
    ParityMessage,
    ReconciliationResult,
    ValidationError,
    cascade_reconcile,
    distill_session,
    measure_f_ec,
)
from decoyqkd.sim import reference_model, reference_scheme, simulate_session
from decoyqkd.stats import binary_entropy


def _reference_cascade(alice, bob, estimated_qber, rng_seed):
    """The block-by-block CASCADE loop, every pass sequential, as an oracle.

    Returns ``(records, corrected_key, corrections, passes)`` with one
    ``(pass_index, start, stop, parity)`` tuple per transmitted parity.
    """
    alice = np.asarray(alice, dtype=np.uint8)
    bob = np.asarray(bob, dtype=np.uint8).copy()
    n = alice.size
    rng = np.random.default_rng(rng_seed)
    k1 = max(2, int(np.ceil(0.73 / estimated_qber)))
    prefixes, cache, records = {}, {}, []

    def parity(p, lo, hi):
        key = (p, lo, hi)
        if key not in cache:
            cache[key] = int(prefixes[p][hi] ^ prefixes[p][lo])
            records.append((p + 1, lo, hi, cache[key]))
        return cache[key]

    def bob_parity(perm, lo, hi):
        return int(bob[perm[lo:hi]].sum()) & 1

    def locate_error(perm, p, lo, hi, alice_parity):
        while hi - lo > 1:
            mid = (lo + hi) // 2
            a_left = parity(p, lo, mid)
            a_right = alice_parity ^ a_left
            cache.setdefault((p, mid, hi), a_right)
            if a_left != bob_parity(perm, lo, mid):
                hi, alice_parity = mid, a_left
            else:
                lo, alice_parity = mid, a_right
        return int(perm[lo])

    perms, positions, block_size = [], [], []
    corrections = 0
    executed = 0

    def block_bounds(p, slot):
        lo = (slot // block_size[p]) * block_size[p]
        return lo, min(lo + block_size[p], n)

    def fix_block(p, lo, hi, queue):
        nonlocal corrections
        a = parity(p, lo, hi)
        if a == bob_parity(perms[p], lo, hi):
            return
        g = locate_error(perms[p], p, lo, hi, a)
        bob[g] ^= 1
        corrections += 1
        for q in range(executed):
            if q == p:
                continue
            qlo, qhi = block_bounds(q, int(positions[q][g]))
            if parity(q, qlo, qhi) != bob_parity(perms[q], qlo, qhi):
                queue.append((q, qlo, qhi))

    for p in range(4):
        perm = np.arange(n) if p == 0 else rng.permutation(n)
        perms.append(perm)
        pos = np.empty(n, dtype=np.int64)
        pos[perm] = np.arange(n)
        positions.append(pos)
        block_size.append(min(n, k1 << p))
        prefixes[p] = np.concatenate(([0], np.cumsum(alice[perm], dtype=np.int64) & 1))
        executed = p + 1
        queue = deque()
        for lo in range(0, n, block_size[p]):
            hi = min(lo + block_size[p], n)
            if parity(p, lo, hi) != bob_parity(perm, lo, hi):
                queue.append((p, lo, hi))
            while queue:
                fix_block(*queue.popleft(), queue)
        if corrections == 0:
            break
    return records, bob, corrections, executed


def _cascade_paths(transcript, n, estimated_qber):
    """Count the messages a cascade sends outside the current pass's loop.

    Returns ``(into_earlier, ahead)``: messages into a pass before the
    latest one started, and top-level parities of the latest pass sent
    while a block before them was still unsent, so before the block loop
    reached them.
    """
    k1 = max(2, int(np.ceil(0.73 / estimated_qber)))
    current, into_earlier, ahead = 0, 0, 0
    for message in transcript:
        if message.pass_index < current:
            into_earlier += 1
            continue
        if message.pass_index > current:
            current, sent, unsent = message.pass_index, set(), 0
        k = min(n, k1 << (current - 1))
        if message.start % k or message.stop != min(message.start + k, n):
            continue  # a left half, not a top-level parity
        block = message.start // k
        ahead += block > unsent
        sent.add(block)
        while unsent in sent:
            unsent += 1
    return into_earlier, ahead


def _records(result):
    return [(m.pass_index, m.start, m.stop, m.parity) for m in result.transcript]


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

    @pytest.mark.parametrize("settings, name", [
        (dict(rng_seed=-1), "rng_seed"),
        (dict(rng_seed=1.5), "rng_seed"),
        (dict(rng_seed="3"), "rng_seed"),
        (dict(rng_seed=True), "rng_seed"),
        (dict(rng_seed=np.bool_(True)), "rng_seed"),
        (dict(estimated_qber="0.03"), "estimated_qber"),
        (dict(estimated_qber=True), "estimated_qber"),
        (dict(estimated_qber=None), "estimated_qber"),
    ])
    def test_scalar_arguments(self, settings, name):
        key = np.zeros(128, dtype=int)
        with pytest.raises(ValidationError, match=name):
            cascade_reconcile(key, key.copy(), **{"estimated_qber": 0.03, "rng_seed": 1, **settings})

    def test_numpy_scalars_accepted(self):
        alice, bob = _keys(13, 1024, 0.03, 14)
        plain = cascade_reconcile(alice, bob, 0.03, rng_seed=15)
        numpy = cascade_reconcile(alice, bob, np.float64(0.03), rng_seed=np.int64(15))
        assert _records(numpy) == _records(plain)

    @pytest.mark.parametrize("settings, name", [
        (dict(seed=5, depth=0), "depth"),
        (dict(seed=-1), "seed"),
        (dict(seed=5, variant="best"), "variant"),
        (dict(seed=5, variant="worst_case"), "variant"),
    ])
    def test_distill_settings_checked_before_reconciling(self, settings, name, monkeypatch):
        def no_reconcile(*args, **kwargs):
            raise AssertionError("a basis was reconciled")

        monkeypatch.setattr(recon, "cascade_reconcile", no_reconcile)
        scheme = reference_scheme()
        tally, keys = simulate_session(reference_model(25.0), scheme, 20_000_000, 11)
        with pytest.raises(InputError) as info:
            distill_session(tally, scheme, keys.alice, keys.bob, **settings)
        assert info.value.input_name == name



class TestMatchesReferenceLoop:
    """The all-blocks-at-once first pass changes no message, flip or count."""

    @staticmethod
    def _check(alice, bob, qber, seed):
        result = cascade_reconcile(alice, bob, qber, rng_seed=seed)
        records, key, corrections, passes = _reference_cascade(alice, bob, qber, seed)
        assert _records(result) == records
        assert np.array_equal(result.corrected_key, key)
        assert result.corrections == corrections
        assert result.passes == passes
        assert result.parity_bits_leaked == len(records)
        return result

    @pytest.mark.parametrize(
        "n, qber, seed",
        [
            (1010, 0.03, 1),  # n not a multiple of k1 = 25: a last block of 10
            (1001, 0.03, 2),  # a last block of 1 bit
            (100, 0.005, 3),  # k1 = 146 >= n: one block
            (4096, 0.25, 4),  # QBER at the 0.25 limit, k1 = 3
            (4096, 0.24, 5),
        ],
    )
    def test_edge_sizes(self, n, qber, seed):
        alice, bob = _keys(seed, n, qber, 100 + seed)
        self._check(alice, bob, qber, seed)

    def test_last_block_of_one_bit_is_searched(self):
        # k1 = 25 and n = 1001: an error in bit 1000 makes the 1-bit block odd
        alice = np.random.default_rng(6).integers(0, 2, 1001)
        bob = alice.copy()
        bob[[3, 1000]] ^= 1
        result = self._check(alice, bob, 0.03, 6)
        assert (1, 1000, 1001, int(alice[1000])) in _records(result)
        assert (result.corrected_key == alice).all()

    def test_zero_errors(self):
        alice = np.random.default_rng(7).integers(0, 2, 3000)
        result = self._check(alice, alice.copy(), 0.02, 7)
        assert result.passes == 1 and result.corrections == 0

    def test_single_error(self):
        alice = np.random.default_rng(8).integers(0, 2, 3000)
        bob = alice.copy()
        bob[1234] ^= 1
        result = self._check(alice, bob, 0.02, 8)
        assert result.corrections == 1

    def test_random_pairs(self):
        rng = np.random.default_rng(9090)
        for trial in range(40):
            n = int(rng.integers(64, 6000))
            qber = float(rng.uniform(0.002, 0.12))
            alice, bob = _keys(9100 + trial, n, qber, 9200 + trial)
            self._check(alice, bob, qber, 9300 + trial)

    @pytest.mark.parametrize("qber, seed", [(0.007, 71), (0.018, 72), (0.03, 73)])
    def test_long_sessions(self, qber, seed):
        # 1e5-bit keys at the near, mid and far signal QBERs of the
        # benchmark sessions, where passes 2-4 cascade into earlier passes
        alice, bob = _keys(seed, 100_000, qber, 100 + seed)
        result = self._check(alice, bob, qber, seed)
        assert result.passes == 4 and (result.corrected_key == alice).all()
        into_earlier, ahead = _cascade_paths(result.transcript, 100_000, qber)
        assert into_earlier > 0 and ahead > 0

    @pytest.mark.parametrize("key_args, qber, seed, searched, residual", [
        ((0, 2000, 0.12, 100), 0.004, 0, 4, False),
        ((4, 2000, 0.12, 104), 0.004, 4, 4, True),
        ((1, 20000, 0.03, 2), 0.005, 3, 3, False),
    ])
    def test_estimate_far_below_true_rate(self, key_args, qber, seed, searched, residual):
        # Blocks far too long for the true rate leave errors to passes 3
        # and 4, so those passes search and cascade too.
        alice, bob = _keys(*key_args)
        result = self._check(alice, bob, qber, seed)
        assert result.residual_error_detected is residual
        n = alice.size
        k = min(n, max(2, int(np.ceil(0.73 / qber))) << (searched - 1))
        assert any(m.pass_index == searched and m.stop != min(m.start + k, n)
                   for m in result.transcript)  # a left half of that pass

    def test_long_session_frozen_digest(self):
        # 1e5 bits at 3% QBER; the digest of its (pass, start, stop, parity)
        # records as int64 was taken from the block-by-block loop.
        alice, bob = _keys(2024, 100_000, 0.03, 2025)
        result = self._check(alice, bob, 0.03, 2026)
        records = np.array(_records(result), dtype=np.int64)
        assert len(records) == 22470
        assert hashlib.sha256(records.tobytes()).hexdigest() == (
            "de3c8b864b25989109a68047801f094cf41662be19e8c471640c457c1ce5817b"
        )


class TestShufflesDrawnAhead:
    """With two usable CPUs a helper thread draws the shuffles of passes 2-4
    ahead; with one the passes draw them.  Every output is the same, and no
    thread outlives a call, even one that raises."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Return ``use(count)``, which makes ``count`` CPUs usable and
        returns the list of threads started from then on."""
        start = threading.Thread.start

        def use(count):
            started = []

            def counted(thread):
                started.append(thread)
                start(thread)

            monkeypatch.setattr(recon, "_usable_cpus", lambda: count)
            monkeypatch.setattr(threading.Thread, "start", counted)
            return started

        return use

    @pytest.fixture
    def fast_switching(self):
        """Let the interpreter switch threads every microsecond, so that the
        helper and the passes interleave as finely as they can."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)

    @staticmethod
    def _call(call, *args, **kwargs):
        """Run ``call`` and check that it leaves as many threads as it found."""
        threads = threading.active_count()
        try:
            return call(*args, **kwargs)
        finally:
            assert threading.active_count() == threads

    @pytest.mark.usefixtures("fast_switching")
    def test_matches_reference_loop(self, cpus):
        rng = np.random.default_rng(2828)
        for trial in range(24):
            n = int(rng.integers(64, 20_000))
            qber = float(rng.uniform(0.002, 0.1))
            alice, bob = _keys(2900 + trial, n, qber, 3000 + trial)
            records, key, corrections, passes = _reference_cascade(alice, bob, qber, trial)
            for count in (1, 2):
                started = cpus(count)
                result = self._call(cascade_reconcile, alice, bob, qber, rng_seed=trial)
                assert len(started) == (count > 1), (trial, count)
                assert _records(result) == records
                assert np.array_equal(result.corrected_key, key)
                assert (result.corrections, result.passes) == (corrections, passes)

    @pytest.mark.parametrize("flipped", [[], [70_000, 70_001]], ids=["no errors", "even block"])
    def test_no_first_pass_correction(self, cpus, flipped):
        # Pass 1 sees no odd block, so the call returns after it and cancels
        # the shuffles the helper has not started.
        alice = np.random.default_rng(31).integers(0, 2, 400_000, dtype=np.uint8)
        bob = alice.copy()
        bob[flipped] ^= 1
        records, key, corrections, passes = _reference_cascade(alice, bob, 0.001, 32)
        for count in (1, 2):
            started = cpus(count)
            result = self._call(cascade_reconcile, alice, bob, 0.001, rng_seed=32)
            assert len(started) == (count > 1)
            assert (result.passes, result.corrections) == (1, 0) == (passes, corrections)
            assert result.residual_error_detected is bool(flipped)
            assert _records(result) == records
            assert np.array_equal(result.corrected_key, key)

    def test_keyed_session(self, cpus):
        scheme = reference_scheme()
        tally, keys = simulate_session(reference_model(25.0), scheme, 20_000_000, 11)
        results = []
        for count in (1, 2):
            started = cpus(count)
            results.append(self._call(distill_session, tally, scheme, keys.alice, keys.bob,
                                      seed=5))
            assert len(started) == (2 if count > 1 else 0)  # one helper per basis
        one, two = results
        assert one.to_json() == two.to_json() and one.final_key.size > 0

    def test_distill_raising_after_reconciliation(self, cpus):
        scheme = reference_scheme()
        tally, keys = simulate_session(reference_model(25.0), scheme, 20_000_000, 11)
        bob = dict(keys.bob)
        agree = np.flatnonzero(keys.alice["X"] == bob["X"])
        bob["X"] = bob["X"].copy()
        bob["X"][agree[::97]] ^= 1  # errors the tally does not record
        for count in (1, 2):
            started = cpus(count)
            with pytest.raises(InputError, match="reconciliation corrected") as info:
                self._call(distill_session, tally, scheme, keys.alice, bob, seed=5)
            assert info.value.input_name == "keys"
            assert len(started) == (len(BASES) if count > 1 else 0)

    def test_unstarted_draws_are_cancelled(self):
        # The helper is inside the first of three draws when the block exits:
        # the other two never start.  The first is let finish shortly after.
        started, release, calls = threading.Event(), threading.Event(), []

        def draw():
            calls.append(len(calls))
            started.set()
            assert release.wait(10)
            return calls[-1]

        timer = threading.Timer(0.2, release.set)
        with recon._drawn_ahead(draw, 3, ahead=True):
            assert started.wait(10)
            timer.start()
        timer.join(10)
        assert not timer.is_alive()
        assert calls == [0]

    def test_pass_raising_mid_call(self, cpus, monkeypatch):
        def failing(self, b):
            raise RuntimeError("search failed")

        monkeypatch.setattr(recon._Pass, "locate", failing)
        alice, bob = _keys(41, 50_000, 0.03, 42)
        for count in (1, 2):
            started = cpus(count)
            with pytest.raises(RuntimeError, match="search failed"):
                self._call(cascade_reconcile, alice, bob, 0.03, rng_seed=43)
            assert len(started) == (count > 1)


class TestTranscriptView:
    def test_reads_like_a_tuple_of_messages(self):
        alice, bob = _keys(31, 2048, 0.03, 32)
        result = cascade_reconcile(alice, bob, 0.03, rng_seed=33)
        transcript = result.transcript
        messages = tuple(transcript)
        assert len(transcript) == len(messages) == result.parity_bits_leaked
        assert all(isinstance(m, ParityMessage) for m in messages)
        assert transcript[0] == messages[0] and transcript[-1] == messages[-1]
        assert transcript[2:5] == messages[2:5]
        assert messages[3] in transcript
        with pytest.raises(IndexError):
            transcript[len(messages)]
        with pytest.raises(TypeError):
            transcript[0] = messages[1]

    def test_split_between_first_pass_and_later_messages(self):
        alice, bob = _keys(31, 2048, 0.03, 32)
        transcript = cascade_reconcile(alice, bob, 0.03, rng_seed=33).transcript
        messages = tuple(transcript)
        split = next(i for i, m in enumerate(messages) if m.pass_index != 1)
        assert 3 <= split <= len(messages) - 3
        for part in (slice(split - 2, split + 3), slice(-len(messages) + split - 1, -1),
                     slice(split + 2, split - 3, -1), slice(None, None, -1)):
            assert transcript[part] == messages[part]
        for i in (split - 1, split, -1, split - len(messages), -len(messages)):
            assert transcript[i] == messages[i]
        with pytest.raises(IndexError):
            transcript[-len(messages) - 1]

    def test_result_accepts_a_tuple(self):
        message = ParityMessage(1, 0, 64, 1)
        result = ReconciliationResult(
            corrected_key=np.zeros(64, dtype=np.uint8),
            passes=1,
            residual_error_detected=False,
            corrections=0,
            transcript=(message,),
        )
        assert result.transcript == (message,)
        assert result.parity_bits_leaked == 1
