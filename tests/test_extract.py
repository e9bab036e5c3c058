"""Tests for bias removal and universal hashing."""

from __future__ import annotations

import bisect
import hashlib
import math

import numpy as np
import pytest

from decoyqkd.extract import (
    ValidationError,
    _fft_length,
    measure_f_ds,
    peres_extract,
    privacy_amplify,
)
from decoyqkd import recon
from decoyqkd.recon import cascade_reconcile
from decoyqkd.stats import binary_entropy


class TestPeresExtract:
    def test_hand_traced_depth_one(self):
        # pairs (01)(11)(10)(00): discriminated pairs emit their first bit,
        # equal pairs feed the recursion that depth 1 never runs.
        result = peres_extract([0, 1, 1, 1, 1, 0, 0, 0], 1)
        assert list(result.output_bits) == [0, 1]
        assert result.input_length == 8

    def test_hand_traced_depth_two(self):
        # one more level taps the parity and residue streams of the pairs
        result = peres_extract([0, 1, 1, 1, 1, 0, 0, 0], 2)
        assert list(result.output_bits) == [0, 1, 1, 1, 1]

    def test_output_is_binary_and_bounded(self):
        rng = np.random.default_rng(314)
        for _ in range(10):
            n = int(rng.integers(10, 5000))
            bits = rng.integers(0, 2, n)
            result = peres_extract(bits, int(rng.integers(1, 10)))
            out = np.asarray(result.output_bits)
            assert set(np.unique(out)).issubset({0, 1})
            assert out.size <= n

    def test_yield_grows_with_depth(self):
        bits = np.random.default_rng(77).integers(0, 2, 20000)
        lengths = [len(peres_extract(bits, d).output_bits) for d in range(1, 14)]
        assert lengths == sorted(lengths)
        assert lengths[-1] > lengths[0]

    def test_biased_source_statistics(self):
        # Bernoulli(0.506 ones) source; frozen extraction rates and the
        # unbiasedness of the output at several recursion depths.
        bits = (np.random.default_rng(42).random(100000) >= 0.494).astype(int)
        expectations = {
            3: (0.5794, 1.7258),
            6: (0.8230, 1.2149),
            12: (0.9608, 1.0407),
            16: (0.9650, 1.0362),
        }
        for depth, (rate, overhead) in expectations.items():
            result = peres_extract(bits, depth)
            out = np.asarray(result.output_bits)
            assert out.size / 100000 == pytest.approx(rate, abs=2e-4)
            assert measure_f_ds(result, 0.494) == pytest.approx(overhead, abs=2e-4)
            # monobit: the output must look like a fair coin
            sigma = abs(int(out.sum()) - out.size / 2) / (0.5 * math.sqrt(out.size))
            assert sigma < 4.0

    def test_output_independent_of_input_order_statistics(self):
        # extraction is deterministic: same input, same output
        bits = np.random.default_rng(9).integers(0, 2, 1000)
        a = peres_extract(bits, 5)
        b = peres_extract(bits.copy(), 5)
        assert (np.asarray(a.output_bits) == np.asarray(b.output_bits)).all()

    def test_constant_input_yields_nothing(self):
        result = peres_extract([0] * 64, 8)
        assert len(result.output_bits) == 0
        assert result.f_ds == math.inf

    def test_validation(self):
        with pytest.raises(ValidationError):
            peres_extract([0, 1, 2], 3)
        with pytest.raises(ValidationError, match="bit values must be 0 or 1"):
            peres_extract("0120", 3)
        with pytest.raises(ValidationError):
            peres_extract([0, 1, 0], 0)


def _reference_peres(bits: np.ndarray, depth: int, chunks: list) -> None:
    """The node-by-node recursion, kept as an oracle for the extractor,
    which runs the whole tree breadth-first: von Neumann bits, then the
    pair-XOR subtree, then the agreed-values subtree."""
    if depth <= 0 or bits.size < 2:
        return
    m = bits.size // 2
    first = bits[0 : 2 * m : 2]
    xors = first ^ bits[1 : 2 * m : 2]
    disagree = xors == 1
    chunks.append(first[disagree])
    _reference_peres(xors, depth - 1, chunks)
    _reference_peres(first[~disagree], depth - 1, chunks)


class TestMatchesRecursion:
    """The breadth-first pass emits the recursion's bits in its order, at
    lengths on both sides of powers of two among others."""

    LENGTHS = [2, 3, 7, 1023, 1024, 1025, 2049, 4095, 12_345, 100_000]

    @staticmethod
    def expected(bits, depth):
        chunks = []
        _reference_peres(bits, depth, chunks)
        return np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint8)

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("depth", [1, 2, 3, 12])
    @pytest.mark.parametrize("ones", [0.5, 0.46, 0.9, 1.0])  # 1.0: a constant input
    def test_output_equals_the_recursion(self, n, depth, ones):
        bits = (np.random.default_rng(n + depth).random(n) < ones).astype(np.uint8)
        out = peres_extract(bits, depth).output_bits
        assert out.dtype == np.uint8
        assert np.array_equal(out, self.expected(bits, depth))

    def test_million_bits_at_depth_12(self):
        bits = (np.random.default_rng(7).random(1_000_000) < 0.47).astype(np.uint8)
        assert np.array_equal(peres_extract(bits, 12).output_bits, self.expected(bits, 12))

    def test_random_length_bias_and_depth(self):
        rng = np.random.default_rng(2026)
        for _ in range(150):
            n = int(rng.integers(2, 20_001))
            depth = int(rng.integers(1, 15))
            bits = (rng.random(n) < rng.uniform(0.05, 0.95)).astype(np.uint8)
            out = peres_extract(bits, depth).output_bits
            assert np.array_equal(out, self.expected(bits, depth)), (n, depth)

    def test_depth_12_frozen_digest(self):
        # SHA-256 of the packed output, taken from the node-by-node recursion
        bits = (np.random.default_rng(42).random(100_000) >= 0.494).astype(np.uint8)
        out = peres_extract(bits, 12).output_bits
        assert out.size == 96078
        assert hashlib.sha256(np.packbits(out).tobytes()).hexdigest() == (
            "b967dac2f35e1fe968778c4c5cba0d623128a90a7b4cd60bca04b99c7d19c89b"
        )


class TestMeasureFDs:
    def test_definition(self):
        bits = np.random.default_rng(8).integers(0, 2, 4096)
        result = peres_extract(bits, 6)
        z = 1.0 - bits.mean()
        expected = binary_entropy(z) * 4096 / len(result.output_bits)
        assert measure_f_ds(result, z) == pytest.approx(expected, rel=1e-12)

    def test_empty_output_is_infinite_overhead(self):
        assert measure_f_ds(peres_extract([0, 0, 0, 0], 3), 0.494) == math.inf

    @pytest.mark.parametrize("z", [0.0, 1.0, -0.1, 1.5])
    def test_degenerate_bias_rejected(self, z):
        result = peres_extract([0, 1, 1, 0], 2)
        with pytest.raises(ValidationError):
            measure_f_ds(result, z)


class TestPrivacyAmplify:
    # SHA-256 of np.packbits(privacy_amplify(key, m, seed)) for keys drawn
    # from default_rng(key_seed), frozen from the row-by-row big-integer
    # product that the FFT convolution replaced.
    FROZEN_DIGESTS = [
        (100_000, 50_000, 101, 202,
         "c1d155e1fb9dd450f884fa28957deaa6b4a0aa60fdbb87574e72696c9f7de2eb"),
        (77_777, 77_777, 303, 404,
         "ba99bfcbe69a893aa523a7d122cdd1057fc16ec589870c07182249deffe1d63a"),
        (77_777, 1, 303, 404,
         "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d"),
    ]

    @pytest.mark.parametrize("n, m, key_seed, seed, digest", FROZEN_DIGESTS)
    def test_frozen_digests(self, n, m, key_seed, seed, digest):
        key = np.random.default_rng(key_seed).integers(0, 2, n, dtype=np.uint8)
        out = privacy_amplify(key, m, seed=seed)
        assert out.shape == (m,)
        assert hashlib.sha256(np.packbits(out).tobytes()).hexdigest() == digest

    def test_million_bit_key_follows_the_toeplitz_rule(self):
        n, m, seed = 1_000_000, 500_000, 2718
        key = np.random.default_rng(31).integers(0, 2, n, dtype=np.uint8)
        out = privacy_amplify(key, m, seed=seed)
        s = np.random.default_rng(seed).integers(0, 2, n + m - 1, dtype=np.uint8)
        j = np.arange(n)
        key64 = key.astype(np.int64)
        rows = np.random.default_rng(5).choice(m, 14, replace=False)
        for i in sorted({0, m - 1, *rows.tolist()}):
            assert int(np.dot(s[i + n - 1 - j].astype(np.int64), key64)) & 1 == out[i]
        # Column j of T holds s[n-1-j : n-1-j+m], so the XOR of all output
        # rows is key . (column parities), each a difference of prefix XORs.
        prefix = np.concatenate([[0], np.bitwise_xor.accumulate(s)])
        column_parity = prefix[n - 1 - j + m] ^ prefix[n - 1 - j]
        assert int(np.dot(column_parity.astype(np.int64), key64)) & 1 == int(out.sum()) & 1

    def test_rounding_error_fails_closed(self, monkeypatch):
        n, m = 4096, 1024
        key = np.random.default_rng(12).integers(0, 2, n, dtype=np.uint8)
        irfft = np.fft.irfft

        def perturbed(*args, **kwargs):
            out = irfft(*args, **kwargs)
            out[n - 1 + 100] += 0.4
            return out

        monkeypatch.setattr(np.fft, "irfft", perturbed)
        with pytest.raises(ValidationError, match="rounding"):
            privacy_amplify(key, m, seed=3)

    @pytest.mark.parametrize("n, m, fft_length", [
        (100, 36, 135),  # n + m - 1 = 135 = 3**3 * 5 is 5-smooth
        (100, 37, 144),  # one more than 5-smooth
        (1500, 526, 2025),  # 3**4 * 5**2
        (1500, 527, 2048),
    ])
    def test_five_smooth_edges_match_explicit_matrix(self, n, m, fft_length):
        assert _fft_length(n + m - 1) == fft_length
        key = np.random.default_rng(n + m).integers(0, 2, n, dtype=np.uint8)
        out = privacy_amplify(key, m, seed=m)
        band = np.random.default_rng(m).integers(0, 2, n + m - 1, dtype=np.uint8)
        matrix = band[np.arange(m)[:, None] + n - 1 - np.arange(n)[None, :]]
        assert np.array_equal(out, (matrix.astype(np.int64) @ key) % 2)

    def test_matches_explicit_toeplitz_matrix(self):
        # the hash is T.key over GF(2) with T read off one seeded diagonal
        # band; rebuild the matrix longhand and compare
        for t in range(30):
            key = np.random.default_rng(900 + t).integers(0, 2, 64)
            out = privacy_amplify(key, 16, seed=5000 + t)
            band = np.random.default_rng(5000 + t).integers(
                0, 2, 64 + 16 - 1, dtype=np.uint8
            )
            matrix = np.empty((16, 64), dtype=np.uint8)
            for i in range(16):
                for j in range(64):
                    matrix[i, j] = band[i + 63 - j]
            assert (out == (matrix @ key) % 2).all()

    def test_linear_over_gf2(self):
        rng = np.random.default_rng(1999)
        for _ in range(20):
            n = int(rng.integers(32, 512))
            m = int(rng.integers(1, n))
            seed = int(rng.integers(0, 2**31))
            a = rng.integers(0, 2, n)
            b = rng.integers(0, 2, n)
            left = privacy_amplify(a ^ b, m, seed=seed)
            right = privacy_amplify(a, m, seed=seed) ^ privacy_amplify(b, m, seed=seed)
            assert (left == right).all()

    def test_deterministic_in_seed(self):
        key = np.random.default_rng(6).integers(0, 2, 256)
        assert (privacy_amplify(key, 64, seed=9) == privacy_amplify(key, 64, seed=9)).all()
        assert (
            privacy_amplify(key, 64, seed=9) != privacy_amplify(key, 64, seed=10)
        ).any()

    def test_nonpositive_target_is_empty(self):
        key = np.random.default_rng(6).integers(0, 2, 64)
        for target in (0, -1, -100):
            out = privacy_amplify(key, target, seed=1)
            assert out.size == 0
            assert out.dtype == np.uint8

    def test_target_cannot_exceed_key(self):
        key = np.random.default_rng(6).integers(0, 2, 64)
        with pytest.raises(ValidationError):
            privacy_amplify(key, 65, seed=1)

    def test_output_shape_and_values(self):
        key = np.random.default_rng(15).integers(0, 2, 300)
        out = privacy_amplify(key, 128, seed=44)
        assert out.shape == (128,)
        assert set(np.unique(out)).issubset({0, 1})


class TestFftLength:
    @staticmethod
    def _next_smooth(x):
        """Smallest y >= x with no prime factor above 5, by trial division."""
        y = x
        while True:
            rest = y
            for p in (2, 3, 5):
                while rest % p == 0:
                    rest //= p
            if rest == 1:
                return y
            y += 1

    def test_smallest_five_smooth_by_brute_force(self):
        for x in range(1, 5001):
            assert _fft_length(x) == self._next_smooth(x), x

    @pytest.mark.parametrize("x", [2**23 - 1, 2**23, 2**23 + 1, 3**14 + 1, 5**10 - 1])
    def test_near_two_to_the_23(self, x):
        assert _fft_length(x) == self._next_smooth(x)

    def test_random_lengths_below_2_to_the_24(self):
        smooth = sorted(2**a * 3**b * 5**c for a in range(26) for b in range(17)
                        for c in range(12) if 2**a * 3**b * 5**c <= 2**25)
        for x in np.random.default_rng(23).integers(1, 2**24, 2000).tolist():
            length = _fft_length(x)
            assert length == smooth[bisect.bisect_left(smooth, x)]
            assert length <= 1 << (x - 1).bit_length()


class TestKeyArguments:
    """Every entry point that takes a key reads it by one rule: bool, integer
    and real arrays of 0/1 values and 0/1 strings are bits, and anything else
    raises ``ValidationError`` naming the argument instead of being cast."""

    # (argument name, call with that argument set to the given key of 72 bits)
    ENTRY_POINTS = [
        ("alice_key", lambda key: cascade_reconcile(key, np.zeros(72, dtype=np.uint8), 0.03, 1)),
        ("bob_key", lambda key: cascade_reconcile(np.zeros(72, dtype=np.uint8), key, 0.03, 1)),
        ("bits", lambda key: peres_extract(key, depth=3)),
        ("key", lambda key: privacy_amplify(key, 30, seed=1)),
    ]
    ENTRY_IDS = [name for name, _ in ENTRY_POINTS]
    BITS = np.random.default_rng(72).integers(0, 2, 72, dtype=np.uint8)

    @pytest.mark.parametrize("name, call", ENTRY_POINTS, ids=ENTRY_IDS)
    @pytest.mark.parametrize("key, message", [
        (np.array([0.5, 1.0, 1.9] * 24), "bit values must be 0 or 1"),
        (np.full(72, np.nan), "bit values must be 0 or 1"),
        (np.array(["1", "0"] * 36), "expected bool, integer or real bits"),
        (["1", "0"] * 36, "expected bool, integer or real bits"),
        (np.array([0, 256] * 36), "bit values must be 0 or 1"),
        (np.array([0, -1] * 36), "bit values must be 0 or 1"),
        (np.ones(72, dtype=complex), "expected bool, integer or real bits"),
    ], ids=["fraction", "nan", "string array", "string list", "256", "negative", "complex"])
    def test_rejected(self, name, call, key, message):
        with pytest.raises(ValidationError, match=f"^{name}: {message}"):
            call(key)

    @pytest.mark.parametrize("name, call", ENTRY_POINTS, ids=ENTRY_IDS)
    @pytest.mark.parametrize("convert", [
        lambda bits: bits.astype(bool),
        lambda bits: bits.astype(np.int64),
        lambda bits: bits.astype(np.float64),
        lambda bits: bits.tolist(),
        lambda bits: "".join(map(str, bits.tolist())),
    ], ids=["bool", "int64", "float64", "list", "string"])
    def test_accepted_as_uint8(self, name, call, convert):
        def plain(value):
            """A result as comparable values: arrays and the transcript as lists."""
            if isinstance(value, np.ndarray):
                return value.tolist()
            if hasattr(value, "__dataclass_fields__"):
                return {field: plain(item) for field, item in vars(value).items()}
            return list(value) if isinstance(value, recon._Transcript) else value

        assert plain(call(convert(self.BITS))) == plain(call(self.BITS))
