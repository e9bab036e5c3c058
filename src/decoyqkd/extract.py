"""Bias removal and privacy amplification for distilled keys.

Two final classical steps share this module because both are hashing-like
transforms on bit arrays:

* :func:`peres_extract` — an iterated pairwise extractor that turns a
  biased-but-independent bit stream into nearly unbiased output.  The
  classic discard-agreements trick keeps only the first bit of each
  disagreeing pair; the iterated form additionally recurses on the two
  streams the plain trick throws away (the pair XORs, and the shared
  value of agreeing pairs), recovering most of the entropy the plain
  trick wastes.
* :func:`privacy_amplify` — two-universal hashing with a seeded Toeplitz
  matrix over GF(2), compressing a partially secret key to the length
  the finite-size analysis granted.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .core import DEFAULT_DESKEW_DEPTH, ValidationError, check_integer, check_json_type, check_real
from .stats import binary_entropy

__all__ = [
    "DeskewResult",
    "peres_extract",
    "measure_f_ds",
    "privacy_amplify",
]

def _as_bits(bits, name: str) -> np.ndarray:
    """Return a 0/1 string or one-dimensional array of 0/1 values as uint8.

    The array may be bool, integer or real; any other value or dtype (such
    as 0.5, NaN or the string ``"1"``) raises ``ValidationError`` naming
    ``name``.  A uint8 array comes back as is, not copied.
    """
    if isinstance(bits, str):
        try:
            arr = np.array([int(ch) for ch in bits], dtype=np.uint8)
        except ValueError as exc:
            raise ValidationError(f"{name}: bit strings may contain only 0/1") from exc
    else:
        arr = np.asarray(bits)
        if arr.ndim != 1:
            raise ValidationError(f"{name}: expected a one-dimensional bit sequence")
        if arr.dtype.kind not in "biuf":
            raise ValidationError(f"{name}: expected bool, integer or real bits, got {arr.dtype}")
    if arr.dtype == np.uint8:
        valid = arr.max(initial=0) <= 1
    else:
        valid = ((arr == 0) | (arr == 1)).all()
    if not valid:
        raise ValidationError(f"{name}: bit values must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


@dataclass(frozen=True)
class DeskewResult:
    """Output of one deskewing run.

    ``f_ds`` is the entropy-payout ratio measured on this run: the binary
    entropy of the input's empirical zero fraction divided by the output
    rate (output bits per input bit).  A perfect extractor on an i.i.d.
    source would approach 1; ``math.inf`` when the run produced no output.
    """

    output_bits: np.ndarray
    input_length: int
    f_ds: float


def _peres_breadth_first(bits: np.ndarray, depth: int) -> np.ndarray:
    """Run the extractor tree on ``bits`` (at least 2 of them) breadth-first.

    Each level holds every live node, bits laid end to end; a node is live
    while it has at least 2 bits and depth left.  Its children go to the
    next level, all pair-XOR children first, then all agreed-values
    children.  The output is each node's von Neumann bits in the
    recursion's order: the node's own bits, then the pair-XOR subtree, then
    the agreed-values subtree.  So a node's offset is its parent's offset
    plus the parent's own bits, plus the XOR sibling's subtree total for an
    agreed-values child: the totals are summed bottom-up and the bits
    placed top-down.
    """
    lens = np.array([bits.size], dtype=np.int64)
    levels = []  # per level: own bit counts, live-child masks, own bits
    for left in range(depth - 1, -1, -1):
        if (lens & 1).any():  # drop each odd node's last bit so no pair spans two nodes
            bits = np.delete(bits, (np.cumsum(lens) - 1)[(lens & 1) == 1])
        first = bits[0::2]
        xors = first ^ bits[1::2]
        hits = np.flatnonzero(xors.view(bool))  # a bool nonzero is several times faster
        pairs = lens // 2
        own = np.diff(np.searchsorted(hits, np.cumsum(pairs)), prepend=0)
        agreed = pairs - own
        x_live = (pairs >= 2) & (left > 0)
        a_live = (agreed >= 2) & (left > 0)
        levels.append((own, x_live, a_live, first[hits]))
        if not (x_live.any() or a_live.any()):
            break
        same = np.compress(xors == 0, first)  # beats a boolean index on an unsorted mask
        bits = np.concatenate((xors if x_live.all() else xors[np.repeat(x_live, pairs)],
                               same if a_live.all() else same[np.repeat(a_live, agreed)]))
        lens = np.concatenate((pairs[x_live], agreed[a_live]))

    below = np.zeros(0, dtype=np.int64)  # subtree totals of the level below
    x_totals = []
    for own, x_live, a_live, _ in reversed(levels):
        n_x = int(np.count_nonzero(x_live))
        x_total = np.zeros(own.size, dtype=np.int64)
        x_total[x_live] = below[:n_x]
        a_total = np.zeros(own.size, dtype=np.int64)
        a_total[a_live] = below[n_x:]
        x_totals.append(x_total)
        below = own + x_total + a_total

    out = np.empty(int(below[0]), dtype=np.uint8)
    offset = np.zeros(1, dtype=np.int64)
    for (own, x_live, a_live, own_bits), x_total in zip(levels, reversed(x_totals)):
        if own.size == 1:
            out[offset[0] : offset[0] + own_bits.size] = own_bits
        else:
            start = np.cumsum(own) - own
            out[np.repeat(offset - start, own) + np.arange(own_bits.size)] = own_bits
        x_off = offset + own
        offset = np.concatenate((x_off[x_live], (x_off + x_total)[a_live]))
    return out


def peres_extract(bits, depth: int = DEFAULT_DESKEW_DEPTH) -> DeskewResult:
    """Extract nearly unbiased bits from an independent, biased stream.

    Parameters
    ----------
    bits : array-like or str of 0/1
        Input bit stream.  Bits must be independent for the output to be
        unbiased; correlations survive the transform.
    depth : int
        Recursion depth.  Depth 1 is the plain discard-agreements
        extractor with output rate p(1-p); each extra level recurses on
        both discarded streams.  For an unbiased source the expected
        output rate at depth d is 1 - 0.75^d, so rate loss falls below
        ~3.2% from depth 12 on, which is the default.  Output length is
        non-decreasing in depth.

    Returns
    -------
    DeskewResult

    Raises
    ------
    ValidationError
        If ``depth`` is not an integer >= 1 (``InputError``) or the input is empty.
    """
    depth = check_integer(depth, "depth", 1)
    arr = _as_bits(bits, "bits")
    if arr.size < 2:
        raise ValidationError("need at least one pair of bits to deskew")
    out = _peres_breadth_first(arr, depth)
    zero_fraction = float(np.count_nonzero(arr == 0)) / arr.size
    rate = out.size / arr.size
    f_ds = binary_entropy(zero_fraction) / rate if rate > 0 else math.inf
    return DeskewResult(
        output_bits=out,
        input_length=int(arr.size),
        f_ds=f_ds,
    )


def measure_f_ds(result: DeskewResult, zero_fraction: float) -> float:
    """Deskewing overhead against a stated source bias.

    Divides the entropy per input bit, ``H2(zero_fraction)``, by the
    achieved output rate.  Values near 1 mean the extractor paid out
    almost all the entropy the source carried; the key-length formula
    charges the analysis with exactly this ratio.

    Returns ``math.inf`` (undefined overhead) when the run produced no
    output bits.
    """
    zero_fraction = check_real(zero_fraction, "zero_fraction", "(0, 1)")
    if result.output_bits.size == 0:
        return math.inf
    rate = result.output_bits.size / result.input_length
    return binary_entropy(zero_fraction) / rate


def _fft_length(x: int) -> int:
    """Smallest 5-smooth number ``2**a * 3**b * 5**c >= x``, for x >= 1.

    numpy's FFT has radix-2, 3 and 5 passes, so such a length is about as
    fast per point as a power of two and up to half as long.
    """
    best = 1 << (x - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-x // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def privacy_amplify(key, target_length: int, seed: int) -> np.ndarray:
    """Compress ``key`` to ``target_length`` bits with a seeded Toeplitz hash.

    The hash matrix ``T`` (``m = target_length`` x ``n``) has constant
    diagonals, ``T[i, j] = s[i + (n - 1) - j]``, read from ``n + m - 1`` seed
    bits ``s`` drawn from ``numpy.random.default_rng(seed)``.  The output
    ``T @ key`` over GF(2) is exactly linear:
    ``hash(a XOR b) == hash(a) XOR hash(b)`` for keys hashed with one seed.

    Row ``i`` of ``T @ key`` is entry ``n - 1 + i`` of the convolution of ``s``
    with ``key``: one float64 FFT convolution of length ``N``, the smallest
    5-smooth number (``2**a * 3**b * 5**c``) ``>= n + m - 1`` (its wrap-around
    misses the kept window), rounded and taken mod 2, in
    O((n + m) log(n + m)) work.  ``N`` is less than the next power of two, so
    the rounding error bound ``eps * log2(N) * sqrt(n * (n + m - 1))`` only
    shrinks: near 1e-10 at 1e6 bits and 1e-9 at 1e7, far below the 0.5 that
    would flip a bit.  A kept entry more than 0.25 from an integer raises
    ``ValidationError``, emitting no key.

    Parameters
    ----------
    key : array-like or str of 0/1
    target_length : int
        Desired output length, at most ``len(key)``.  Zero or negative
        yields an empty array — a valid zero-key session, not an error.
    seed : int
        Seed for the hash matrix, an integer >= 0; both parties use the same one.

    Returns
    -------
    numpy.ndarray
        ``target_length`` hashed bits (uint8).
    """
    seed = check_integer(seed, "seed")
    arr = _as_bits(key, "key")
    n = int(arr.size)
    if check_json_type(target_length, int, "target_length") > n:
        raise ValidationError("target_length cannot exceed the key length")
    if target_length <= 0:
        return np.zeros(0, dtype=np.uint8)

    s = np.random.default_rng(seed).integers(0, 2, n + target_length - 1, dtype=np.uint8)
    size = _fft_length(s.size)
    # The product and the rounding check work in place.
    spectrum = np.fft.rfft(s, size)
    spectrum *= np.fft.rfft(arr, size)
    window = np.fft.irfft(spectrum, size)[n - 1 : n - 1 + target_length]
    counts = np.rint(window)
    window -= counts
    if not (np.abs(window, out=window) <= 0.25).all():
        raise ValidationError("Toeplitz hash: FFT rounding error too large; no key emitted")
    counts %= 2
    return counts.astype(np.uint8)
