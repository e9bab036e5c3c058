"""Interactive error reconciliation for sifted key pairs.

Implements the classic multi-pass block-parity protocol: the key is cut
into blocks, block parities are compared over the public channel, and a
mismatched block is narrowed down to a single wrong bit by binary search.
Later passes reshuffle the key with larger blocks, and every correction
is cascaded back into earlier passes whose block parities it flipped.

Two bookkeeping rules keep the leak count honest without inflating it:

* every parity the reference side actually transmits is counted (and
  recorded in the transcript), and
* a parity the other side can already derive — the right half of a
  searched block, or any interval whose parity was transmitted before —
  is served from a cache and **not** counted again.

The leak count is the quantity the privacy analysis must subtract, so it
is deliberately conservative in the other direction: top-level parities
of every executed pass are all counted, even when they match.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import ValidationError
from .extract import _as_bits
from .stats import binary_entropy

__all__ = [
    "ParityMessage",
    "ReconciliationResult",
    "cascade_reconcile",
    "measure_f_ec",
]


# The first-pass block size is ceil(_BLOCK_SIZE_FACTOR / estimated QBER),
# the usual compromise between leak and miss probability; each later pass,
# up to _N_PASSES in all, doubles it.
_N_PASSES = 4
_BLOCK_SIZE_FACTOR = 0.73


@dataclass(frozen=True)
class ParityMessage:
    """One parity actually sent by the reference side.

    ``pass_index`` is 1-based; ``start``/``stop`` delimit the half-open
    interval in that pass's permuted ordering (the permutation itself is
    reproducible from the protocol seed).
    """

    pass_index: int
    start: int
    stop: int
    parity: int


@dataclass(frozen=True)
class ReconciliationResult:
    """Outcome of one reconciliation run.

    Attributes
    ----------
    corrected_key : numpy.ndarray
        The corrected copy of the noisy key; same length as the input.
    parity_bits_leaked : int
        Number of parity bits actually disclosed (== ``len(transcript)``).
    passes : int
        Number of passes executed.  Smaller than the 4 passes attempted only
        when an early pass finished without a single correction, in which
        case the remaining passes could not have revealed anything new.
    residual_error_detected : bool
        True when the corrected key still differs from the reference key.
        Determined here by direct comparison, which is available because
        both keys live in the same process; a deployed system would
        compare short hashes instead, at a small extra leak.
    corrections : int
        Number of bit flips applied.
    transcript : tuple of ParityMessage
        Every disclosed parity, in transmission order.
    """

    corrected_key: np.ndarray
    parity_bits_leaked: int
    passes: int
    residual_error_detected: bool
    corrections: int
    transcript: tuple[ParityMessage, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if self.parity_bits_leaked < 0:
            raise ValidationError("parity_bits_leaked must be >= 0")
        if self.parity_bits_leaked != len(self.transcript):
            raise ValidationError("transcript length must equal the leak count")


class _ParityOracle:
    """Answers interval-parity questions about the reference key.

    Parities are precomputed per pass as prefix-XOR tables, so a query is
    O(1).  The cache distinguishes parities that had to be transmitted
    (counted, appended to the transcript) from parities derived for free.
    """

    def __init__(self) -> None:
        self._prefix: dict[int, np.ndarray] = {}
        self._cache: dict[tuple[int, int, int], int] = {}
        self.leaked = 0
        self.transcript: list[ParityMessage] = []

    def add_pass(self, p: int, alice_permuted: np.ndarray) -> None:
        # prefix[i] = parity of the first i permuted bits (wide dtype so the
        # running sum cannot wrap before the mod-2 reduction)
        wide = np.concatenate(([0], np.cumsum(alice_permuted, dtype=np.int64) & 1))
        self._prefix[p] = wide.astype(np.uint8)

    def parity(self, p: int, lo: int, hi: int) -> int:
        """Parity of interval [lo, hi) of pass ``p``, transmitting if needed."""
        key = (p, lo, hi)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        value = int(self._prefix[p][hi] ^ self._prefix[p][lo])
        self._cache[key] = value
        self.leaked += 1
        self.transcript.append(ParityMessage(p + 1, lo, hi, value))
        return value

    def record_derived(self, p: int, lo: int, hi: int, value: int) -> None:
        """Store a parity both sides can compute without transmission."""
        self._cache.setdefault((p, lo, hi), value)


def _bob_parity(bob: np.ndarray, perm: np.ndarray, lo: int, hi: int) -> int:
    return int(bob[perm[lo:hi]].sum()) & 1


def _locate_error(
    oracle: _ParityOracle,
    bob: np.ndarray,
    perm: np.ndarray,
    p: int,
    lo: int,
    hi: int,
    alice_parity: int,
) -> int:
    """Binary-search a block with an odd number of errors down to one bit.

    Only the parity of the left half is ever requested at each level; the
    right half follows from the parent and is recorded as derived.
    Returns the global index of the located bit.
    """
    while hi - lo > 1:
        mid = (lo + hi) // 2
        a_left = oracle.parity(p, lo, mid)
        b_left = _bob_parity(bob, perm, lo, mid)
        a_right = alice_parity ^ a_left
        oracle.record_derived(p, mid, hi, a_right)
        if a_left != b_left:
            hi, alice_parity = mid, a_left
        else:
            lo, alice_parity = mid, a_right
    return int(perm[lo])


def cascade_reconcile(
    alice_key,
    bob_key,
    estimated_qber: float,
    rng_seed: int,
) -> ReconciliationResult:
    """Reconcile ``bob_key`` against ``alice_key`` over a public channel.

    Parameters
    ----------
    alice_key, bob_key : array-like or str of 0/1
        Reference key and noisy key.  Equal lengths, at least 64 bits.
    estimated_qber : float
        A-priori estimate of the bit error rate, in (0, 0.25].  Sets the
        first-pass block size to ``ceil(0.73 / estimated_qber)``; each of
        the up to 3 later passes doubles it and reshuffles the key.
    rng_seed : int
        Seed for the shared shuffles.  Both parties must use the same
        seed; runs are bit-for-bit reproducible.

    Returns
    -------
    ReconciliationResult

    Raises
    ------
    ValidationError
        On length mismatch, keys shorter than 64 bits, or an error-rate
        estimate outside (0, 0.25].
    """
    alice = _as_bits(alice_key, "alice_key")
    bob = _as_bits(bob_key, "bob_key").copy()  # corrected in place
    if alice.size != bob.size:
        raise ValidationError("keys must have equal length")
    n = alice.size
    if n < 64:
        raise ValidationError("keys must be at least 64 bits long")
    if not 0.0 < estimated_qber <= 0.25:
        raise ValidationError("estimated_qber must lie in (0, 0.25]")

    rng = np.random.default_rng(rng_seed)
    k1 = max(2, int(np.ceil(_BLOCK_SIZE_FACTOR / estimated_qber)))

    oracle = _ParityOracle()
    perms: list[np.ndarray] = []
    positions: list[np.ndarray] = []  # positions[p][g] = slot of bit g in pass p
    block_size: list[int] = []
    corrections = 0
    executed = 0

    def block_bounds(p: int, slot: int) -> tuple[int, int]:
        k = block_size[p]
        lo = (slot // k) * k
        return lo, min(lo + k, n)

    def fix_block(p: int, lo: int, hi: int, queue: deque) -> None:
        """Search one odd block, flip the bit, and cascade the flip."""
        nonlocal corrections
        a = oracle.parity(p, lo, hi)
        if a == _bob_parity(bob, perms[p], lo, hi):
            return  # an earlier flip already evened this block out
        g = _locate_error(oracle, bob, perms[p], p, lo, hi, a)
        bob[g] ^= 1
        corrections += 1
        for q in range(executed):
            if q == p:
                continue
            qlo, qhi = block_bounds(q, int(positions[q][g]))
            if oracle.parity(q, qlo, qhi) != _bob_parity(bob, perms[q], qlo, qhi):
                queue.append((q, qlo, qhi))

    for p in range(_N_PASSES):
        if p == 0:
            perm = np.arange(n)
        else:
            perm = rng.permutation(n)
        perms.append(perm)
        pos = np.empty(n, dtype=np.int64)
        pos[perm] = np.arange(n)
        positions.append(pos)
        block_size.append(min(n, k1 << p))
        oracle.add_pass(p, alice[perm])
        executed = p + 1

        queue: deque = deque()
        for lo in range(0, n, block_size[p]):
            hi = min(lo + block_size[p], n)
            if oracle.parity(p, lo, hi) != _bob_parity(bob, perm, lo, hi):
                queue.append((p, lo, hi))
            while queue:
                qp, qlo, qhi = queue.popleft()
                fix_block(qp, qlo, qhi, queue)

        if corrections == 0:
            # No block in the very first pass disagreed: the keys are
            # almost surely identical already and further passes would
            # only re-confirm parities that are all on record.
            break

    return ReconciliationResult(
        corrected_key=bob,
        parity_bits_leaked=oracle.leaked,
        passes=executed,
        residual_error_detected=bool(np.any(alice != bob)),
        corrections=corrections,
        transcript=tuple(oracle.transcript),
    )


def measure_f_ec(result: ReconciliationResult) -> float:
    """Reconciliation efficiency: disclosed bits over the Shannon minimum.

    Normalizes against the error rate the run itself found,
    ``qber = corrections / n``.

    Returns
    -------
    float
        ``leak / (n * H2(qber))``.  When the error rate is zero the ratio
        is undefined (the Shannon minimum is zero); the raw per-bit leak
        ``leak / n`` is returned instead so callers still get a finite
        diagnostic — check ``result.corrections == 0`` to tell the two
        apart.
    """
    n = result.corrected_key.size
    if n == 0:
        raise ValidationError("cannot measure efficiency of an empty key")
    qber = result.corrections / n
    if qber > 0.5:
        raise ValidationError("qber must lie in [0, 0.5]")
    floor = binary_entropy(qber)
    if floor == 0.0:
        return result.parity_bits_leaked / n
    return result.parity_bits_leaked / (n * floor)
