"""Interactive error reconciliation for sifted key pairs.

Implements the classic multi-pass block-parity protocol: the key is cut
into blocks, block parities are compared over the public channel, and a
mismatched block is narrowed down to a single wrong bit by binary search.
Later passes reshuffle the key with larger blocks, and every correction
is cascaded back into earlier passes whose block parities it flipped.

Two bookkeeping rules keep the leak count honest without inflating it:

* every parity the reference side actually transmits is recorded in
  the transcript, whose length is the leak count, and
* a parity transmitted before is served from a cache and **not** counted
  again; the right half of a searched block is never asked for, as its
  parity is the block's XOR the left half's.

The leak count is the quantity the privacy analysis must subtract, so it
is deliberately conservative in the other direction: top-level parities
of every executed pass are all counted, even when they match.

Pass 1 searches all of its odd blocks at once, one binary-search level
at a time across every block.  This gives the same transcript and key as
searching them one by one: pass 1 has no earlier pass for a flip to
cascade into and its blocks are disjoint, so no search changes another's
parities, and the messages are put back in block-major order (each
block's top parity, then its left halves level by level), the order in
which a block-by-block loop sends them.  Its messages stay numpy arrays
inside the transcript until they are read.  Passes 2 onward run the
sequential cascade over the blocks that are odd when the pass starts.
Any other block is still even when the loop reaches it, since a flip
that makes it odd has it searched at once; so the loop sends the
top-level parities between two odd blocks as one run, skipping any that
a cascade already sent ahead.

Each pass is one record.  At set-up it takes both sides' block
parities, with one ``reduceat`` each, and keeps Bob's key in its own
order as bytes that every flip updates; pass 1, the identity, gathers
neither key.  Alice's prefix parities, which a search reads, and the
inverse shuffle, which a flip needs, are built on first use, so a pass
that never searches or is never flipped into builds neither.  A byte
mask over interval ends marks the parities already sent.  A flip found
by a later pass updates Bob's bits and parities in every record and
checks each block it changed in the other passes against Alice's
parity.

The shuffles of passes 2 onward depend only on the seed and the key
length, so they are drawn ahead.  On two or more usable CPUs one helper
thread, started with the call, draws them from the call's generator in
pass order while pass 1 and the later searches run in the calling
thread (numpy shuffles without holding the GIL); each pass takes its
shuffle when it starts.  On one CPU each pass draws its own.  The draws
are the same either way, so no output depends on the core count.  The
helper draws nothing else: numpy work that must win the GIL back from a
busy search loop waits up to a switch interval per call.  It is joined
before the call returns, and when pass 1 corrects nothing the shuffles
it has not begun are cancelled.

:func:`distill_session` runs the whole post-processing of one session
here, beside the limits it enforces: reconciliation, deskewing, the key
budget with the measured factors, and hashing.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable, Iterator, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat, starmap

import numpy as np

from .core import (BASES, DEFAULT_DESKEW_DEPTH, DEFAULT_PA_EPSILON, DEFAULT_VARIANT, VARIANTS,
                   ConfidenceConfig, DecoyScheme, InputError, SessionTally, ValidationError,
                   _usable_cpus, check_integer, check_real, validate_tally)
from .extract import _as_bits, measure_f_ds, peres_extract, privacy_amplify
from .keyrate import SessionAnalysis, compose_session
from .stats import binary_entropy

__all__ = [
    "ParityMessage",
    "ReconciliationResult",
    "cascade_reconcile",
    "measure_f_ec",
    "DistillResult",
    "distill_session",
]


# The first-pass block size is ceil(_BLOCK_SIZE_FACTOR / estimated QBER),
# the usual compromise between leak and miss probability; each later pass,
# up to _N_PASSES in all, doubles it.  The estimate may not exceed
# _MAX_QBER, where the first-pass blocks shrink to 3 bits, and a key must
# hold at least _MIN_BITS bits.
_N_PASSES = 4
_BLOCK_SIZE_FACTOR = 0.73
_MAX_QBER = 0.25
_MIN_BITS = 64


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


class _Transcript(Sequence):
    """Read-only sequence of ``ParityMessage``: pass 1's messages as
    ``(start, stop, parity)`` arrays, then the later ones as ``(pass,
    start, stop, parity)`` records; each message is built when it is read."""

    __slots__ = ("_first", "_later")

    def __init__(self, first: tuple[np.ndarray, np.ndarray, np.ndarray],
                 later: tuple[tuple[int, int, int, int], ...]) -> None:
        self._first, self._later = first, later

    def __len__(self) -> int:
        return self._first[0].size + len(self._later)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        i = range(len(self))[index]  # a non-negative index, or IndexError
        start, stop, parity = self._first
        if i >= start.size:
            return ParityMessage(*self._later[i - start.size])
        return ParityMessage(1, start.item(i), stop.item(i), parity.item(i))

    def __iter__(self):
        start, stop, parity = (column.tolist() for column in self._first)
        return chain(starmap(ParityMessage, zip(repeat(1), start, stop, parity)),
                     starmap(ParityMessage, self._later))


@dataclass(frozen=True)
class ReconciliationResult:
    """Outcome of one reconciliation run.

    Attributes
    ----------
    corrected_key : numpy.ndarray
        The corrected copy of the noisy key; same length as the input.
    passes : int
        Number of passes executed: 4, or 1 when no block of the first pass
        disagreed, as the keys then almost surely agree already and later
        passes would only re-confirm parities on record.
    residual_error_detected : bool
        True when the corrected key still differs from the reference key.
        Determined here by direct comparison, which is available because
        both keys live in the same process; a deployed system would
        compare short hashes instead, at a small extra leak.
    corrections : int
        Number of bit flips applied.
    transcript : sequence of ParityMessage
        Every disclosed parity, in transmission order.  ``cascade_reconcile``
        returns a lazy read-only sequence that builds each message only
        when it is read; a result built directly takes any sequence, such
        as a tuple.
    """

    corrected_key: np.ndarray
    passes: int
    residual_error_detected: bool
    corrections: int
    transcript: Sequence[ParityMessage] = field(repr=False)

    @property
    def parity_bits_leaked(self) -> int:
        """Number of parity bits actually disclosed: one per transcript message."""
        return len(self.transcript)


def _prefix_parity(bits: np.ndarray) -> np.ndarray:
    """``out[i]`` = parity of ``bits[:i]``, for i = 0 .. len(bits)."""
    out = np.zeros(bits.size + 1, dtype=np.uint8)
    np.bitwise_xor.accumulate(bits, out=out[1:])
    return out


class _Pass:
    """One CASCADE pass: its shuffle, both keys in its order, both sides'
    block parities, and the intervals Alice has already sent.

    ``perm[slot]`` is the key bit at ``slot`` in the pass's order.  Pass 1
    is the identity, so it gathers neither key and ``pos``, the inverse
    of ``perm``, is ``perm`` itself.  ``bob`` is Bob's key in the pass's
    order, a ``bytearray`` that every flip updates (pass 1's is the
    corrected key itself), so a search counts a half's ones in place.
    ``alice_blocks[b]`` and ``bob_blocks[b]`` are the two sides' parities
    of block b, taken at set-up with one ``reduceat`` each; ``odd`` lists
    the blocks where they differ then, and every flip keeps
    ``bob_blocks`` up to date.  Two tables are built on first use: ``pos``
    when a flip first lands in the pass, and ``prefix``, the bytes of
    Alice's prefix parities, when a search first needs it.

    The pass's own loop has sent the top-level parities of the blocks
    below ``cursor``.  Any other interval asked for is a block, or the left
    half of a node in that block's bisection tree, which ends at the
    node's midpoint.  No two nodes share a midpoint and none falls on a
    block boundary, so the byte mask ``known`` marks the ends of the
    intervals already transmitted.  A query on any other interval is
    transmitted: appended to the shared ``records`` as a ``(pass, start,
    stop, parity)`` tuple.
    """

    __slots__ = ("index", "perm", "pos", "k", "n", "alice", "bob", "prefix", "alice_blocks",
                 "bob_blocks", "odd", "cursor", "known", "records")

    def __init__(self, index: int, perm: np.ndarray | None, k: int, alice: np.ndarray,
                 bob: bytearray, records: list) -> None:
        n = alice.size
        if perm is None:
            self.perm = self.pos = np.arange(n)
        else:
            self.perm, self.pos = perm, None
            alice, bob = alice[perm], bytearray(np.frombuffer(bob, dtype=np.uint8)[perm])
        starts = np.arange(0, n, k)
        alice_blocks = np.bitwise_xor.reduceat(alice, starts)
        bob_blocks = np.bitwise_xor.reduceat(np.frombuffer(bob, dtype=np.uint8), starts)
        self.odd = np.flatnonzero(alice_blocks != bob_blocks)
        self.alice_blocks, self.bob_blocks = alice_blocks.tolist(), bob_blocks.tolist()
        self.index, self.k, self.n, self.alice, self.bob = index, k, n, alice, bob
        self.records = records
        self.prefix = None
        self.cursor = 0
        self.known = bytearray(n + 1)

    def slot(self, g: int) -> int:
        """Position of key bit ``g`` in the pass's order."""
        if self.pos is None:
            self.pos = np.empty(self.n, dtype=np.int32)
            self.pos[self.perm] = np.arange(self.n, dtype=np.int32)
        return self.pos.item(g)

    def top(self, b: int) -> int:
        """Alice's parity of block b, transmitting it if it is not on record."""
        value = self.alice_blocks[b]
        if b >= self.cursor:
            lo = b * self.k
            hi = min(lo + self.k, self.n)
            if not self.known[hi]:
                self.known[hi] = 1
                self.records.append((self.index, lo, hi, value))
        return value

    def send_blocks(self, stop: int) -> None:
        """Transmit the top-level parities of blocks ``cursor`` .. ``stop - 1``
        in block order, skipping any a cascade already sent, and move the
        cursor to ``stop``."""
        k, n, known, records, index, values = (self.k, self.n, self.known, self.records,
                                               self.index, self.alice_blocks)
        for b in range(self.cursor, stop):
            lo = b * k
            hi = min(lo + k, n)
            if not known[hi]:
                records.append((index, lo, hi, values[b]))
        self.cursor = stop

    def locate(self, b: int) -> int:
        """Binary-search block b, which holds an odd number of errors, down
        to one slot, and return that slot.

        Only the parity of the left half is ever requested at each level,
        through the same mask and record as :meth:`top`.
        """
        lo = b * self.k
        hi = min(lo + self.k, self.n)
        prefix = self.prefix
        if prefix is None:
            prefix = self.prefix = _prefix_parity(self.alice).tobytes()
        bob, known, records, sent = self.bob, self.known, self.records, self.index
        a_lo = prefix[lo]
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            a_mid = prefix[mid]
            if not known[mid]:
                known[mid] = 1
                records.append((sent, lo, mid, a_mid ^ a_lo))
            if a_mid ^ a_lo != bob.count(1, lo, mid) & 1:
                hi = mid
            else:
                lo, a_lo = mid, a_mid
        return lo

    def search_all(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Search every odd block at once, flip the bit located in each,
        and return the pass's messages as ``(start, stop, parity)`` arrays.

        Valid for pass 1 only, which has no earlier pass to cascade into
        and is the identity: its blocks are disjoint and no bit is flipped
        until every search is done, so Bob's prefix table is taken once.
        The messages are in block-major order, as a block-by-block search
        sends them.
        """
        n, k = self.n, self.k
        lo = np.arange(0, n, k)
        hi = np.minimum(lo + k, n)
        # one entry per transmitted parity: block, search level, interval, value
        block, level = [np.arange(lo.size)], [np.zeros(lo.size, dtype=np.int64)]
        start, stop = [lo], [hi]
        parity = [np.array(self.alice_blocks, dtype=np.uint8)]

        odd = self.odd
        if odd.size:
            pa = _prefix_parity(self.alice)
            bob = np.frombuffer(self.bob, dtype=np.uint8)
            pb = _prefix_parity(bob)
            lo, hi = lo[odd], hi[odd]
            live = np.flatnonzero(hi - lo > 1)
            depth = 0
            while live.size:
                depth += 1
                l, h = lo[live], hi[live]
                mid = (l + h) // 2
                left = pa[mid] ^ pa[l]
                block.append(odd[live])
                level.append(np.full(live.size, depth))
                start.append(l)
                stop.append(mid)
                parity.append(left)
                go_left = left != (pb[mid] ^ pb[l])
                lo[live] = np.where(go_left, l, mid)
                hi[live] = np.where(go_left, mid, h)
                live = live[hi[live] - lo[live] > 1]
            bob[lo] ^= 1
            self.prefix = pa.tobytes()

        order = np.lexsort((np.concatenate(level), np.concatenate(block)))
        start, stop, parity = (np.concatenate(column)[order] for column in (start, stop, parity))
        np.frombuffer(self.known, dtype=np.uint8)[stop] = 1
        self.cursor = len(self.alice_blocks)
        self.bob_blocks = self.alice_blocks.copy()  # every block now matches Alice's parity
        return start, stop, parity


@contextmanager
def _drawn_ahead(draw: Callable[[], np.ndarray], count: int,
                 ahead: bool) -> Iterator[Callable[[], np.ndarray]]:
    """Yield ``take``, which returns the result of the next of ``count`` calls
    of ``draw``, made in order.

    With ``ahead``, one helper thread starts making the calls at once, so
    they overlap the caller's work; without, ``take`` makes each call
    itself.  Either way ``draw`` is called in the same order, so the
    results are the same.  On exit the calls not yet started are cancelled
    and the helper is joined.
    """
    if not ahead:
        yield draw
        return
    pool = ThreadPoolExecutor(1)
    try:
        pending = deque(pool.submit(draw) for _ in range(count))
        yield lambda: pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def cascade_reconcile(
    alice_key,
    bob_key,
    estimated_qber: float,
    rng_seed: int,
) -> ReconciliationResult:
    """Reconcile ``bob_key`` against ``alice_key`` over a public channel.

    Pass 1 searches every odd block at once; since it cannot cascade and
    its messages keep block-major order, the result is the one a
    block-by-block search gives.  Passes 2 onward visit the blocks that
    are odd when the pass starts and cascade each flip back into the
    earlier passes, one block at a time.  Their shuffles are drawn in
    pass order from ``numpy.random.default_rng(rng_seed)``: ahead, by one
    helper thread that the call starts and joins, when two or more CPUs
    are usable, and by each pass as it starts otherwise.  The outputs do
    not depend on the core count.

    Parameters
    ----------
    alice_key, bob_key : array-like or str of 0/1
        Reference key and noisy key.  Equal lengths, at least 64 bits.
    estimated_qber : float
        A-priori estimate of the bit error rate, in (0, 0.25].  Sets the
        first-pass block size to ``ceil(0.73 / estimated_qber)``; each of
        the up to 3 later passes doubles it and reshuffles the key.
    rng_seed : int
        Seed for the shared shuffles, a non-negative integer (Python or
        numpy).  Both parties must use the same seed; runs are bit-for-bit
        reproducible.

    Returns
    -------
    ReconciliationResult

    Raises
    ------
    InputError
        Before the keys are read: naming ``estimated_qber`` when it is not
        a real number in (0, 0.25] (a bool, a string, NaN), or ``rng_seed``
        when it is negative, a bool or not an integer (such as 1.5 or "3").
    ValidationError
        On length mismatch or keys shorter than 64 bits.
    """
    estimated_qber = check_real(estimated_qber, "estimated_qber", f"(0, {_MAX_QBER}]")
    rng_seed = check_integer(rng_seed, "rng_seed")
    alice = _as_bits(alice_key, "alice_key")
    corrected = bytearray(_as_bits(bob_key, "bob_key").tobytes())  # flipped in place
    bob = np.frombuffer(corrected, dtype=np.uint8)
    if alice.size != bob.size:
        raise ValidationError("keys must have equal length")
    n = alice.size
    if n < _MIN_BITS:
        raise ValidationError(f"keys must be at least {_MIN_BITS} bits long")

    k1 = max(2, int(np.ceil(_BLOCK_SIZE_FACTOR / estimated_qber)))
    records: list[tuple[int, int, int, int]] = []
    passes: list[_Pass] = []

    def fix_block(searched: _Pass, b: int, queue: deque) -> None:
        """Search block b of ``searched`` if it is still odd, flip the bit,
        and cascade the flip.  Block b's parity is already on record: a
        block is queued only after its parity was asked for."""
        nonlocal corrections
        blocks = searched.bob_blocks
        if searched.alice_blocks[b] == blocks[b]:
            return  # an earlier flip already evened this block out
        slot = searched.locate(b)
        g = searched.perm.item(slot)
        corrections += 1
        for other in passes:
            s = slot if other is searched else other.slot(g)
            other.bob[s] ^= 1  # pass 1's copy is the corrected key itself
            ob = s // other.k
            blocks = other.bob_blocks
            blocks[ob] ^= 1
            if other is not searched and other.top(ob) != blocks[ob]:
                queue.append((other, ob))

    shuffle = partial(np.random.default_rng(rng_seed).permutation, n)
    with _drawn_ahead(shuffle, _N_PASSES - 1, _usable_cpus() >= 2) as next_shuffle:
        passes.append(_Pass(1, None, min(n, k1), alice, corrected, records))
        first = passes[0].search_all()
        corrections = passes[0].odd.size

        # When no first-pass block disagreed the keys almost surely agree
        # already, and later passes would only re-confirm parities on record.
        last = _N_PASSES if corrections else 1
        queue: deque = deque()
        for index in range(2, last + 1):
            current = _Pass(index, next_shuffle(), min(n, k1 << (index - 1)), alice, corrected,
                            records)
            passes.append(current)
            for b in current.odd.tolist():
                current.send_blocks(b + 1)
                queue.append((current, b))
                while queue:
                    fix_block(*queue.popleft(), queue)
            current.send_blocks(len(current.alice_blocks))

    return ReconciliationResult(
        corrected_key=bob,
        passes=len(passes),
        residual_error_detected=bool(np.any(alice != bob)),
        corrections=corrections,
        transcript=_Transcript(first, tuple(records)),
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


@dataclass(frozen=True)
class DistillResult:
    """Outcome of :func:`distill_session`.

    ``bases`` holds each basis's report entry: reconciliation, then
    ``deskew`` and the budget and hash fields once the keys agree.
    ``analysis`` (the budget with the measured factors) is None and
    ``final_key`` is empty when a ``residual`` mismatch survived
    reconciliation or deskewing gave no output bits.
    """

    bases: dict[str, dict]
    analysis: SessionAnalysis | None
    final_key: np.ndarray = field(repr=False)

    @property
    def residual(self) -> bool:
        """True when the keys of some basis still differ after reconciliation."""
        return any(entry["residual_error_detected"] for entry in self.bases.values())

    def final_key_bytes(self) -> bytes:
        """The final key packed into bytes, most significant bit first."""
        return np.packbits(self.final_key).tobytes()

    def to_json(self) -> dict:
        return {
            "bases": self.bases,
            "analysis": None if self.analysis is None else self.analysis.to_json(),
            "final_key_bits": int(self.final_key.size),
            "final_key_hex": self.final_key_bytes().hex(),
        }


def distill_session(
    tally: SessionTally, scheme: DecoyScheme, alice: Mapping, bob: Mapping,
    config: ConfidenceConfig = ConfidenceConfig(), *, seed: int,
    depth: int = DEFAULT_DESKEW_DEPTH, variant: str = DEFAULT_VARIANT,
    pa_epsilon: float = DEFAULT_PA_EPSILON,
) -> DistillResult:
    """Reconcile, deskew, budget and hash one session's sifted signal keys.

    ``alice`` and ``bob`` map each basis to that side's key.  The i-th
    basis is reconciled with seed ``4*seed + i`` from the tally's signal
    QBER, and its deskewed key hashed with seed ``4*seed + 2 + i`` to
    min(budget, deskewed length) bits.  The ``variant`` ("tight" or
    "worst") budget uses the larger basis's measured f_EC and f_DS,
    floored at 1: a factor below 1 is a finite-sample fluctuation, not a
    real discount.  That budget prices the disclosed parities from the
    tally, so every basis's corrections must equal the tally's
    signal-level errors.

    Raises ``InputError`` naming ``variant`` (not in ``VARIANTS``), ``depth``
    (not an integer >= 1), ``seed`` (not an integer >= 0) or ``pa_epsilon``
    (not a real number in (0, 0.5)) before any basis is reconciled, ``keys``
    (lengths unequal, unlike the tally's sifted signal count or below 64
    bits; an error count unlike the tally's) or ``tally`` (signal QBER
    above 0.25).
    """
    validate_tally(tally, scheme)
    if variant not in VARIANTS:
        raise InputError("variant", f"variant must be one of {list(VARIANTS)}, got {variant!r}")
    depth = check_integer(depth, "depth", 1)
    seed = check_integer(seed, "seed")
    pa_epsilon = check_real(pa_epsilon, "pa_epsilon", "(0, 0.5)")
    signal = tally.levels[scheme.signal_index]
    bases: dict[str, dict] = {}
    for basis in BASES:
        n = len(alice[basis])
        if n != len(bob[basis]):
            raise InputError("keys", f"alice/bob length mismatch in basis {basis}")
        if n != signal.sifted[basis]:
            raise InputError("keys", f"basis {basis} holds {n} bits but the tally "
                             f"records {signal.sifted[basis]} sifted signal bits")
        if n < _MIN_BITS:
            raise InputError("keys", f"basis {basis} holds {n} bits; "
                             f"reconciliation needs at least {_MIN_BITS}")
        qber = signal.errors[basis] / n
        if qber > _MAX_QBER:
            raise InputError("tally", f"records a signal QBER of {qber:.4g} in basis {basis}, "
                             f"above the {_MAX_QBER} that reconciliation accepts")
        bases[basis] = {"n_input": n, "estimated_qber": max(qber, 0.5 / n)}

    corrected = {}
    for i, (basis, entry) in enumerate(bases.items()):
        rec = cascade_reconcile(alice[basis], bob[basis], entry["estimated_qber"], 4 * seed + i)
        corrected[basis] = rec.corrected_key
        entry.update(corrections=rec.corrections, parity_bits_leaked=rec.parity_bits_leaked,
                     passes=rec.passes, residual_error_detected=rec.residual_error_detected,
                     f_ec_measured=measure_f_ec(rec))
    no_key = np.zeros(0, dtype=np.uint8)
    if any(entry["residual_error_detected"] for entry in bases.values()):
        return DistillResult(bases, None, no_key)
    for basis, entry in bases.items():
        if entry["corrections"] != signal.errors[basis]:
            raise InputError("keys", f"basis {basis}: reconciliation corrected "
                             f"{entry['corrections']} errors but the tally records "
                             f"{signal.errors[basis]}")

    deskewed = {}
    for basis, key in corrected.items():
        des = peres_extract(key, depth=depth)
        z = tally.zero_fraction(basis)
        deskewed[basis] = des.output_bits
        bases[basis]["deskew"] = {
            "depth": depth,
            "output_length": int(des.output_bits.size),
            "f_ds_measured": measure_f_ds(des, z) if 0.0 < z < 1.0 else des.f_ds,
        }
    f_ds = max(1.0, *(entry["deskew"]["f_ds_measured"] for entry in bases.values()))
    if math.isinf(f_ds):
        return DistillResult(bases, None, no_key)
    f_ec = max(1.0, *(entry["f_ec_measured"] for entry in bases.values()))
    analysis = compose_session(tally, scheme, config, f_ec=f_ec, f_ds=f_ds, pa_epsilon=pa_epsilon)
    budgets = analysis.budgets_tight if variant == "tight" else analysis.budgets_worst
    chunks = []
    for i, (basis, bits) in enumerate(deskewed.items()):
        n_secret = budgets[basis].n_secret
        target = min(n_secret, int(bits.size))
        hash_seed = 4 * seed + 2 + i
        chunks.append(privacy_amplify(bits, target, seed=hash_seed))
        bases[basis].update(n_secret=n_secret, final_length=target, hash_seed=hash_seed)
    return DistillResult(bases, analysis, np.concatenate(chunks))
