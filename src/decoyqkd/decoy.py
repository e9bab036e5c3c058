"""Single-photon yield and error bounds from multi-intensity count statistics.

Alice varies the pulse intensity among the scheme's levels; the per-level
detection and error counts then over-constrain the per-photon-number yields
of the channel.  This module turns a tally into two families of linear
constraints

    Y_j_lo - tail_j  <=  sum_n  w_jn * y_n             <=  Y_j_hi
    B_j_lo - tail_j  <=  sum_n  w_jn * y_n * b_n       <=  B_j_hi

with w_jn the Poisson photon-number weights of level j truncated at the
configured cutoff (the neglected mass is absorbed into the lower-side slack
``tail_j``, so the true channel always stays inside the feasible region).
Each basis's [B_j_lo, B_j_hi] is [Y_j_lo, Y_j_hi] scaled by the level's
error-fraction interval.  From them it extracts:

* the minimal single-photon yield ``y1`` compatible with the observations,
* a tight upper bound on the single-photon error rate ``b1``: the ratio
  e1/y1 over the substituted error variables e_n = y_n * b_n, maximized by
  one linear program after the Charnes-Cooper change of variables
  (Charnes & Cooper, Naval Res. Logist. Q. 9, 1962), and
* the conservative worst-case ``b1`` that charges every observed error in a
  basis to the single-photon bits.

All confidence intervals are exact binomial bounds; each one-sided bound
individually holds except with probability epsilon.  Both LP optima are read
one way (:func:`_lp_optimum`), which fails closed: an LP that is not optimal,
or whose optimum is not finite, certifies y1 = 0 and leaves b1 at its
worst-case bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from ._simplex import solve_lp
from .core import BASES, ConfidenceConfig, DecoyScheme, SessionTally, validate_tally
from .stats import binomial_interval, poisson_tail, poisson_weights

__all__ = [
    "ConstraintSystem",
    "YieldSolution",
    "EvaluationState",
    "SinglePhotonBounds",
    "yield_bounds",
    "error_bounds",
    "solve_y1_lower",
    "b1_tight",
    "b1_worst_case",
    "single_photon_sifted_weight",
    "single_photon_bounds",
]

# Outward rounding added to the b1 LP optimum before clamping to [0, 1].
# The simplex value carries floating-point error, so the bound is raised by
# the 1e-9 conservative margin of the bisection this LP replaced, until an
# exact certificate of the LP optimum takes its place.
_B1_MARGIN = 1e-9


@dataclass(frozen=True)
class ConstraintSystem:
    """Truncated two-sided level constraints on sum_n w_jn * x_n.

    With ``basis`` None the variables are the photon-number yields y_n.
    With a basis set they are the error yields ``e_n = y_n * b_n``: the
    joint rate of an n-photon pulse being detected *and* sifted into that
    basis with the wrong bit value, normalized like a yield (per sent
    pulse, per matched-basis detection scale), so the two kinds of system
    share the y_n variables.

    ``rows`` holds the levels as stacked ``<=`` rows (A, b), built on first
    read and shared by every LP over the system: the yield system's serve
    the y1 floor and each basis's b1 bound, and A is shared by every system
    with these weights.  Equality and hashing use the fields alone.
    """

    mus: tuple[float, ...]
    lows: tuple[float, ...]      # per-level lower bounds on the rate
    highs: tuple[float, ...]     # per-level upper bounds
    weights: tuple[tuple[float, ...], ...]  # w_jn, shape (levels, cutoff+1)
    tails: tuple[float, ...]     # per-level truncated Poisson mass
    cutoff: int
    basis: str | None = None

    def __post_init__(self) -> None:
        if len(self.mus) < 1:
            raise ValueError("constraint system needs at least one level")
        if not (len(self.mus) == len(self.lows) == len(self.highs) == len(self.tails)):
            raise ValueError("per-level arrays must have equal length")
        for lo, hi in zip(self.lows, self.highs):
            if lo > hi:
                raise ValueError("lower bound exceeds upper bound")

    @cached_property
    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Two-sided level constraints as stacked <= rows (A, b), read-only."""
        hi = np.asarray(self.highs, dtype=float)
        lo = np.asarray(self.lows, dtype=float) - np.asarray(self.tails, dtype=float)
        return _lp_constants(self.weights, self.cutoff).rows, _read_only(np.concatenate([hi, -lo]))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class _LPConstants:
    """The inputs of every LP over one weight matrix that no tally changes.

    ``rows`` is [w; -w], the A of :attr:`ConstraintSystem.rows`; ``y1`` is
    the (c, A) of :func:`solve_y1_lower`, A with the y <= 1 rows; and
    :meth:`b1` gives the (c, array) of :func:`b1_tight`.  Every array is
    read-only, since every caller in the process shares it.
    """

    def __init__(self, weights: tuple[tuple[float, ...], ...], cutoff: int) -> None:
        w, eye = np.asarray(weights, dtype=float), np.eye(cutoff + 1)
        self.rows = _read_only(np.vstack([w, -w]))
        self.y1 = _read_only(eye[1]), _read_only(np.vstack([self.rows, eye]))  # min y1, y <= 1
        self._b1 = {}

    def b1(self, pin_vacuum: bool) -> tuple[np.ndarray, np.ndarray]:
        """:func:`b1_tight`'s c and LP array, zero where the tally goes: the
        s column of the level rows and the floor's right-hand side."""
        pin = int(pin_vacuum)
        if pin in self._b1:
            return self._b1[pin]
        a = self.rows
        n, dim = a.shape
        # One array holds the LP, columns [u0 u2 .. | v | s | rhs] (v from v1
        # with pin_vacuum, else from v0) and rows: the yield levels on y, the
        # error levels on e, e_n <= y_n, y_n <= 1 and the floor.
        lp = np.zeros((2 * n + 2 * dim + 1, 2 * dim - pin + 1))
        ys, es = lp[:n], lp[n : 2 * n]
        below, box = lp[2 * n : -dim - 1], lp[-dim - 1 : -1]
        ys[:, 0], ys[:, 1 : dim - 1], ys[:, -1] = a[:, 0], a[:, 2:], -a[:, 1]
        es[:, dim - 1 : -2] = a[:, pin:]
        below[0, 0], below[1, -1] = -1.0, 1.0  # v_n - u_n <= 0, u1 = 1 moved right
        np.fill_diagonal(below[2:, 1 : dim - 1], -1.0)
        np.fill_diagonal(below[pin:, dim - 1 : -2], 1.0)
        box[0, 0], box[1, -1], box[:, -2] = 1.0, -1.0, -1.0  # u_n - s <= 0
        np.fill_diagonal(box[2:, 1 : dim - 1], 1.0)
        if pin:
            # Zero-photon clicks are uncorrelated with the sender's bit, so
            # exactly half of them land as errors: v0 = u0 / 2.
            es[:, 0] = 0.5 * a[:, 0]
            below[0, 0] += 0.5
        lp[-1, -2] = 1.0  # s <= 1 / y1_lower
        c = np.zeros(lp.shape[1] - 1)
        c[dim - pin] = -1.0  # maximize v1
        self._b1[pin] = _read_only(c), _read_only(lp)
        return self._b1[pin]


# Tally-independent LP inputs kept across calls, by value: the Poisson terms
# of each (mus, cutoff) and the _LPConstants of each weight matrix.
_CACHED_SCHEMES = 32


@lru_cache(maxsize=_CACHED_SCHEMES)
def _poisson_terms(mus: tuple[float, ...], cutoff: int):
    """Per-level truncated Poisson weights and tails, as (weights, tails)."""
    return (tuple(tuple(poisson_weights(mu, cutoff)) for mu in mus),
            tuple(poisson_tail(mu, cutoff) for mu in mus))


_lp_constants = lru_cache(maxsize=_CACHED_SCHEMES)(_LPConstants)


def _lp_optimum(res, coordinate: int, margin: float = 0.0) -> float | None:
    """The one read of an LP optimum: ``x[coordinate] + margin`` clamped to [0, 1].

    None when the LP is not optimal or the value is not finite, so each
    caller falls back to its vacuous bound (y1 = 0, the worst-case b1): a
    clamp alone would read NaN as 0 and +inf as 1.
    """
    if not res.ok:
        return None
    value = float(res.x[coordinate]) + margin
    return min(1.0, max(0.0, value)) if math.isfinite(value) else None


@dataclass(frozen=True)
class YieldSolution:
    feasible: bool
    y1_lower: float
    yields: tuple[float, ...] | None  # the minimizing vertex, for diagnostics


class EvaluationState:
    """Pure results of one design-tool call, memoized by value.

    :func:`~decoyqkd.opt.optimize_scheme` and
    :func:`~decoyqkd.sim.calibrate_to_reference` each create one for the
    call and pass it to every :func:`~decoyqkd.sim.evaluate_scheme`, so
    nothing outlives the call.  ``analyses`` holds each composed session (see
    :func:`~decoyqkd.keyrate.compose_session`), ``yields`` the y1 floor of
    each yield system, and ``intervals`` each binomial interval by (k, n, ε).
    """

    def __init__(self) -> None:
        self.analyses, self.yields, self.intervals = {}, {}, {}

    def recall(self, table: str, key: tuple, compute, *args):
        """``compute(*args)``, computed once per ``key`` of the named table."""
        memo = getattr(self, table)
        value = memo.get(key)
        if value is None:
            value = memo[key] = compute(*args)
        return value


def _interval(state: EvaluationState | None, k: int, n: int, epsilon: float):
    if state is None:
        return binomial_interval(k, n, epsilon)
    return state.recall("intervals", (k, n, epsilon), binomial_interval, k, n, epsilon)


def yield_bounds(
    tally: SessionTally, scheme: DecoyScheme, config: ConfidenceConfig,
    state: EvaluationState | None = None,
) -> ConstraintSystem:
    """Exact-binomial detection-rate intervals for every intensity level.

    The per-level rate is detections (both measurement bases) over pulses
    sent, so every level must have sent pulses (checked by
    :func:`~decoyqkd.core.validate_tally`).
    """
    cutoff = config.photon_cutoff
    rates = [_interval(state, lv.detected_total(), lv.sent, config.epsilon)
             for lv in tally.levels]
    weights, tails = _poisson_terms(scheme.mus, cutoff)
    return ConstraintSystem(
        mus=scheme.mus,
        lows=tuple(lo for lo, _ in rates),
        highs=tuple(hi for _, hi in rates),
        weights=weights,
        tails=tails,
        cutoff=cutoff,
    )


def error_bounds(
    ysys: ConstraintSystem,
    tally: SessionTally,
    basis: str,
    config: ConfidenceConfig,
    state: EvaluationState | None = None,
) -> ConstraintSystem:
    """Per-level bounds on the error-weighted yield in one basis.

    The observable splits into two independently bounded factors: the
    per-sifted-bit error fraction (binomial over sifted bits) and the
    per-sent detection rate, whose interval the yield system ``ysys`` of
    the same tally already holds.  Their interval product bounds the
    error yield sum_n w_jn y_n b_n; since basis choice is independent of
    photon number, the sifting factor cancels.  The weights, tails and
    cutoff are those of ``ysys``.
    """
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    if ysys.basis is not None:
        raise ValueError("error bounds are built from a yield system")
    lows, highs = [], []
    for lv, lo, hi in zip(tally.levels, ysys.lows, ysys.highs, strict=True):
        sifted = lv.sifted[basis]
        if sifted > 0:
            r_lo, r_hi = _interval(state, lv.errors[basis], sifted, config.epsilon)
        else:
            r_lo, r_hi = 0.0, 1.0  # no data: error fraction unconstrained
        lows.append(r_lo * lo)
        highs.append(r_hi * hi)
    return replace(ysys, lows=tuple(lows), highs=tuple(highs), basis=basis)


def solve_y1_lower(system: ConstraintSystem) -> YieldSolution:
    """Minimize the single-photon yield over the truncated constraint polytope.

    Returns an infeasible result when no yield vector in [0, 1]^(cutoff+1)
    satisfies the observed count intervals (possible for adversarial or
    corrupted tallies); callers must treat that as "no key".  The optimum is
    read by :func:`_lp_optimum`, so a non-finite one gives y1 = 0.
    """
    c, a = _lp_constants(system.weights, system.cutoff).y1
    res = solve_lp(c, a, np.concatenate([system.rows[1], np.ones(system.cutoff + 1)]))
    if not res.ok:
        return YieldSolution(feasible=False, y1_lower=0.0, yields=None)
    return YieldSolution(feasible=True, y1_lower=_lp_optimum(res, 1) or 0.0,
                         yields=tuple(res.x.tolist()))


def b1_tight(
    ysys: ConstraintSystem,
    esys: ConstraintSystem,
    y1_lower: float,
    pin_vacuum: bool = True,
) -> float | None:
    """Largest single-photon error fraction consistent with the joint system.

    Maximizes e1/y1 over the joint (y, e) polytope with y1 held at or
    above its certified floor.  The Charnes-Cooper substitution u = y/y1,
    v = e/y1, s = 1/y1 turns every row ``A [y|e] <= b`` into the
    homogeneous ``A [u|v] - b s <= 0`` and the ratio into plain v1, so
    one LP gives the bound.  Its equalities are substituted into the
    columns rather than written as rows: u1 = 1 moves the u1 column to
    the right-hand side, and with ``pin_vacuum`` the v0 column folds into
    the u0 column at weight one half.  The floor y1 >= y1_lower becomes
    the one row s <= 1/y1_lower, so the floor must be positive.  Only the
    s column of the level rows and that floor vary with the tally; the rest
    is built once per weight matrix (:class:`_LPConstants`).  The optimum
    is rounded up by ``_B1_MARGIN`` and read by :func:`_lp_optimum`, so the
    result is None when the LP is infeasible or its optimum is not finite.

    With ``pin_vacuum`` the zero-photon error rate is fixed at one half
    (see :class:`~decoyqkd.core.ConfidenceConfig`); this is what lets the
    dominant dark-count error mass be deducted from the single-photon
    error budget instead of being chargeable to it.
    """
    if ysys.cutoff != esys.cutoff or ysys.mus != esys.mus or ysys.weights != esys.weights:
        raise ValueError("yield and error systems describe different schemes")
    if not y1_lower > 0.0:
        # The ratio e1/y1 is unconstrained when y1 may vanish.
        raise ValueError(f"y1_lower must be > 0 (got {y1_lower})")
    (_, by), (_, be) = ysys.rows, esys.rows
    c, skeleton = _lp_constants(ysys.weights, ysys.cutoff).b1(pin_vacuum)
    lp = skeleton.copy()
    lp[: len(by), -2], lp[len(by) : len(by) + len(be), -2] = -by, -be
    lp[-1, -1] = 1.0 / y1_lower  # s <= 1 / y1_lower
    res = solve_lp(c, lp[:, :-1], lp[:, -1])
    return _lp_optimum(res, ysys.cutoff + 1 - int(pin_vacuum), _B1_MARGIN)  # v1


def single_photon_sifted_weight(
    tally: SessionTally,
    scheme: DecoyScheme,
    basis: str,
    levels: tuple[int, ...] | None = None,
) -> float:
    """Expected sifted single-photon bits in ``basis`` per unit of y1.

    Multiplying this weight by a lower bound on y1 gives a lower bound on
    the number of sifted bits in the basis that originated from
    single-photon pulses:

        W = sum_j sent_j * mu_j * exp(-mu_j) * (sifted_jb / detected_j)

    The measured per-level sifting ratio (sifted over all detections at
    that level) is used rather than an assumed 1/2 basis-match factor.
    ``levels`` restricts the sum (e.g. to the keyed signal level); the
    default covers every intensity level.
    """
    if levels is None:
        levels = tuple(range(scheme.n_levels))
    total = 0.0
    for j in levels:
        lv = tally.levels[j]
        det = lv.detected_total()
        if det == 0:
            continue
        ratio = lv.sifted[basis] / det
        total += lv.sent * scheme.mus[j] * math.exp(-scheme.mus[j]) * ratio
    return total


def b1_worst_case(
    tally: SessionTally,
    scheme: DecoyScheme,
    y1_lower: float,
    basis: str,
) -> float:
    """Upper-bound b1 by charging every observed error to single photons.

    value = (observed errors in ``basis``) / N1_lower, clamped to [0, 1],
    over every intensity level: all errors seen in the basis are assumed
    to sit on the certified single-photon sifted population
    N1_lower = y1_lower * W.  When that population is zero the bound is
    the vacuous 1, which downstream forces a zero-length key.
    """
    n1 = y1_lower * single_photon_sifted_weight(tally, scheme, basis)
    if n1 <= 0.0:
        return 1.0
    return min(1.0, sum(lv.errors[basis] for lv in tally.levels) / n1)


@dataclass(frozen=True, slots=True)
class SinglePhotonBounds:
    """Full decoy-analysis output for one session.

    ``b1_tight_by_basis[b]`` never exceeds ``b1_worst_by_basis[b]``: both
    are valid upper confidence bounds, so the composition takes their
    minimum for the tight variant.  Per-basis values are kept as (X, Z)
    pairs; each ``*_by_basis`` read builds a dict from them.
    """

    feasible: bool
    y1_lower: float
    n1_lower: tuple[float, float]
    b1_worst: tuple[float, float]
    b1_tight: tuple[float, float]
    bounds_consumed: int  # number of one-sided epsilon-bounds used

    n1_lower_by_basis = property(lambda self: dict(zip(BASES, self.n1_lower)))
    b1_worst_by_basis = property(lambda self: dict(zip(BASES, self.b1_worst)))
    b1_tight_by_basis = property(lambda self: dict(zip(BASES, self.b1_tight)))


def single_photon_bounds(
    tally: SessionTally,
    scheme: DecoyScheme,
    config: ConfidenceConfig,
    state: EvaluationState | None = None,
) -> SinglePhotonBounds:
    """Run the complete decoy analysis: y1 floor plus both b1 variants per basis.

    ``n1_lower_by_basis``, the certified single-photon population
    available for key extraction, counts the signal level's sifted bits
    only: the decoy levels are disclosed for estimation.  Both b1 bounds,
    in contrast, use the whole session: the single-photon error rate is
    a property of the channel, not of a level, so every observed error
    constrains it.  When the y1 floor is zero (or the yield system is
    infeasible) the tight bound is the worst-case one, which is then the
    vacuous 1.  It is also the worst-case one when :func:`b1_tight` finds
    its LP infeasible.

    One b1 LP is solved per distinct basis error system.  A basis's
    error system depends on the tally only through its per-level
    (errors, sifted) counts, so when Z's equal X's, Z reuses X's system
    and tight bound: an expected tally takes two LPs (the y1 floor and
    one b1), a sampled one three.  ``bounds_consumed`` still counts both
    bases, two observations whose intervals happen to coincide.  A ``state``
    memoizes the intervals and the y1 floor (:class:`EvaluationState`).

    Raises an ``InputError`` naming ``tally`` when the tally does not
    line up with the scheme (see :func:`~decoyqkd.core.validate_tally`).
    """
    validate_tally(tally, scheme)
    ysys = yield_bounds(tally, scheme, config, state)
    ysol = (solve_y1_lower(ysys) if state is None
            else state.recall("yields", ysys, solve_y1_lower, ysys))

    n1 = {}
    worst = {}
    tight = {}
    n_levels = scheme.n_levels
    signal = (scheme.signal_index,)
    # 2 bounds per level for yields; per basis: 2 more per level for errors.
    consumed = 2 * n_levels + 2 * n_levels * len(BASES)
    # A basis's error system, and so its b1 LP, depends on the tally only
    # through its per-level (errors, sifted) counts.
    tight_by_counts: dict[tuple, float | None] = {}
    for basis in BASES:
        weight = single_photon_sifted_weight(tally, scheme, basis, signal)
        n1[basis] = ysol.y1_lower * weight
        worst[basis] = tight[basis] = b1_worst_case(tally, scheme, ysol.y1_lower, basis)
        if ysol.feasible and ysol.y1_lower > 0.0:
            counts = tuple((lv.errors[basis], lv.sifted[basis]) for lv in tally.levels)
            if counts not in tight_by_counts:
                esys = error_bounds(ysys, tally, basis, config, state)
                tight_by_counts[counts] = b1_tight(
                    ysys, esys, ysol.y1_lower, pin_vacuum=config.pin_vacuum_errors
                )
            value = tight_by_counts[counts]
            if value is not None:
                tight[basis] = min(value, worst[basis])
    return SinglePhotonBounds(
        feasible=ysol.feasible,
        y1_lower=ysol.y1_lower,
        n1_lower=(n1["X"], n1["Z"]),
        b1_worst=(worst["X"], worst["Z"]),
        b1_tight=(tight["X"], tight["Z"]),
        bounds_consumed=consumed,
    )
