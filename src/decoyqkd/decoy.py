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
individually holds except with probability epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._simplex import solve_lp
from .core import BASES, ConfidenceConfig, DecoyScheme, SessionTally, validate_tally
from .stats import binomial_interval, poisson_tail, poisson_weights

__all__ = [
    "ConstraintSystem",
    "YieldSolution",
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


@dataclass(frozen=True)
class YieldSolution:
    feasible: bool
    y1_lower: float
    yields: tuple[float, ...] | None  # the minimizing vertex, for diagnostics


def yield_bounds(
    tally: SessionTally, scheme: DecoyScheme, config: ConfidenceConfig
) -> ConstraintSystem:
    """Exact-binomial detection-rate intervals for every intensity level.

    The per-level rate is detections (both measurement bases) over pulses
    sent, so every level must have sent pulses (checked by
    :func:`~decoyqkd.core.validate_tally`).
    """
    cutoff = config.photon_cutoff
    rates = [
        binomial_interval(lv.detected_total(), lv.sent, config.epsilon)
        for lv in tally.levels
    ]
    return ConstraintSystem(
        mus=scheme.mus,
        lows=tuple(lo for lo, _ in rates),
        highs=tuple(hi for _, hi in rates),
        weights=tuple(tuple(poisson_weights(mu, cutoff)) for mu in scheme.mus),
        tails=tuple(poisson_tail(mu, cutoff) for mu in scheme.mus),
        cutoff=cutoff,
    )


def error_bounds(
    ysys: ConstraintSystem,
    tally: SessionTally,
    basis: str,
    config: ConfidenceConfig,
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
            r_lo, r_hi = binomial_interval(lv.errors[basis], sifted, config.epsilon)
        else:
            r_lo, r_hi = 0.0, 1.0  # no data: error fraction unconstrained
        lows.append(r_lo * lo)
        highs.append(r_hi * hi)
    return replace(ysys, lows=tuple(lows), highs=tuple(highs), basis=basis)


def _yield_rows(system: ConstraintSystem) -> tuple[np.ndarray, np.ndarray]:
    """Two-sided level constraints as stacked <= rows (A, b)."""
    w = np.asarray(system.weights, dtype=float)
    hi = np.asarray(system.highs, dtype=float)
    lo = np.asarray(system.lows, dtype=float) - np.asarray(system.tails, dtype=float)
    a = np.vstack([w, -w])
    b = np.concatenate([hi, -lo])
    return a, b


def solve_y1_lower(system: ConstraintSystem) -> YieldSolution:
    """Minimize the single-photon yield over the truncated constraint polytope.

    Returns an infeasible result when no yield vector in [0, 1]^(cutoff+1)
    satisfies the observed count intervals (possible for adversarial or
    corrupted tallies); callers must treat that as "no key".
    """
    dim = system.cutoff + 1
    a, b = _yield_rows(system)
    a = np.vstack([a, np.eye(dim)])  # y_n <= 1
    b = np.concatenate([b, np.ones(dim)])
    c = np.zeros(dim)
    c[1] = 1.0
    res = solve_lp(c, a, b)
    if not res.ok:
        return YieldSolution(feasible=False, y1_lower=0.0, yields=None)
    y1 = min(1.0, max(0.0, float(res.x[1])))
    return YieldSolution(feasible=True, y1_lower=y1, yields=tuple(float(v) for v in res.x))


def _joint_rows(ysys, esys) -> tuple[np.ndarray, np.ndarray]:
    """The joint (y, e) polytope as stacked <= rows over [y | e]."""
    dim = ysys.cutoff + 1
    ay, by = _yield_rows(ysys)
    ae, be = _yield_rows(esys)
    eye = np.eye(dim)
    blocks = [
        (np.hstack([ay, np.zeros_like(ay)]), by),  # yield levels act on y
        (np.hstack([np.zeros_like(ae), ae]), be),  # error levels act on e
        (np.hstack([-eye, eye]), np.zeros(dim)),  # e_n <= y_n
        (np.hstack([eye, np.zeros((dim, dim))]), np.ones(dim)),  # y_n <= 1
    ]
    return np.vstack([a for a, _ in blocks]), np.concatenate([b for _, b in blocks])


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
    the one row s <= 1/y1_lower, so the floor must be positive.  The
    optimum is rounded up by ``_B1_MARGIN`` and clamped to [0, 1]; the
    result is None when the LP is infeasible.

    With ``pin_vacuum`` the zero-photon error rate is fixed at one half
    (see :class:`~decoyqkd.core.ConfidenceConfig`); this is what lets the
    dominant dark-count error mass be deducted from the single-photon
    error budget instead of being chargeable to it.
    """
    if ysys.cutoff != esys.cutoff or ysys.mus != esys.mus:
        raise ValueError("yield and error systems describe different schemes")
    if not y1_lower > 0.0:
        # The ratio e1/y1 is unconstrained when y1 may vanish.
        raise ValueError(f"y1_lower must be > 0 (got {y1_lower})")
    a, b = _joint_rows(ysys, esys)
    dim = ysys.cutoff + 1
    cc = np.hstack([a, -b[:, None]])  # columns [u | v | s]
    rhs = -cc[:, 1]  # u1 = 1
    dropped = [1]
    if pin_vacuum:
        # Zero-photon clicks are uncorrelated with the sender's bit, so
        # exactly half of them land as errors: v0 = u0 / 2.
        cc[:, 0] += 0.5 * cc[:, dim]
        dropped.append(dim)
    cc = np.delete(cc, dropped, axis=1)
    floor = np.zeros(cc.shape[1])
    floor[-1] = 1.0  # s <= 1 / y1_lower
    v1 = dim + 1 - len(dropped)
    c = np.zeros(cc.shape[1])
    c[v1] = -1.0  # maximize v1
    res = solve_lp(c, np.vstack([cc, floor]), np.append(rhs, 1.0 / y1_lower))
    if not res.ok:
        return None
    return min(1.0, max(0.0, float(res.x[v1]) + _B1_MARGIN))


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


@dataclass(frozen=True)
class SinglePhotonBounds:
    """Full decoy-analysis output for one session.

    ``b1_tight_by_basis[b]`` never exceeds ``b1_worst_by_basis[b]``: both
    are valid upper confidence bounds, so the composition takes their
    minimum for the tight variant.
    """

    feasible: bool
    y1_lower: float
    n1_lower_by_basis: dict[str, float]
    b1_worst_by_basis: dict[str, float]
    b1_tight_by_basis: dict[str, float]
    bounds_consumed: int  # number of one-sided epsilon-bounds used


def single_photon_bounds(
    tally: SessionTally,
    scheme: DecoyScheme,
    config: ConfidenceConfig,
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

    Raises ``ValidationError`` when the tally does not line up with the
    scheme (see :func:`~decoyqkd.core.validate_tally`).
    """
    validate_tally(tally, scheme)
    ysys = yield_bounds(tally, scheme, config)
    ysol = solve_y1_lower(ysys)

    n1 = {}
    worst = {}
    tight = {}
    n_levels = scheme.n_levels
    signal = (scheme.signal_index,)
    # 2 bounds per level for yields; per basis: 2 more per level for errors.
    consumed = 2 * n_levels + 2 * n_levels * len(BASES)
    for basis in BASES:
        weight = single_photon_sifted_weight(tally, scheme, basis, signal)
        n1[basis] = ysol.y1_lower * weight
        worst[basis] = tight[basis] = b1_worst_case(tally, scheme, ysol.y1_lower, basis)
        if ysol.feasible and ysol.y1_lower > 0.0:
            esys = error_bounds(ysys, tally, basis, config)
            value = b1_tight(
                ysys, esys, ysol.y1_lower, pin_vacuum=config.pin_vacuum_errors
            )
            if value is not None:
                tight[basis] = min(value, worst[basis])
    return SinglePhotonBounds(
        feasible=ysol.feasible,
        y1_lower=ysol.y1_lower,
        n1_lower_by_basis=n1,
        b1_worst_by_basis=worst,
        b1_tight_by_basis=tight,
        bounds_consumed=consumed,
    )
