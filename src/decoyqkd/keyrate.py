"""Secret-key length accounting.

Combines the decoy-analysis bounds with the measured efficiency factors of
the three classical post-processing stages (error correction, deskewing,
privacy amplification) into the per-basis secret key length

    n_secret = floor( N_sifted * [ y1_eff * mu * exp(-mu) * (1 - f_pa*H2(b1))
                                   - f_ec * H2(B)
                                   - (1 - H2(z)/f_ds) ] )

floored at zero.  ``y1_eff`` is normalized per sifted bit, i.e.
``N_sifted * y1_eff * mu * exp(-mu)`` equals the certified number of sifted
bits that originated from single-photon pulses; the raw per-pulse yield
bound from the decoy analysis is converted by :func:`compose_session`.
``b1`` always comes from the conjugate basis.

Arguments are checked where they enter: by the public functions here and
by the record constructors of :mod:`~decoyqkd.core`.  Internal callers
pass checked terms and do not check them again: :func:`compose_session`
prices each basis with ``_key_length``, the core :func:`secret_length`
runs after its checks, once for the totals and once more for each read of
a session's budgets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy import special

from .core import (
    BASES,
    DEFAULT_F_DS,
    DEFAULT_F_EC,
    DEFAULT_PA_EPSILON,
    ConfidenceConfig,
    DecoyScheme,
    InputError,
    SessionTally,
    check_integer,
    check_real,
)
from .decoy import EvaluationState, SinglePhotonBounds, single_photon_bounds
from .stats import binary_entropy

__all__ = [
    "privacy_amplification_factor",
    "secret_length",
    "KeyBudget",
    "SessionAnalysis",
    "compose_session",
]


# Relative weight, 2**-60, below which the terms left out of the
# typical-set window are covered by the geometric tail bound alone.
_WINDOW_LOG_PRECISION = 60.0 * math.log(2.0)
# Most terms the window sums; the tail bound covers any it drops.
_MAX_WINDOW = 2**16


def privacy_amplification_factor(n1: int, b1: float, epsilon: float) -> float:
    """Typical-set privacy-amplification overhead factor (>= 1).

    The number of bit strings needed to cover, except with probability
    ``epsilon``, the error pattern of ``n1`` independent flips at rate
    ``b1`` is sum_{k<=t} C(n1, k) with t the smallest integer satisfying
    P[Binomial(n1, b1) > t] <= epsilon.  The factor returned is

        log2( sum_{k<=t} C(n1, k) )  /  ( n1 * H2(b1) )

    i.e. the finite-size premium over the Shannon limit.  Tends to 1 from
    above as n1 grows; equals 1 exactly when b1 = 0.

    The sum is evaluated over a window of the w largest-k terms only.  For
    k <= t, C(n1, k-1) / C(n1, k) = k / (n1-k+1) <= r = t / (n1-t+1), so the
    terms shrink at least geometrically below t.  When 0 < r < 1 the window
    width is w = min(t+1, ceil(60 ln 2 / -ln r), 2**16), which puts every
    dropped term below 2**-60 times C(n1, t) unless b1 is within 2e-4 of 1/2;
    otherwise w = t+1, or past 2**16 the sum is bounded by 2**n1 (factor
    1/H2(b1)).  Dropped terms are replaced by their geometric bound
    C(n1, t) * r**w / (1-r), so the factor can only rise.  The cost is
    O(w) log-binomials, instead of O(t), after a search for t: it starts
    at the normal quantile n1*b1 - ndtri(epsilon) * sqrt(n1*b1*(1-b1)),
    clipped to [0, n1], probes by doubling steps until it holds a
    bracket, then bisects it, taking about 3.5 incomplete-beta
    evaluations per factor where bisecting [-1, n1] took about 18; the
    tail does not increase with t, so both find the same t.  For large
    n1, r is about b1 / (1-b1), so w is 11 at b1 = 0.016, 79 at
    b1 = 0.37, and reaches the 2**16 cap only as b1 -> 1/2.

    ``n1`` lies in [1, inf) and may be fractional (bounds are real-valued);
    it is floored, which can only increase the factor and is conservative.
    """
    epsilon = check_real(epsilon, "epsilon", "(0, 0.5)")
    n1 = math.floor(check_real(n1, "n1", "[1, inf)"))
    # Rates past 1/2 cost no more; a NaN rate is refused, not read as 0.
    b1 = min(0.5, max(0.0, check_real(b1, "b1", "[-inf, inf]")))
    if b1 == 0.0:
        return 1.0
    h = binary_entropy(b1)

    # Smallest t with P[X > t] <= eps; the survival function
    # P[X > t] = I_{b1}(t+1, n1-t) does not increase with t, so any bracket
    # with tail(lo) > eps >= tail(hi) bisects to it.
    def tail(t: int) -> float:
        if t >= n1:
            return 0.0
        return float(special.betainc(t + 1.0, n1 - t, b1))

    # The normal quantile of t lies within a few steps of it: probe from
    # there by doubling steps, narrowing the bracket, until a probe leaves it.
    guess = n1 * b1 - float(special.ndtri(epsilon)) * math.sqrt(n1 * b1 * (1.0 - b1))
    lo, hi = -1, n1  # tail(-1) = 1 > eps >= tail(n1) = 0
    probe, step = min(n1, max(0, math.floor(guess))), 1
    while lo < probe < hi:
        if tail(probe) <= epsilon:
            hi, probe = probe, probe - step
        else:
            lo, probe = probe, probe + step
        step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail(mid) <= epsilon:
            hi = mid
        else:
            lo = mid
    t = hi

    r = t / (n1 - t + 1)
    w = t + 1
    if 0.0 < r < 1.0:
        w = min(w, math.ceil(_WINDOW_LOG_PRECISION / -math.log(r)), _MAX_WINDOW)
    elif w > _MAX_WINDOW:  # r >= 1: sum_{k<=t} C(n1, k) <= 2**n1
        return 1.0 / h
    ks = np.arange(t - w + 1, t + 1, dtype=float)
    log_binom = (
        special.gammaln(n1 + 1.0)
        - special.gammaln(ks + 1.0)
        - special.gammaln(n1 - ks + 1.0)
    )
    peak = float(np.max(log_binom))
    total = float(np.sum(np.exp(log_binom - peak)))
    if w <= t:  # terms k < t - w + 1 were dropped; r < 1 here
        total += math.exp(float(log_binom[-1]) - peak) * r**w / (1.0 - r)
    log_sum = peak + math.log(total)
    numerator = log_sum / math.log(2.0)
    return max(1.0, numerator / (n1 * h))


def secret_length(
    n_sifted: int,
    y1_eff: float,
    mu: float,
    b1_upper: float,
    bit_error_rate: float,
    zero_fraction: float,
    f_ec: float,
    f_pa: float,
    f_ds: float,
) -> int:
    """Distillable secret bits for one basis (never negative).

    Parameters mirror the session budget: ``y1_eff`` is the per-sifted-bit
    single-photon yield coefficient, ``b1_upper`` the conjugate-basis
    single-photon error bound, ``bit_error_rate`` the observed error
    fraction of the keyed bits, ``zero_fraction`` the bit bias, and the
    three ``f_*`` factors the measured stage efficiencies, in [1, inf].
    ``y1_eff`` and ``mu`` lie in [0, inf), ``zero_fraction`` in [0, 1], the
    error rates anywhere but NaN (past 1/2 they cost no more), ``n_sifted``
    is an integer >= 0, and ``y1_eff * mu * exp(-mu)`` is at most 1 (no more
    single-photon bits than sifted bits); else ``InputError`` names the term.
    """
    n_sifted = check_integer(n_sifted, "n_sifted")
    y1_eff = check_real(y1_eff, "y1_eff", "[0, inf)")
    mu = check_real(mu, "mu", "[0, inf)")
    b1_upper = check_real(b1_upper, "b1_upper", "[-inf, inf]")
    bit_error_rate = check_real(bit_error_rate, "bit_error_rate", "[-inf, inf]")
    zero_fraction = check_real(zero_fraction, "zero_fraction", "[0, 1]")
    f_ec, f_pa, f_ds = (check_real(f, name, "[1, inf]") for name, f in (
        ("f_ec", f_ec), ("f_pa", f_pa), ("f_ds", f_ds)))
    single_photon_share = y1_eff * (mu * math.exp(-mu))  # mu * exp(-mu) <= 1/e: no overflow
    if single_photon_share > 1.0:
        raise InputError("y1_eff", f"y1_eff * mu * exp(-mu) must be <= 1, "
                         f"got {single_photon_share}")
    return _key_length(n_sifted, y1_eff, mu, b1_upper, bit_error_rate, zero_fraction,
                       f_ec, f_pa, f_ds)


def _key_length(n_sifted, y1_eff, mu, b1_upper, bit_error_rate, zero_fraction,
                f_ec, f_pa, f_ds) -> int:
    """:func:`secret_length` on checked terms, without checking them again.

    Error rates are clamped to [0, 1/2] here; a NaN rate gives no key.
    """
    if n_sifted == 0 or math.isnan(b1_upper) or math.isnan(bit_error_rate):
        return 0
    b1_upper = min(0.5, max(0.0, b1_upper))
    bit_error_rate = min(0.5, max(0.0, bit_error_rate))
    single_photon_term = (
        y1_eff * mu * math.exp(-mu) * (1.0 - f_pa * binary_entropy(b1_upper))
    )
    ec_term = f_ec * binary_entropy(bit_error_rate)
    deskew_term = 1.0 - binary_entropy(zero_fraction) / f_ds
    bracket = single_photon_term - ec_term - deskew_term
    # A huge factor makes n_sifted * bracket overflow to -inf, and an infinite
    # one times a zero entropy makes the bracket NaN: no key either way.
    if not bracket > 0.0:
        return 0
    return math.floor(n_sifted * bracket)


@dataclass(frozen=True)
class KeyBudget:
    """Every term entering the key-length equation for one basis, auditable."""

    basis: str
    variant: str  # "tight" | "worst_case"
    n_sifted: int
    n1_lower: float
    y1_eff: float
    y1_lower_raw: float
    mu: float
    b1_upper: float
    bit_error_rate: float
    zero_fraction: float
    f_ec: float
    f_pa: float
    f_ds: float
    n_secret: int

    def to_json(self) -> dict:
        return {name: getattr(self, name) for name in _BUDGET_FIELDS}


_BUDGET_FIELDS = tuple(f.name for f in fields(KeyBudget))


@dataclass(frozen=True, slots=True)
class SessionAnalysis:
    """Decoy bounds plus key budgets for both bases and both b1 variants.

    ``terms`` holds the budget inputs ``bounds`` does not, ``(mu, f_ec, f_ds,
    f_pa_tight, f_pa_worst)`` and the signal level's sifted bits, error and
    zero fractions (X, Z each); each read of ``budgets_tight`` or
    ``budgets_worst`` builds its :class:`KeyBudget`s from them.
    """

    feasible: bool
    bounds: SinglePhotonBounds
    total_tight: int
    total_worst: int
    terms: tuple

    budgets_tight = property(lambda self: _key_budgets(self.bounds, self.terms, "tight"))
    budgets_worst = property(lambda self: _key_budgets(self.bounds, self.terms, "worst_case"))

    def to_json(self) -> dict:
        return {
            "feasible": self.feasible,
            "y1_lower": self.bounds.y1_lower,
            "n1_lower_by_basis": self.bounds.n1_lower_by_basis,
            "b1_tight_by_basis": self.bounds.b1_tight_by_basis,
            "b1_worst_by_basis": self.bounds.b1_worst_by_basis,
            "epsilon_bounds_consumed": self.bounds.bounds_consumed,
            "budgets_tight": {b: kb.to_json() for b, kb in self.budgets_tight.items()},
            "budgets_worst": {b: kb.to_json() for b, kb in self.budgets_worst.items()},
            "total_tight": self.total_tight,
            "total_worst": self.total_worst,
        }


def _priced(bounds: SinglePhotonBounds, terms: tuple, tight: bool):
    """One b1 variant's key-length terms and key length per basis, in BASES order.

    Yields ``(n_sifted, n1_lower, y1_eff, b1_upper, bit_error_rate,
    zero_fraction, f_pa, n_secret)``; each basis is priced with the
    conjugate basis's b1.
    """
    mu, f_ec, f_ds, f_pa_tight, f_pa_worst, *per_basis = terms
    f_pa = f_pa_tight if tight else f_pa_worst
    b1_pair = bounds.b1_tight if tight else bounds.b1_worst
    for i in range(len(BASES)):
        n_sifted, ber, zfrac = per_basis[i], per_basis[2 + i], per_basis[4 + i]
        b1 = b1_pair[1 - i]
        n1_b = bounds.n1_lower[i]
        denom = n_sifted * mu * math.exp(-mu)
        y1_eff = n1_b / denom if denom > 0 else 0.0
        n_sec = 0
        if bounds.feasible:
            n_sec = _key_length(n_sifted, y1_eff, mu, b1, ber, zfrac, f_ec, f_pa, f_ds)
        yield n_sifted, n1_b, y1_eff, b1, ber, zfrac, f_pa, n_sec


def _key_budgets(bounds: SinglePhotonBounds, terms: tuple, variant: str) -> dict[str, KeyBudget]:
    """One b1 variant's :class:`KeyBudget` per basis (see :func:`_priced`)."""
    mu, f_ec, f_ds = terms[:3]
    priced = _priced(bounds, terms, variant == "tight")
    out = {}
    for b, (n_sifted, n1_b, y1_eff, b1, ber, zfrac, f_pa, n_sec) in zip(BASES, priced):
        out[b] = KeyBudget(
            basis=b,
            variant=variant,
            n_sifted=n_sifted,
            n1_lower=n1_b,
            y1_eff=y1_eff,
            y1_lower_raw=bounds.y1_lower,
            mu=mu,
            b1_upper=b1,
            bit_error_rate=ber,
            zero_fraction=zfrac,
            f_ec=f_ec,
            f_pa=f_pa,
            f_ds=f_ds,
            n_secret=n_sec,
        )
    return out


def compose_session(
    tally: SessionTally,
    scheme: DecoyScheme,
    config: ConfidenceConfig = ConfidenceConfig(),
    *,
    f_ec: float = DEFAULT_F_EC,
    f_ds: float = DEFAULT_F_DS,
    pa_epsilon: float = DEFAULT_PA_EPSILON,
    state: EvaluationState | None = None,
) -> SessionAnalysis:
    """Run the decoy analysis and budget the key for both bases.

    The key is the signal level's sifted bits; the decoy levels' sifted
    bits are disclosed for estimation.  ``f_ec`` and ``f_ds`` should be
    the measured efficiencies of the reconciliation and deskewing stages;
    the privacy-amplification factor is computed here from the certified
    single-photon population.  A tally whose levels do not line up with
    ``scheme`` raises an ``InputError`` naming ``tally``.

    The single-photon population of both bases is pooled for the
    typical-set factor (the per-basis flip bounds are combined by taking
    the larger, so the pooling is conservative), matching a privacy
    amplification step applied to the concatenated reconciled key.

    ``pa_epsilon`` is the typical-set coverage confidence, a completeness
    knob (how likely the hash output must cover the realized flip
    pattern), deliberately separate from ``config.epsilon`` which prices
    the adversarial soundness bounds: an uncovered pattern costs a failed
    session, not a compromised key, so it is priced like an abort
    probability rather than a security failure.  It must lie in (0, 0.5),
    and ``f_ec`` and ``f_ds`` in [1, inf] (an infinite factor leaves no key);
    all three are checked first, whether or not the session earns a key.
    A ``state`` (:class:`~decoyqkd.decoy.EvaluationState`) keeps the analysis
    under every count of the tally, the scheme, config, and the three factors.
    """
    pa_epsilon = check_real(pa_epsilon, "pa_epsilon", "(0, 0.5)")
    f_ec = check_real(f_ec, "f_ec", "[1, inf]")
    f_ds = check_real(f_ds, "f_ds", "[1, inf]")
    if state is None:
        return _compose(tally, scheme, config, f_ec, f_ds, pa_epsilon, None)
    key = (*((lv.sent, *lv.detected.items(), *lv.sifted.items(), *lv.errors.items())
             for lv in tally.levels), *tally.zeros.items(), scheme, config, f_ec, f_ds, pa_epsilon)
    return state.recall("analyses", key, _compose,
                        tally, scheme, config, f_ec, f_ds, pa_epsilon, state)


def _compose(tally, scheme, config, f_ec, f_ds, pa_epsilon, state) -> SessionAnalysis:
    bounds = single_photon_bounds(tally, scheme, config, state)

    signal = tally.levels[scheme.signal_index]
    n_sifted = [signal.sifted[b] for b in BASES]
    ber = [signal.errors[b] / n if n else 0.0 for b, n in zip(BASES, n_sifted)]
    zfrac = [tally.zero_fraction(b) for b in BASES]
    n1_pooled = sum(bounds.n1_lower)

    def pa_factor(b1_pair: tuple[float, float]) -> float:
        # One pooled typical-set factor; flip bound is the worse conjugate bound.
        if bounds.feasible and n1_pooled >= 1.0:
            return privacy_amplification_factor(n1_pooled, max(b1_pair), pa_epsilon)
        return 1.0

    terms = (scheme.signal_mu, f_ec, f_ds, pa_factor(bounds.b1_tight),
             pa_factor(bounds.b1_worst), *n_sifted, *ber, *zfrac)
    total_tight, total_worst = (
        sum(n_secret for *_, n_secret in _priced(bounds, terms, tight)) for tight in (True, False)
    )
    return SessionAnalysis(bounds.feasible, bounds, total_tight, total_worst, terms)
