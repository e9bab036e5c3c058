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
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy import special

from .core import (
    BASES,
    DEFAULT_F_DS,
    DEFAULT_F_EC,
    DEFAULT_PA_EPSILON,
    ConfidenceConfig,
    DecoyScheme,
    SessionTally,
    check_real,
    conjugate_basis,
)
from .decoy import SinglePhotonBounds, single_photon_bounds
from .stats import binary_entropy

__all__ = [
    "privacy_amplification_factor",
    "secret_length",
    "KeyBudget",
    "SessionAnalysis",
    "compose_session",
]


def _clamp_error(rate: float, name: str) -> float:
    """Error rates above 1/2 carry no more extractable-information penalty.

    A NaN rate is rejected: clamping it would read it as 0, the least
    conservative rate there is.
    """
    return min(0.5, max(0.0, check_real(rate, name, "[-inf, inf]")))


# Relative weight, 2**-60, below which the terms left out of the
# typical-set window are covered by the geometric tail bound alone.
_WINDOW_LOG_PRECISION = 60.0 * math.log(2.0)


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
    width is w = min(t+1, ceil(60 ln 2 / -ln r)), which puts every dropped
    term below 2**-60 times C(n1, t); otherwise w = t+1 and nothing is
    dropped.  The dropped terms are replaced by their geometric bound
    C(n1, t) * r**w / (1-r), so the factor can only rise.  The cost is
    O(w) log-binomials after an O(log n1) bisection for t, instead of
    O(t); for large n1, r is about b1 / (1-b1), so w is 11 at b1 = 0.016,
    79 at b1 = 0.37, and grows without bound only as b1 -> 1/2.

    ``n1`` lies in [1, inf) and may be fractional (bounds are real-valued);
    it is floored, which can only increase the factor and is conservative.
    """
    epsilon = check_real(epsilon, "epsilon", "(0, 0.5)")
    n1 = math.floor(check_real(n1, "n1", "[1, inf)"))
    b1 = _clamp_error(b1, "b1")
    if b1 == 0.0:
        return 1.0
    h = binary_entropy(b1)

    # Smallest t with P[X > t] <= eps; the survival function
    # P[X > t] = I_{b1}(t+1, n1-t) is decreasing in t, so bisect.
    def tail(t: int) -> float:
        if t >= n1:
            return 0.0
        return float(special.betainc(t + 1.0, n1 - t, b1))

    lo, hi = -1, n1  # tail(lo) > eps guaranteed (P[X > -1] = 1), tail(n1) = 0
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
        w = min(w, math.ceil(_WINDOW_LOG_PRECISION / -math.log(r)))
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
    ``y1_eff``, ``mu`` and ``zero_fraction`` must be finite.
    """
    if n_sifted < 0:
        raise ValueError("n_sifted must be >= 0")
    y1_eff, mu, zero_fraction = (check_real(v, name) for name, v in (
        ("y1_eff", y1_eff), ("mu", mu), ("zero_fraction", zero_fraction)))
    f_ec, f_pa, f_ds = (check_real(f, name, "[1, inf]") for name, f in (
        ("f_ec", f_ec), ("f_pa", f_pa), ("f_ds", f_ds)))
    b1_upper = _clamp_error(b1_upper, "b1_upper")
    bit_error_rate = _clamp_error(bit_error_rate, "bit_error_rate")
    if n_sifted == 0:
        return 0
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
        return asdict(self)


@dataclass(frozen=True)
class SessionAnalysis:
    """Decoy bounds plus key budgets for both bases and both b1 variants."""

    feasible: bool
    bounds: SinglePhotonBounds
    budgets_tight: dict[str, KeyBudget]
    budgets_worst: dict[str, KeyBudget]
    total_tight: int
    total_worst: int

    def to_json(self) -> dict:
        return {
            "feasible": self.feasible,
            "y1_lower": self.bounds.y1_lower,
            "n1_lower_by_basis": dict(self.bounds.n1_lower_by_basis),
            "b1_tight_by_basis": dict(self.bounds.b1_tight_by_basis),
            "b1_worst_by_basis": dict(self.bounds.b1_worst_by_basis),
            "epsilon_bounds_consumed": self.bounds.bounds_consumed,
            "budgets_tight": {b: kb.to_json() for b, kb in self.budgets_tight.items()},
            "budgets_worst": {b: kb.to_json() for b, kb in self.budgets_worst.items()},
            "total_tight": self.total_tight,
            "total_worst": self.total_worst,
        }


def compose_session(
    tally: SessionTally,
    scheme: DecoyScheme,
    config: ConfidenceConfig = ConfidenceConfig(),
    *,
    f_ec: float = DEFAULT_F_EC,
    f_ds: float = DEFAULT_F_DS,
    pa_epsilon: float = DEFAULT_PA_EPSILON,
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
    """
    pa_epsilon = check_real(pa_epsilon, "pa_epsilon", "(0, 0.5)")
    f_ec = check_real(f_ec, "f_ec", "[1, inf]")
    f_ds = check_real(f_ds, "f_ds", "[1, inf]")
    bounds = single_photon_bounds(tally, scheme, config)

    mu = scheme.signal_mu
    signal = tally.levels[scheme.signal_index]
    n_sifted = signal.sifted
    ber = {
        b: (signal.errors[b] / n_sifted[b] if n_sifted[b] else 0.0) for b in BASES
    }
    zfrac = {b: tally.zero_fraction(b) for b in BASES}

    n1_pooled = sum(bounds.n1_lower_by_basis[b] for b in BASES)

    def budgets(variant: str, b1_by_basis: dict[str, float]) -> tuple[dict, int]:
        # One pooled typical-set factor; flip bound is the worse conjugate bound.
        if bounds.feasible and n1_pooled >= 1.0:
            b1_pool = max(_clamp_error(b1_by_basis[b], "b1") for b in BASES)
            f_pa = privacy_amplification_factor(n1_pooled, b1_pool, pa_epsilon)
        else:
            f_pa = 1.0
        out = {}
        total = 0
        for b in BASES:
            conj = conjugate_basis(b)
            b1 = b1_by_basis[conj]
            y1_eff = 0.0
            n1_b = bounds.n1_lower_by_basis[b]
            denom = n_sifted[b] * mu * math.exp(-mu)
            if denom > 0:
                y1_eff = n1_b / denom
            n_sec = 0
            if bounds.feasible and n_sifted[b] > 0:
                n_sec = secret_length(
                    n_sifted[b], y1_eff, mu, b1, ber[b], zfrac[b], f_ec, f_pa, f_ds
                )
            out[b] = KeyBudget(
                basis=b,
                variant=variant,
                n_sifted=n_sifted[b],
                n1_lower=n1_b,
                y1_eff=y1_eff,
                y1_lower_raw=bounds.y1_lower,
                mu=mu,
                b1_upper=b1,
                bit_error_rate=ber[b],
                zero_fraction=zfrac[b],
                f_ec=f_ec,
                f_pa=f_pa,
                f_ds=f_ds,
                n_secret=n_sec,
            )
            total += n_sec
        return out, total

    tight_budgets, total_tight = budgets("tight", bounds.b1_tight_by_basis)
    worst_budgets, total_worst = budgets("worst_case", bounds.b1_worst_by_basis)
    return SessionAnalysis(
        feasible=bounds.feasible,
        bounds=bounds,
        budgets_tight=tight_budgets,
        budgets_worst=worst_budgets,
        total_tight=total_tight,
        total_worst=total_worst,
    )
