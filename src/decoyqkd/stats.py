"""Exact small-count statistics used throughout the security analysis.

The confidence machinery deliberately avoids Gaussian approximations: every
observed count is converted to one-sided bounds on its underlying rate with
the exact binomial (Clopper-Pearson) construction, evaluated through the
regularized incomplete beta function so that sessions with ~1e11 trials are
handled without forming any factorial directly.  Both sides take one path
past their closed forms (k = 0, k = n): the beta quantile, kept when its
forward tail checks out, else bisection of the forward function.
"""

from __future__ import annotations

import math

from scipy import special

__all__ = [
    "binomial_lower",
    "binomial_upper",
    "binomial_interval",
    "binary_entropy",
    "poisson_weights",
    "poisson_tail",
]


def _bisect_to(a: float, b: float, lo: float, hi: float, target: float) -> float:
    """Invert x -> betainc(a, b, x) (increasing) to ``target`` on [lo, hi]."""
    flo = float(special.betainc(a, b, lo))
    fhi = float(special.betainc(a, b, hi))
    if flo >= target:
        return lo
    if fhi <= target:
        return hi
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        if float(special.betainc(a, b, mid)) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _quantile(a: float, b: float, mass: float, lo: float, hi: float,
              tail, epsilon: float) -> float:
    """Invert x -> betainc(a, b, x) to ``mass`` on the side's bracket [lo, hi].

    The one inversion behind both bounds.  The side supplies its bracket
    and its tail: the probability it bounds by epsilon, as a function of
    betainc.  The quantile routine loses its footing in the extreme-n,
    tiny-rate corner (it can land above the observed rate), and next to
    k = n (it can round to 1.0, see :func:`binomial_upper`).  The forward
    function stays accurate, so the quantile is kept only inside the
    bracket and with its tail within [0.2, 5] epsilon; otherwise the
    bracket is bisected.
    """
    x = float(special.betaincinv(a, b, mass))
    if not (lo <= x <= hi) or not (
        0.2 * epsilon <= tail(float(special.betainc(a, b, x))) <= 5.0 * epsilon
    ):
        x = _bisect_to(a, b, lo, hi, mass)
    return x


def binomial_lower(k: float, n: float, epsilon: float) -> float:
    """Largest rate p such that P[Binomial(n, p) >= k] <= epsilon.

    With probability at least 1 - epsilon a single observed count k drawn
    from Binomial(n, p_true) satisfies p_true >= the returned value.  For
    k <= 0 the bound is 0 (no count can certify a positive rate).

    ``k`` may be non-integral: the bound interpolates smoothly through the
    beta quantile.  Every package caller passes an observed count, since
    ``sim.expected_tally`` rounds each expected count too.
    """
    _check_count_args(k, n, epsilon)
    if k <= 0.0:
        return 0.0
    if k >= n:
        # P[X >= n] = p^n  =>  p = epsilon ** (1/n)
        return float(epsilon) ** (1.0 / n)
    # P[X >= k] = I_p(k, n - k + 1), increasing in p: the tail is I itself,
    # and the bound lies below the observed rate.
    return _quantile(k, n - k + 1.0, epsilon, 0.0, k / n, lambda f: f, epsilon)


def binomial_upper(k: float, n: float, epsilon: float) -> float:
    """Smallest rate p such that P[Binomial(n, p) <= k] <= epsilon.

    With probability at least 1 - epsilon, p_true <= the returned value.
    For k >= n the bound is 1.

    When k is so close to n that the bound lies within one ulp of 1
    (k = 999.5 of 1000 at epsilon 1e-7), the quantile rounds to 1.0, where
    the tail is 0 and the check fails, and the bisection settles on 1.0,
    the smallest double with a tail of at most epsilon.
    """
    _check_count_args(k, n, epsilon)
    if k >= n:
        return 1.0
    if k <= 0.0:
        # P[X <= 0] = (1-p)^n  =>  p = 1 - epsilon ** (1/n), formed by
        # expm1: the plain difference cancels at large n and rounds inward.
        return -math.expm1(math.log(epsilon) / n)
    # P[X <= k] = 1 - I_p(k + 1, n - k), so invert I at 1 - epsilon: the
    # tail is 1 - I, and the bound lies above the observed rate.
    return _quantile(k + 1.0, n - k, 1.0 - epsilon, k / n, 1.0, lambda f: 1.0 - f, epsilon)


def binomial_interval(k: float, n: float, epsilon: float) -> tuple[float, float]:
    """One-sided exact bounds (lower, upper) on a binomial rate.

    Each side individually holds with confidence 1 - epsilon; the pair
    therefore covers the true rate with probability at least 1 - 2*epsilon.
    """
    return binomial_lower(k, n, epsilon), binomial_upper(k, n, epsilon)


def _check_count_args(k: float, n: float, epsilon: float) -> None:
    if not (math.isfinite(k) and math.isfinite(n)):
        raise ValueError("k and n must be finite")
    if not n > 0:
        raise ValueError("n must be > 0")
    if k < 0 or k > n:
        raise ValueError(f"count k={k} must lie in [0, n={n}]")
    if not 0.0 < epsilon < 0.5:
        raise ValueError("epsilon must lie in (0, 0.5)")


def binary_entropy(p: float) -> float:
    """Shannon entropy of a bit with bias p, in bits.  H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    q = 1.0 - p
    return -(p * math.log2(p) + q * math.log2(q))


def _check_poisson_args(mu: float, cutoff: int) -> None:
    if mu < 0:
        raise ValueError("mu must be >= 0")
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")


def poisson_weights(mu: float, cutoff: int) -> list[float]:
    """Poisson probabilities e^-mu * mu^n / n! for n = 0 .. cutoff.

    Computed by the stable multiplicative recurrence; mean photon numbers
    in this pipeline are O(1) so no log-space handling is needed.
    """
    _check_poisson_args(mu, cutoff)
    weights = [math.exp(-mu)]
    for n in range(1, cutoff + 1):
        weights.append(weights[-1] * mu / n)
    return weights


def poisson_tail(mu: float, cutoff: int) -> float:
    """P[Poisson(mu) > cutoff], computed via the incomplete gamma function.

    This is the mass that the truncated constraint systems must absorb as
    slack; using gammainc keeps it accurate even when it is ~1e-12 and a
    1 - sum() evaluation would cancel.
    """
    _check_poisson_args(mu, cutoff)
    if mu == 0.0:
        return 0.0
    # P[N >= c+1] = P[Gamma(c+1, 1) <= mu]
    return float(special.gammainc(cutoff + 1.0, mu))
