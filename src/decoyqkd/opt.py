"""Scheme optimization and rate-versus-distance curves.

The optimizer maximizes the predicted secret-key total under the tight
single-photon error variant, evaluating candidate schemes on the
deterministic expected tally (expected counts pushed through the same
confidence-bound machinery as real data).  Monte-Carlo noise would make
coordinate descent wander, and the expected tally is exactly what the
analysis would see on the average session, so the deterministic
objective is both smooth and honest about finite-size penalties.

Coordinate descent over (mu1, mu2, p0, p1) with the vacuum-like level
pinned to the transmitter's extinction floor (a fixed dB ratio below
the signal level) and p2 taken as the probability remainder.  Each
refinement stage re-scans every coordinate on a shrinking bracket; no
global-optimality claim is made.
"""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass

from .core import (
    DEFAULT_EXTINCTION_DB,
    DEFAULT_F_DS,
    DEFAULT_F_EC,
    DEFAULT_POINTS_PER_STAGE,
    DEFAULT_STAGES,
    ChannelModel,
    ConfidenceConfig,
    DecoyScheme,
    InputError,
    ValidationError,
)
from .keyrate import SessionAnalysis, compose_session
from .sim import (
    REFERENCE_SIFT_RATIO,
    REFERENCE_ZERO_FRACTION,
    expected_tally,
    reference_scheme,
)

__all__ = [
    "NoValidSchemeError",
    "OptimizationResult",
    "CurvePoint",
    "RangeCurve",
    "evaluate_scheme",
    "optimize_scheme",
    "range_curve",
    "curve_csv",
]


class NoValidSchemeError(InputError):
    """The scheme search met no valid scheme: at the given ``extinction_db``
    the vacuum level never falls below the decoy level."""


def evaluate_scheme(
    model: ChannelModel,
    scheme: DecoyScheme,
    pulses: int,
    *,
    config: ConfidenceConfig = ConfidenceConfig(),
    f_ec: float = DEFAULT_F_EC,
    f_ds: float = DEFAULT_F_DS,
    sift_ratio: float = REFERENCE_SIFT_RATIO,
    zero_fraction: float = REFERENCE_ZERO_FRACTION,
) -> SessionAnalysis:
    """Analysis of the expected (deterministic) session for one scheme."""
    tally = expected_tally(
        model, scheme, pulses, sift_ratio=sift_ratio, zero_fraction=zero_fraction
    )
    return compose_session(tally, scheme, config, f_ec=f_ec, f_ds=f_ds)


@dataclass(frozen=True)
class OptimizationResult:
    """Best scheme found plus the full search history.

    ``feasible`` is False when every evaluated scheme produced zero key
    (the distance/duration is beyond range); the returned scheme is then
    just the final search point and the totals are 0.  ``trace`` holds
    one dict per objective evaluation, in evaluation order.
    """

    scheme: DecoyScheme
    analysis: SessionAnalysis
    n_secret_tight: int
    n_secret_worst: int
    feasible: bool
    evaluations: int
    trace: tuple[dict, ...]


def _clipped_scheme(
    mu1: float, mu2: float, p0: float, p1: float, extinction_db: float
) -> DecoyScheme | None:
    """Build a 3-level scheme from free coordinates, or None if degenerate."""
    mu0 = mu2 * 10.0 ** (-extinction_db / 10.0)
    if not mu0 < mu1 < mu2:
        return None
    p2 = 1.0 - p0 - p1
    if p2 <= 0.01:
        return None
    return DecoyScheme(mus=(mu0, mu1, mu2), send_probs=(p0, p1, p2))


def optimize_scheme(
    model: ChannelModel,
    pulses: int,
    *,
    extinction_db: float = DEFAULT_EXTINCTION_DB,
    stages: int = DEFAULT_STAGES,
    points_per_stage: int = DEFAULT_POINTS_PER_STAGE,
    initial_scheme: DecoyScheme | None = None,
    config: ConfidenceConfig = ConfidenceConfig(),
    f_ec: float = DEFAULT_F_EC,
    f_ds: float = DEFAULT_F_DS,
    sift_ratio: float = REFERENCE_SIFT_RATIO,
    zero_fraction: float = REFERENCE_ZERO_FRACTION,
) -> OptimizationResult:
    """Search for the scheme maximizing the tight-variant key total.

    Parameters
    ----------
    model, pulses
        Link and session size the schemes are evaluated against.
    extinction_db : float
        The lowest level is pinned this many dB below the signal level
        (transmitter extinction-ratio floor) rather than searched.
    stages : int
        Refinement stages; each shrinks every coordinate's bracket
        around the incumbent and re-scans.
    points_per_stage : int
        Grid points per coordinate per scan.
    initial_scheme : DecoyScheme, optional
        Starting point (defaults to the demonstration-link scheme);
        useful for warm starts along a distance sweep.

    Raises
    ------
    NoValidSchemeError
        When no candidate on the search grid is a valid scheme, which
        happens when ``extinction_db`` is too small to put the vacuum
        level below the decoy level.
    InputError
        Naming ``pulses`` when every valid candidate would send no pulse
        at some level.  A candidate that does so is skipped like a
        degenerate one: its yield could not be bounded.

    Notes
    -----
    Ties in the tight total break toward the larger worst-case total,
    so the reported scheme never sacrifices the conservative variant
    for nothing.
    """
    if stages < 1 or points_per_stage < 3:
        raise ValidationError("need at least one stage and three grid points")
    start = initial_scheme if initial_scheme is not None else reference_scheme()
    if start.n_levels != 3:
        raise ValidationError("the optimizer searches 3-level schemes only")

    # free coordinates and their hard search boxes
    bounds = {
        "mu1": (0.01, 0.9),
        "mu2": (0.05, 1.5),
        "p0": (0.02, 0.6),
        "p1": (0.02, 0.7),
    }
    current = {
        "mu1": min(max(start.mus[1], bounds["mu1"][0]), bounds["mu1"][1]),
        "mu2": min(max(start.mus[2], bounds["mu2"][0]), bounds["mu2"][1]),
        "p0": min(max(start.send_probs[0], bounds["p0"][0]), bounds["p0"][1]),
        "p1": min(max(start.send_probs[1], bounds["p1"][0]), bounds["p1"][1]),
    }

    knobs = dict(config=config, f_ec=f_ec, f_ds=f_ds, sift_ratio=sift_ratio,
                 zero_fraction=zero_fraction)
    trace: list[dict] = []
    cache: dict[tuple, SessionAnalysis] = {}

    def objective(c: dict) -> tuple[int, int]:
        scheme = _clipped_scheme(c["mu1"], c["mu2"], c["p0"], c["p1"], extinction_db)
        if scheme is None or any(round(pulses * p) < 1 for p in scheme.send_probs):
            return (-1, -1)  # degenerate, or a level would send no pulse
        key = (scheme.mus, scheme.send_probs)
        hit = cache.get(key)
        if hit is not None:
            return (hit.total_tight, hit.total_worst)
        analysis = evaluate_scheme(model, scheme, pulses, **knobs)
        value = (analysis.total_tight, analysis.total_worst)
        cache[key] = analysis
        trace.append(
            {
                "mu0": scheme.mus[0],
                "mu1": scheme.mus[1],
                "mu2": scheme.mus[2],
                "p0": scheme.send_probs[0],
                "p1": scheme.send_probs[1],
                "p2": scheme.send_probs[2],
                "n_secret_tight": value[0],
                "n_secret_worst": value[1],
            }
        )
        return value

    best_value = objective(current)
    width = {name: hi - lo for name, (lo, hi) in bounds.items()}
    for stage in range(stages):
        shrink = 0.35**stage
        for name in ("mu2", "mu1", "p0", "p1"):
            lo_hard, hi_hard = bounds[name]
            half = width[name] * shrink / 2.0
            lo = max(lo_hard, current[name] - half)
            hi = min(hi_hard, current[name] + half)
            step = (hi - lo) / (points_per_stage - 1)
            for i in range(points_per_stage):
                cand = dict(current)
                cand[name] = lo + i * step
                value = objective(cand)
                if value > best_value:
                    best_value = value
                    current = cand

    scheme = _clipped_scheme(
        current["mu1"], current["mu2"], current["p0"], current["p1"], extinction_db
    )
    if scheme is None:  # the incumbent moves only to a valid candidate
        raise NoValidSchemeError(
            "extinction_db",
            f"extinction_db {extinction_db} dB leaves no valid scheme on the "
            "search grid: a scheme needs mu0 = mu2 * 10**(-extinction_db / 10) "
            "below mu1 (and p2 above 0.01)"
        )
    analysis = cache.get((scheme.mus, scheme.send_probs))
    if analysis is None:  # nothing was evaluated: every valid candidate was skipped
        raise InputError(
            "pulses",
            f"{pulses} pulses leave some level of every candidate scheme "
            "with no sent pulse"
        )
    return OptimizationResult(
        scheme=scheme,
        analysis=analysis,
        n_secret_tight=analysis.total_tight,
        n_secret_worst=analysis.total_worst,
        feasible=analysis.total_tight > 0,
        evaluations=len(cache),
        trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# Distance curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvePoint:
    """One distance-grid evaluation (scheme recorded for optimized sweeps)."""

    distance_km: float
    n_secret_tight: int
    n_secret_worst: int
    y1_lower: float
    b1_tight: float
    b1_worst: float
    scheme: DecoyScheme


@dataclass(frozen=True)
class RangeCurve:
    """Key totals along a distance grid plus the two range endpoints.

    ``range_tight_km`` / ``range_worst_km`` are the last grid distances
    with a positive key under each error-bound variant (None when the
    key is zero everywhere on the grid), so their resolution is the grid
    step.  The tight endpoint is never smaller than the worst-case one.
    """

    points: tuple[CurvePoint, ...]
    range_tight_km: float | None
    range_worst_km: float | None
    optimized: bool


def range_curve(
    model: ChannelModel,
    pulses: int,
    distances_km,
    *,
    optimize: bool = False,
    scheme: DecoyScheme | None = None,
    extinction_db: float = DEFAULT_EXTINCTION_DB,
    stages: int = DEFAULT_STAGES,
    config: ConfidenceConfig = ConfidenceConfig(),
    f_ec: float = DEFAULT_F_EC,
    f_ds: float = DEFAULT_F_DS,
    sift_ratio: float = REFERENCE_SIFT_RATIO,
    zero_fraction: float = REFERENCE_ZERO_FRACTION,
) -> RangeCurve:
    """Evaluate the key total along a distance grid.

    With ``optimize=False`` the same ``scheme`` (default: the
    demonstration-link scheme) is used everywhere; with
    ``optimize=True`` a fresh coordinate-descent search runs per
    distance, warm-started from the previous distance's optimum, and
    ``scheme`` (if given) seeds the first distance.

    ``distances_km`` must be strictly increasing.
    """
    distances = [float(d) for d in distances_km]
    if not distances:
        raise ValidationError("distance grid must be non-empty")
    if any(b <= a for a, b in zip(distances, distances[1:])):
        raise ValidationError("distance grid must be strictly increasing")
    fixed = scheme if scheme is not None else reference_scheme()
    knobs = dict(config=config, f_ec=f_ec, f_ds=f_ds, sift_ratio=sift_ratio,
                 zero_fraction=zero_fraction)

    points: list[CurvePoint] = []
    range_tight: float | None = None
    range_worst: float | None = None
    warm = fixed
    for d in distances:
        m = model.with_length(d)
        if optimize:
            result = optimize_scheme(m, pulses, extinction_db=extinction_db, stages=stages,
                                     initial_scheme=warm, **knobs)
            use, analysis = result.scheme, result.analysis
            warm = result.scheme
        else:
            use = fixed
            analysis = evaluate_scheme(m, use, pulses, **knobs)
        points.append(
            CurvePoint(
                distance_km=d,
                n_secret_tight=analysis.total_tight,
                n_secret_worst=analysis.total_worst,
                y1_lower=analysis.bounds.y1_lower,
                b1_tight=max(analysis.bounds.b1_tight_by_basis.values()),
                b1_worst=max(analysis.bounds.b1_worst_by_basis.values()),
                scheme=use,
            )
        )
        if analysis.total_tight > 0:
            range_tight = d
        if analysis.total_worst > 0:
            range_worst = d
    return RangeCurve(
        points=tuple(points),
        range_tight_km=range_tight,
        range_worst_km=range_worst,
        optimized=optimize,
    )


def curve_csv(curve: RangeCurve) -> str:
    """Render a curve as CSV (one row per distance, scheme columns included)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "distance_km",
            "n_secret_tight",
            "n_secret_worst",
            "y1_lower",
            "b1_tight",
            "b1_worst",
            "mu0",
            "mu1",
            "mu2",
            "p0",
            "p1",
            "p2",
        ]
    )
    for pt in curve.points:
        writer.writerow(
            [
                f"{pt.distance_km:g}",
                pt.n_secret_tight,
                pt.n_secret_worst,
                f"{pt.y1_lower:.6e}",
                f"{pt.b1_tight:.6f}",
                f"{pt.b1_worst:.6f}",
                *(f"{m:g}" for m in pt.scheme.mus),
                *(f"{p:g}" for p in pt.scheme.send_probs),
            ]
        )
    return buf.getvalue()
