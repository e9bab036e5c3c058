"""Scheme optimization and rate-versus-distance curves.

The optimizer maximizes the predicted secret-key total under the tight
single-photon error variant, evaluating candidate schemes with
``sim.evaluate_scheme``: the deterministic expected tally, pushed through
the same confidence-bound machinery as real data.
Monte-Carlo noise would make coordinate descent wander, and the expected
tally is exactly what the analysis would see on the average session, so
the deterministic objective is both smooth and honest about finite-size
penalties.  :func:`optimize_scheme` and :func:`range_curve` pass their
``**evaluation`` keywords (``config``, ``f_ec``, ``f_ds``, ``sift_ratio``,
``zero_fraction``) to every ``evaluate_scheme`` call.

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
from dataclasses import dataclass, replace

from .core import (
    DEFAULT_EXTINCTION_DB,
    DEFAULT_POINTS_PER_STAGE,
    DEFAULT_STAGES,
    ChannelModel,
    DecoyScheme,
    InputError,
    check_integer,
    check_real,
)
from .decoy import EvaluationState
from .keyrate import SessionAnalysis
from .sim import evaluate_scheme, reference_scheme

__all__ = [
    "OptimizationResult",
    "CurvePoint",
    "RangeCurve",
    "optimize_scheme",
    "range_curve",
    "curve_csv",
]


@dataclass(frozen=True)
class OptimizationResult:
    """Best scheme found plus the full search history.

    ``analysis`` is the best scheme's evaluation and holds its key totals.
    When every evaluated scheme produced zero key (the distance/duration
    is beyond range), ``analysis.total_tight`` is 0 and the scheme is
    just the final search point.  ``trace`` holds one dict per distinct
    objective evaluation, in evaluation order, so its length is the
    number of evaluations.
    """

    scheme: DecoyScheme
    analysis: SessionAnalysis
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
    **evaluation,
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
    **evaluation
        Keywords of every candidate's :func:`evaluate_scheme` call (its
        defaults apply); any other keyword raises ``TypeError``.

    Raises
    ------
    InputError
        Naming ``pulses`` when not an integer >= 0, ``stages`` or
        ``points_per_stage`` when not an integer >= 1 or >= 3,
        ``extinction_db`` when not a real number in [0, inf) or when no candidate
        on the search grid is a valid scheme (it is too small to put the vacuum
        level below the decoy level), ``scheme`` when ``initial_scheme`` is not a
        3-level scheme, and ``pulses`` when every valid candidate would send no
        pulse at some level.  A candidate that does so is skipped like a
        degenerate one: its yield could not be bounded.

    Notes
    -----
    Ties in the tight total break toward the larger worst-case total,
    so the reported scheme never sacrifices the conservative variant
    for nothing.  The evaluations share one ``EvaluationState``, made for
    this call, so a bound or analysis met twice is computed once.
    """
    pulses = check_integer(pulses, "pulses")
    stages = check_integer(stages, "stages", 1)
    points_per_stage = check_integer(points_per_stage, "points_per_stage", 3)
    extinction_db = check_real(extinction_db, "extinction_db", "[0, inf)")
    start = initial_scheme if initial_scheme is not None else reference_scheme()
    if start.n_levels != 3:
        raise InputError("scheme", f"the optimizer searches 3-level schemes only, "
                         f"got {start.n_levels} levels")

    # free coordinates and their hard search boxes
    bounds = {
        "mu1": (0.01, 0.9),
        "mu2": (0.05, 1.5),
        "p0": (0.02, 0.6),
        "p1": (0.02, 0.7),
    }
    begin = dict(zip(("mu1", "mu2", "p0", "p1"), (*start.mus[1:], *start.send_probs[:2])))
    current = {name: min(max(begin[name], lo), hi) for name, (lo, hi) in bounds.items()}

    cache: dict[tuple, SessionAnalysis] = {}  # in evaluation order
    state = EvaluationState()

    def objective(c: dict) -> tuple[int, int]:
        scheme = _clipped_scheme(c["mu1"], c["mu2"], c["p0"], c["p1"], extinction_db)
        if scheme is None or any(round(pulses * p) < 1 for p in scheme.send_probs):
            return (-1, -1)  # degenerate, or a level would send no pulse
        key = (scheme.mus, scheme.send_probs)
        if key not in cache:
            cache[key] = evaluate_scheme(model, scheme, pulses, state=state, **evaluation)
        return (cache[key].total_tight, cache[key].total_worst)

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
        raise InputError(
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
        trace=tuple(
            dict(zip(("mu0", "mu1", "mu2", "p0", "p1", "p2"), mus + probs),
                 n_secret_tight=done.total_tight, n_secret_worst=done.total_worst)
            for (mus, probs), done in cache.items()
        ),
    )


# ---------------------------------------------------------------------------
# Distance curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurvePoint:
    """One distance-grid evaluation: the scheme used there and its analysis."""

    distance_km: float
    scheme: DecoyScheme
    analysis: SessionAnalysis


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


def range_curve(
    model: ChannelModel,
    pulses: int,
    distances_km,
    *,
    optimize: bool = False,
    scheme: DecoyScheme | None = None,
    extinction_db: float = DEFAULT_EXTINCTION_DB,
    stages: int = DEFAULT_STAGES,
    **evaluation,
) -> RangeCurve:
    """Evaluate the key total along a distance grid.

    With ``optimize=False`` the same ``scheme`` (default: the
    demonstration-link scheme) is used everywhere; with
    ``optimize=True`` a fresh coordinate-descent search runs per
    distance, warm-started from the previous distance's optimum, and
    ``scheme`` (if given) seeds the first distance.  ``evaluation`` is
    passed to every :func:`evaluate_scheme` call, as in :func:`optimize_scheme`.

    ``distances_km`` must be non-empty, strictly increasing and of reals in
    [0, inf); an ``InputError`` naming ``distances`` says which it is not.
    ``pulses`` must be an integer >= 0, ``extinction_db`` a real in [0, inf)
    and ``stages`` an integer >= 1, with or without ``optimize``.
    """
    distances = [check_real(d, "distances", "[0, inf)") for d in distances_km]
    if not distances:
        raise InputError("distances", "distance grid must be non-empty")
    if any(b <= a for a, b in zip(distances, distances[1:])):
        raise InputError("distances", "distance grid must be strictly increasing")
    pulses = check_integer(pulses, "pulses")
    extinction_db = check_real(extinction_db, "extinction_db", "[0, inf)")
    stages = check_integer(stages, "stages", 1)
    fixed = scheme if scheme is not None else reference_scheme()

    points: list[CurvePoint] = []
    range_tight: float | None = None
    range_worst: float | None = None
    warm = fixed
    for d in distances:
        m = replace(model, fiber_length_km=d)
        if optimize:
            result = optimize_scheme(m, pulses, extinction_db=extinction_db, stages=stages,
                                     initial_scheme=warm, **evaluation)
            use, analysis = result.scheme, result.analysis
            warm = result.scheme
        else:
            use = fixed
            analysis = evaluate_scheme(m, use, pulses, **evaluation)
        points.append(CurvePoint(distance_km=d, scheme=use, analysis=analysis))
        if analysis.total_tight > 0:
            range_tight = d
        if analysis.total_worst > 0:
            range_worst = d
    return RangeCurve(
        points=tuple(points),
        range_tight_km=range_tight,
        range_worst_km=range_worst,
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
        bounds = pt.analysis.bounds
        writer.writerow(
            [
                f"{pt.distance_km:g}",
                pt.analysis.total_tight,
                pt.analysis.total_worst,
                f"{bounds.y1_lower:.6e}",
                f"{max(bounds.b1_tight_by_basis.values()):.6f}",
                f"{max(bounds.b1_worst_by_basis.values()):.6f}",
                *(f"{m:g}" for m in pt.scheme.mus),
                *(f"{p:g}" for p in pt.scheme.send_probs),
            ]
        )
    return buf.getvalue()
