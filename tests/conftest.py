"""Shared fixtures and independent oracles for the test suite.

The grid-search helpers here deliberately avoid the package's simplex
code path: they brute-force the constraint polytopes on uniform grids so
the LP results can be checked against a second, dumb implementation.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from decoyqkd import calibrate_to_reference
from decoyqkd.decoy import ConstraintSystem
from decoyqkd.stats import poisson_tail, poisson_weights


#: Malformed documents every reader rejects, by name: (kind of the valid
#: document, the edit that breaks it, the text that must name the field).
MALFORMED_DOCUMENTS = {
    "misspelled errors": (
        "session_tally",
        lambda d: d["levels"][0].update(errrors=d["levels"][0].pop("errors")),
        "session_tally: levels[0]: unknown fields ['errrors']",
    ),
    "zeroes for zeros": (
        "session_tally",
        lambda d: d.update(zeroes=d.pop("zeros")),
        "session_tally: unknown fields ['zeroes']",
    ),
    "null zeros.X": (
        "session_tally", lambda d: d["zeros"].update(X=None), "session_tally: zeros.X"
    ),
    "null model field": (
        "channel_model",
        lambda d: d.update(attenuation_db_per_km=None),
        "channel_model: attenuation_db_per_km",
    ),
    "float sent": (
        "session_tally",
        lambda d: d["levels"][0].update(sent=d["levels"][0]["sent"] + 0.5),
        "session_tally: levels[0].sent",
    ),
    "reconstructed no": (
        "session_tally",
        lambda d: d.update(reconstructed="no"),
        "session_tally: reconstructed",
    ),
    "format_version 2": (
        "session_tally",
        lambda d: d.update(format_version="2"),
        "session_tally: unsupported format_version '2' (expected '1')",
    ),
    "missing errors": (
        "session_tally",
        lambda d: d["levels"][0].pop("errors"),
        "session_tally: levels[0]: missing field 'errors'",
    ),
    "no levels": (
        "session_tally", lambda d: d.update(levels=[]), "'levels' must be a non-empty list"
    ),
    "negative detected.X": (
        "session_tally",
        lambda d: d["levels"][0]["detected"].update(X=-1),
        "levels[0].detected.X: counts must be >= 0, got -1",
    ),
    "negative zeros.Z": (
        "session_tally",
        lambda d: d["zeros"].update(Z=-1),
        "zeros.Z: counts must be >= 0, got -1",
    ),
}


@pytest.fixture(scope="session")
def calibration():
    """The fitted demonstration-link operating point (computed once)."""
    return calibrate_to_reference()


# ---------------------------------------------------------------------------
# Randomized small constraint systems + grid brute force
# ---------------------------------------------------------------------------


def random_constraint_systems(rng, cutoff):
    """A physically-shaped random yield/error system pair.

    Intervals are built around the exact level observables of a random
    channel (loss, noise floor, intrinsic error) with random relative
    widths, so the systems are always feasible and the vacuum pin
    e0 = y0/2 holds for the generating truth.
    """
    eta = 10 ** rng.uniform(-2, -0.3)
    noise = 10 ** rng.uniform(-5, -2.3)
    e_int = rng.uniform(0.002, 0.03)
    mus = (
        rng.uniform(0.001, 0.01),
        rng.uniform(0.08, 0.25),
        rng.uniform(0.4, 0.8),
    )
    ylo, yhi, elo, ehi, weights, tails = [], [], [], [], [], []
    for mu in mus:
        q = 1.0 - (1.0 - noise) * math.exp(-eta * mu)
        eq = 0.5 * noise + e_int * (1.0 - math.exp(-eta * mu))
        dy = rng.uniform(0.03, 0.12)
        de = rng.uniform(0.05, 0.2)
        ylo.append(q * (1.0 - dy))
        yhi.append(q * (1.0 + dy))
        elo.append(eq * (1.0 - de))
        ehi.append(eq * (1.0 + de))
        weights.append(tuple(poisson_weights(mu, cutoff)))
        tails.append(poisson_tail(mu, cutoff))
    ysys = ConstraintSystem(
        mus=mus, lows=tuple(ylo), highs=tuple(yhi),
        weights=tuple(weights), tails=tuple(tails), cutoff=cutoff,
    )
    esys = ConstraintSystem(
        basis="X", mus=mus, lows=tuple(elo), highs=tuple(ehi),
        weights=tuple(weights), tails=tuple(tails), cutoff=cutoff,
    )
    return ysys, esys


def _caps(weights, highs):
    """Per-variable upper caps implied by the level constraints."""
    w = np.asarray(weights, dtype=float)
    hi = np.asarray(highs, dtype=float)
    safe = np.where(w > 1e-300, w, np.inf)
    return np.minimum(1.0, (hi[:, None] / safe).min(axis=0))


def grid_y1_minimum(ysys, m, widen):
    """Brute-force minimum of y1 over the gridded yield polytope.

    ``widen`` = +1 relaxes every level interval by the grid's snap
    radius (so the LP vertex has a feasible grid neighbor), -1 narrows
    it by the same amount (so every surviving grid point is strictly
    LP-feasible).  Returns None when the gridded polytope is empty.
    """
    w = np.asarray(ysys.weights, dtype=float)
    hi = np.asarray(ysys.highs, dtype=float)
    lo = np.asarray(ysys.lows, dtype=float) - np.asarray(ysys.tails, dtype=float)
    dim = ysys.cutoff + 1
    caps = _caps(ysys.weights, ysys.highs)
    grids = [np.linspace(0.0, caps[n], m + 1) for n in range(dim)]
    tau = (w @ caps) / (2.0 * m) * widen
    feas = np.ones([m + 1] * dim, dtype=bool)
    for j in range(len(ysys.mus)):
        level = np.zeros([m + 1] * dim)
        for n in range(dim):
            shape = [1] * dim
            shape[n] = m + 1
            level = level + (w[j, n] * grids[n]).reshape(shape)
        feas &= (level <= hi[j] + tau[j]) & (level >= lo[j] - tau[j])
    if not feas.any():
        return None
    others = tuple(i for i in range(dim) if i != 1)
    return float(grids[1][np.where(feas.any(axis=others))[0].min()])


def grid_y1_resolution(ysys, m):
    """The y1 grid step used by :func:`grid_y1_minimum`."""
    return float(_caps(ysys.weights, ysys.highs)[1] / m)


def grid_b1_maximum(ysys, esys, y1_floor, m, me, widen):
    """Brute-force maximum of e1/y1 over the gridded joint polytope.

    Mirrors the tight-bound LP: e0 is pinned to y0/2, every e_n is
    linked below its y_n, and y1 is floored at the certified bound.
    Only cutoff 2 (three yield variables) is supported — enough for the
    oracle-equivalence criterion, which asks for small systems.
    """
    if ysys.cutoff != 2:
        raise ValueError("grid oracle implemented for cutoff 2")
    w = np.asarray(ysys.weights, dtype=float)
    yhi = np.asarray(ysys.highs, dtype=float)
    ylo = np.asarray(ysys.lows, dtype=float) - np.asarray(ysys.tails, dtype=float)
    ehi = np.asarray(esys.highs, dtype=float)
    elo = np.asarray(esys.lows, dtype=float) - np.asarray(esys.tails, dtype=float)
    caps = _caps(ysys.weights, ysys.highs)
    ecaps = np.minimum(caps, _caps(esys.weights, esys.highs))
    gy = [np.linspace(0.0, caps[n], m + 1) for n in range(3)]
    ge = [np.linspace(0.0, ecaps[n], me + 1) for n in range(3)]
    tau_y = (w @ caps) / (2.0 * m) * widen
    tau_e = (
        w[:, 1:] @ ecaps[1:] / (2.0 * me) + w[:, 0] * 0.5 * caps[0] / (2.0 * m)
    ) * widen
    y1g = gy[1][:, None, None, None]
    y2g = gy[2][None, :, None, None]
    e1g = ge[1][None, None, :, None]
    e2g = ge[2][None, None, None, :]
    floor_slack = caps[1] / m if widen > 0 else 0.0
    best = None
    for y0 in gy[0]:
        feas = np.ones((m + 1, m + 1, me + 1, me + 1), dtype=bool)
        for j in range(3):
            ysum = w[j, 0] * y0 + w[j, 1] * y1g + w[j, 2] * y2g
            feas &= (ysum <= yhi[j] + tau_y[j]) & (ysum >= ylo[j] - tau_y[j])
            esum = w[j, 0] * 0.5 * y0 + w[j, 1] * e1g + w[j, 2] * e2g
            feas &= (esum <= ehi[j] + tau_e[j]) & (esum >= elo[j] - tau_e[j])
        feas &= y1g >= y1_floor - floor_slack
        feas &= e1g <= y1g
        feas &= e2g <= y2g
        if not feas.any():
            continue
        ratio = np.where(feas, e1g / np.maximum(y1g, 1e-300), -1.0)
        cand = float(ratio.max())
        best = cand if best is None else max(best, cand)
    return best


def grid_b1_resolution(ysys, esys, y1_floor, m, me, b1_scale):
    """Ratio-space resolution of :func:`grid_b1_maximum`."""
    caps = _caps(ysys.weights, ysys.highs)
    ecaps = np.minimum(caps, _caps(esys.weights, esys.highs))
    return float((ecaps[1] / me + b1_scale * caps[1] / m) / y1_floor)
