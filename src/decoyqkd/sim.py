"""Link simulation: expected statistics, Monte-Carlo sessions, calibration.

The detection model is the standard independent-photon one: each of the
n photons in a pulse reaches the detector with probability ``eta`` (fiber
transmission times detector efficiency), and a noise count (dark or
background) fires inside the timing window with probability ``c`` per
pulse slot, OR-ed with real detections.  Averaging over the Poisson
photon-number distribution at intensity mu gives the per-level detection
probability

    Q(mu) = 1 - (1 - c) * exp(-eta * mu)

and error rate

    E(mu) = (0.5 * c + e_int * (1 - exp(-eta * mu))) / Q(mu)

where ``e_int`` is the intrinsic optical error (interferometer
visibility floor): noise counts are uncorrelated with the encoded bit
(error probability 1/2) while genuine detections err with probability
``e_int``.  Detector recovery time and jitter are not modeled beyond the
timing-window acceptance; at ~10 MHz clocking and the count rates of
interest, dead-time corrections are below 0.1%.

:func:`evaluate_scheme` is the one scheme evaluation of ``opt`` and of
:func:`calibrate_to_reference`, which back-solves the free link parameters
(effective pulse count, background rate, intrinsic error) from the
demonstration session totals this package ships as defaults, so the
analytic pipeline reproduces that operating point end to end.  Only
:func:`evaluate_scheme` declares its keywords and their defaults; the
design tools take them as ``**evaluation`` and pass them through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .core import (
    BASES,
    DEFAULT_F_DS,
    DEFAULT_F_EC,
    DEFAULT_ZERO_BIAS,
    ChannelModel,
    ConfidenceConfig,
    DecoyScheme,
    InputError,
    LevelCounts,
    SessionTally,
    check_integer,
    check_real,
)
from .decoy import EvaluationState
from .keyrate import SessionAnalysis, compose_session

__all__ = [
    "ExpectedStatistics",
    "RawKeys",
    "CalibrationResult",
    "expected_statistics",
    "expected_tally",
    "evaluate_scheme",
    "simulate_session",
    "reference_scheme",
    "reference_model",
    "calibrate_to_reference",
    "REFERENCE_DETECTIONS",
    "REFERENCE_SIFTED_TOTAL",
    "REFERENCE_KEY_TARGETS",
    "REFERENCE_ZERO_FRACTION",
    "REFERENCE_DURATION_H",
    "REFERENCE_SIFT_RATIO",
    "REFERENCE_DUTY_CYCLE",
]


# Demonstration-link session totals used as calibration defaults: per-level
# detection counts in ascending-intensity order, total sifted bits, the
# key totals the two analysis variants should land on, the zero-bit bias
# of the sifted strings, and the acquisition time.
REFERENCE_DETECTIONS = (341, 5729, 80776)
REFERENCE_SIFTED_TOTAL = 40538
REFERENCE_KEY_TARGETS = (6127, 3990)
REFERENCE_ZERO_FRACTION = 0.494
REFERENCE_DURATION_H = 5.6

# Derived operating-point ratios: the sifted/detected ratio implied by the
# published totals, and the effective transmitter duty cycle recovered by
# ``calibrate_to_reference`` (fitted pulse count over clock slots in the
# acquisition time).  Both are handy defaults for what-if sweeps that
# should stay consistent with the demonstration session.  The duty cycle is
# kept at its 23,836,243,437-pulse value, so that every ``--duration-h``
# default keeps its pulse count; the current fit, which reaches the
# least-squares optimum, lands about 8 pulses (3.4e-10) higher.
REFERENCE_SIFT_RATIO = REFERENCE_SIFTED_TOTAL / sum(REFERENCE_DETECTIONS)
REFERENCE_DUTY_CYCLE = 0.11823533450892858


def reference_scheme() -> DecoyScheme:
    """Three-level scheme of the demonstration link.

    Vacuum-like, weak decoy, and signal intensities with the sending
    probabilities chosen near-optimal for the 135 km operating point.
    """
    return DecoyScheme(mus=(0.0025, 0.13, 0.57), send_probs=(0.1, 0.2, 0.7))


def reference_model(fiber_length_km: float = 135.0) -> ChannelModel:
    """Channel model of the demonstration link.

    Hardware figures: 0.206 dB/km fiber, 0.5% detector efficiency with
    78.1 Hz summed dark counts in a 184 ps timing window, 10 MHz clock.
    ``background_rate_hz`` and ``intrinsic_error_rate`` default to the
    values :func:`calibrate_to_reference` recovers from the shipped
    session totals, so the model works out of the box; run the
    calibration yourself to re-derive them.
    """
    return ChannelModel(
        fiber_length_km=fiber_length_km,
        attenuation_db_per_km=0.206,
        detector_efficiency=0.005,
        dark_count_rate_hz=78.1,
        timing_window_s=184e-12,
        clock_rate_hz=1e7,
        intrinsic_error_rate=0.00509,
        background_rate_hz=586.0,
    )


# ---------------------------------------------------------------------------
# Expected statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpectedStatistics:
    """Analytic per-level detection and error probabilities.

    ``eta`` is the click probability of one photon (fiber and detector),
    ``noise_prob`` that of a dark or background count in one timing window.
    ``yields[j]`` / ``error_rates[j]`` follow the scheme's level order.
    :meth:`photon_yield` and :meth:`photon_error_rate` give the
    photon-number-resolved quantities the decoy analysis is trying to
    bound, for use as ground truth in soundness checks.
    """

    eta: float
    noise_prob: float
    intrinsic_error_rate: float
    yields: tuple[float, ...]
    error_rates: tuple[float, ...]

    def photon_yield(self, n: int) -> float:
        """Detection probability of an n-photon pulse (``n`` an integer >= 0)."""
        n = check_integer(n, "n")
        return 1.0 - (1.0 - self.noise_prob) * (1.0 - self.eta) ** n

    def photon_error_rate(self, n: int) -> float:
        """Error probability of a detected n-photon pulse."""
        y = self.photon_yield(n)
        if y == 0.0:
            return 0.5
        survive = 1.0 - (1.0 - self.eta) ** n
        return (0.5 * self.noise_prob + self.intrinsic_error_rate * survive) / y


def expected_statistics(model: ChannelModel, scheme: DecoyScheme) -> ExpectedStatistics:
    """Expected per-level yield and error rate under the detection model."""
    fiber_db = model.attenuation_db_per_km * model.fiber_length_km
    eta = model.detector_efficiency * 10.0 ** (-fiber_db / 10.0)
    c = (model.dark_count_rate_hz + model.background_rate_hz) * model.timing_window_s
    yields = []
    error_rates = []
    for mu in scheme.mus:
        transmitted = -math.expm1(-eta * mu)  # 1 - exp(-eta mu), kept exact when tiny
        q = c + (1.0 - c) * transmitted
        yields.append(q)
        if q == 0.0:
            error_rates.append(0.5)
        else:
            error_rates.append((0.5 * c + model.intrinsic_error_rate * transmitted) / q)
    return ExpectedStatistics(
        eta=eta,
        noise_prob=c,
        intrinsic_error_rate=model.intrinsic_error_rate,
        yields=tuple(yields),
        error_rates=tuple(error_rates),
    )


def expected_tally(
    model: ChannelModel,
    scheme: DecoyScheme,
    pulses: int,
    *,
    sift_ratio: float,
    zero_fraction: float,
) -> SessionTally:
    """Deterministic tally built from expected counts (no sampling).

    Rounds the expected value of every cell: each level's detections are
    split evenly over the two measurement bases, a fraction
    ``sift_ratio`` of detections survives sifting, and errors follow the
    analytic per-level rates.  Used by the optimizer and calibration,
    where Monte-Carlo noise would mask the objective.

    The result carries ``reconstructed=True`` since no individual
    session ever produced these counts.
    """
    pulses = check_integer(pulses, "pulses")
    sift_ratio = check_real(sift_ratio, "sift_ratio", "[0, 1]")
    zero_fraction = check_real(zero_fraction, "zero_fraction", "[0, 1]")
    stats = expected_statistics(model, scheme)
    levels = []
    for mu, p, q, e in zip(scheme.mus, scheme.send_probs, stats.yields, stats.error_rates):
        sent = int(round(pulses * p))
        det_total = pulses * p * q
        det_b = int(round(det_total / 2.0))
        sift_b = int(round(det_total * sift_ratio / 2.0))
        err_b = int(round(sift_b * e))
        levels.append(
            LevelCounts(
                sent=sent,
                detected={"X": det_b, "Z": det_b},
                sifted={"X": sift_b, "Z": sift_b},
                errors={"X": err_b, "Z": err_b},
            )
        )
    zeros = {
        b: int(round(zero_fraction * sum(lv.sifted[b] for lv in levels)))
        for b in BASES
    }
    return SessionTally(levels=tuple(levels), zeros=zeros, reconstructed=True)


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
    state: EvaluationState | None = None,
) -> SessionAnalysis:
    """Analysis of the expected (deterministic) session for one scheme.

    A design tool passes its call's ``state`` (:class:`~decoyqkd.decoy.EvaluationState`).
    """
    tally = expected_tally(
        model, scheme, pulses, sift_ratio=sift_ratio, zero_fraction=zero_fraction
    )
    return compose_session(tally, scheme, config, f_ec=f_ec, f_ds=f_ds, state=state)


# ---------------------------------------------------------------------------
# Monte-Carlo session
# ---------------------------------------------------------------------------


#: Bits per block of :func:`_exact_bits`'s i.i.d. fill.
_FILL_BLOCK = 2**16


def _exact_bits(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """``n`` bits (uint8), exactly ``k`` of them ones, each such string equally likely.

    Blocks of :data:`_FILL_BLOCK` bits are filled i.i.d. (a 16-bit draw below
    about ``65536 * k / n``), then a surplus is mended by flipping a uniform
    subset of the ones (a shortfall, of the zeros): exact by exchangeability
    at any fill rate.  The subset is split over the blocks by a multivariate
    hypergeometric draw, so no temporary is longer than a block.
    """
    out = np.empty(n, dtype=np.uint8)
    threshold = min(round(65536 * k / n), 65535) if n else 0
    starts = range(0, n, _FILL_BLOCK)
    ones = np.empty(len(starts), dtype=np.int64)
    for i, lo in enumerate(starts):
        block = out[lo : lo + _FILL_BLOCK]
        draws = np.frombuffer(rng.bytes(2 * block.size), dtype="<u2")
        np.less(draws, threshold, out=block.view(bool))
        ones[i] = np.count_nonzero(block)
    surplus = int(ones.sum()) - k
    if surplus:
        value = int(surplus > 0)  # the bit value to change
        if not value:
            ones = np.minimum(n - np.asarray(starts), _FILL_BLOCK) - ones
        quotas = rng.multivariate_hypergeometric(ones, abs(surplus))
        for lo, quota in zip(starts, quotas.tolist()):
            if quota:
                block = out[lo : lo + _FILL_BLOCK]
                block[rng.choice(np.flatnonzero(block == value), quota, replace=False)] ^= 1
    return out


class RawKeys:
    """Sifted bit strings of one simulated session, drawn on first read.

    ``alice[basis]`` / ``bob[basis]`` hold the key: the signal level's
    paired sifted bits (uint8), Bob's with the realized channel errors.
    The first read draws both from the generator state the tally draw left
    behind, conditioned on the tally: Alice's bits are a uniform string
    with the signal level's drawn zero count, and Bob's differ from hers at
    a uniform set of its drawn error count.  Later reads return the same
    arrays, and the tally does not depend on whether they are ever read.
    """

    def __init__(self, rng: np.random.Generator, cells: dict[str, tuple[int, int, int]]):
        self._rng = rng
        self._cells = cells  # basis -> (sifted bits, Alice's ones, errors)

    @cached_property
    def _keys(self) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        alice, bob = {}, {}
        for b, (n, ones, errors) in self._cells.items():
            alice[b] = _exact_bits(self._rng, n, ones)
            bob[b] = _exact_bits(self._rng, n, errors)
            bob[b] ^= alice[b]
        return alice, bob

    alice = property(lambda self: self._keys[0])
    bob = property(lambda self: self._keys[1])


def simulate_session(
    model: ChannelModel,
    scheme: DecoyScheme,
    pulses: int,
    seed: int,
    *,
    zero_bias: float = DEFAULT_ZERO_BIAS,
) -> tuple[SessionTally, RawKeys]:
    """Sample one session of ``pulses`` clock slots.

    Every count is one draw: the multinomial level choice, then binomial
    detection, basis and sifting splits, and per (level, basis) cell errors
    ~ Bin(sifted, e_j) and zeros ~ Bin(sifted, zero_bias).  A tally thus
    costs O(levels) work whatever ``pulses`` and has the law of a per-pulse
    loop with Bernoulli bits (``P(0) = zero_bias``) and flips.  The keys
    (:class:`RawKeys`) are drawn only when read, conditioned on the tally,
    so the two always agree and the tally does not depend on the read.

    Deterministic in ``seed``; ``pulses`` and ``seed`` are integers >= 0
    (else ``InputError``), and ``pulses = 0`` yields an all-zero tally and empty keys.

    Returns
    -------
    (SessionTally, RawKeys)
    """
    pulses = check_integer(pulses, "pulses")
    zero_bias = check_real(zero_bias, "zero_bias", "[0, 1]")
    seed = check_integer(seed, "seed")

    stats = expected_statistics(model, scheme)
    rng = np.random.default_rng(seed)
    sent = rng.multinomial(pulses, scheme.send_probs)

    levels, zeros, cells = [], {"X": 0, "Z": 0}, {}
    for j in range(scheme.n_levels):
        det_total = int(rng.binomial(sent[j], stats.yields[j]))
        det_x = int(rng.binomial(det_total, 0.5))
        detected = {"X": det_x, "Z": det_total - det_x}
        sifted = {b: int(rng.binomial(detected[b], 0.5)) for b in BASES}
        errors = {}
        for b in BASES:
            errors[b] = int(rng.binomial(sifted[b], stats.error_rates[j]))
            level_zeros = int(rng.binomial(sifted[b], zero_bias))
            zeros[b] += level_zeros
            if j == scheme.signal_index:
                cells[b] = (sifted[b], sifted[b] - level_zeros, errors[b])
        levels.append(
            LevelCounts(sent=int(sent[j]), detected=detected, sifted=sifted, errors=errors)
        )

    return SessionTally(levels=tuple(levels), zeros=zeros), RawKeys(rng, cells)


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    """Back-solved operating point of the demonstration link.

    ``model`` carries the fitted background rate and intrinsic error,
    which the report shows as ``background_rate_hz`` and ``e_int``;
    ``pulses`` is the effective number of sent pulses (the published
    totals fold in an unpublished duty cycle, made explicit here as
    ``duty_cycle``).  ``tally`` is the reconstructed expected tally at
    the fitted point, ready for the analysis pipeline.  ``diagnostics``
    records fit quality: modeled vs target detections, sifted total,
    key totals at the fitted intrinsic error, and convergence flags.
    """

    model: ChannelModel
    scheme: DecoyScheme
    pulses: int
    duty_cycle: float
    sift_ratio: float
    zero_fraction: float
    tally: SessionTally
    analysis: SessionAnalysis
    diagnostics: dict

    def to_json(self) -> dict:
        return {
            "model": self.model.to_json(),
            "scheme": self.scheme.to_json(),
            "pulses": self.pulses,
            "duty_cycle": self.duty_cycle,
            "sift_ratio": self.sift_ratio,
            "zero_fraction": self.zero_fraction,
            "e_int": self.model.intrinsic_error_rate,
            "background_rate_hz": self.model.background_rate_hz,
            "tally": self.tally.to_json(),
            "analysis": self.analysis.to_json(),
            "diagnostics": self.diagnostics,
        }


def _modeled_detections(
    model: ChannelModel, scheme: DecoyScheme, pulses: float
) -> np.ndarray:
    stats = expected_statistics(model, scheme)
    return np.array(
        [pulses * p * q for p, q in zip(scheme.send_probs, stats.yields)]
    )


#: Stage 1 of :func:`calibrate_to_reference`: the Gauss–Newton iteration cap,
#: the step in log background rate below which it stops, and the largest step
#: it takes (the cap lets it follow a fit whose optimum lies at infinity).
_FIT_ITERATIONS = 100
_FIT_STEP_TOL = 1e-12
_FIT_MAX_STEP = 2.0


def _fit_background(targets: np.ndarray, base: ChannelModel, scheme: DecoyScheme) -> float:
    """Background rate of the least-squares fit of the log detection totals.

    The fit is over the pulse count N and the background rate bg, of the
    residuals log(N p_j q_j) - log(targets_j).  For a fixed bg the best
    log N is the mean of log(targets_j / (p_j q_j)), so the residuals
    minus their mean leave one variable, v = log bg, solved here by
    Gauss–Newton with the derivative d(log q_j)/dv = bg window (1 - t_j) / q_j,
    where t_j = 1 - exp(-eta mu_j).  A step that does not lower the cost
    is halved; the fit stops when the step falls below the tolerance.
    """
    eta = expected_statistics(base, scheme).eta
    window = base.timing_window_s
    probs = np.asarray(scheme.send_probs)
    mus = np.asarray(scheme.mus)
    log_rates = np.log(targets / probs)
    transmitted = -np.expm1(-eta * mus)

    def centred(v: float) -> tuple[np.ndarray, np.ndarray]:
        bg = math.exp(v)
        c = (base.dark_count_rate_hz + bg) * window
        q = c + (1.0 - c) * transmitted
        r = np.log(q) - log_rates
        d = bg * window * (1.0 - transmitted) / q
        return r - r.mean(), d - d.mean()

    # start from the signal level with no background, then level 0's excess
    signal = scheme.signal_index
    dark_c = base.dark_count_rate_hz * window
    n0 = targets[signal] / (probs[signal] * (dark_c + eta * mus[signal]))
    v = math.log(max((targets[0] / (n0 * probs[0]) - eta * mus[0] - dark_c) / window, 1e-3))
    r, j = centred(v)
    cost = r @ r
    for _ in range(_FIT_ITERATIONS):
        jj = j @ j
        if not jj > 0.0:
            break
        step = min(max(-(j @ r) / jj, -_FIT_MAX_STEP), _FIT_MAX_STEP)
        while abs(step) >= _FIT_STEP_TOL:
            r_new, j_new = centred(v + step)
            cost_new = r_new @ r_new
            if cost_new < cost:
                break
            step /= 2.0
        else:
            break
        v, r, j, cost = v + step, r_new, j_new, cost_new
    return math.exp(v)


def calibrate_to_reference(
    detections: tuple[int, ...] = REFERENCE_DETECTIONS,
    sifted_total: int = REFERENCE_SIFTED_TOTAL,
    key_targets: tuple[int, int] = REFERENCE_KEY_TARGETS,
    *,
    duration_h: float = REFERENCE_DURATION_H,
    zero_fraction: float = REFERENCE_ZERO_FRACTION,
    **evaluation,
) -> CalibrationResult:
    """Fit the free link parameters of the demonstration link to session totals.

    The fit runs on :func:`reference_scheme` and :func:`reference_model`.
    Three quantities are not published for the demonstration session and
    are recovered here:

    * the effective pulse count (equivalently the duty cycle) and the
      background count rate, fitted jointly by least squares on the
      log of the three per-level detection totals, then rescaled so the
      signal-level detections match exactly.  The best log pulse count
      for a given background rate is a mean, so the fit is one variable,
      the log background rate, solved in-package by Gauss–Newton
      (:func:`_fit_background`), so calibration loads nothing of scipy
      beyond ``scipy.special``.  A fit with no finite background rate or
      pulse count, or a noise probability per pulse of 1 or more, raises
      ``InputError`` naming ``detections``;
    * the intrinsic error rate, fitted by minimizing the squared
      log-ratio between the analysis pipeline's two key totals and
      ``key_targets`` (golden-section refine over [5e-4, 0.02]).

    The sifted/detected ratio is taken directly from the published
    totals, and the sifted count of the reconstructed tally matches the
    published one to rounding.  Key totals come from :func:`evaluate_scheme`
    with that ratio, ``zero_fraction`` and ``**evaluation`` (``config``,
    ``f_ec``, ``f_ds``); a ``sift_ratio`` among them raises ``TypeError``.
    They share one ``EvaluationState``, so the y1 floor that stage 2 leaves
    fixed is solved once, and a repeated expected tally is composed once.

    Returns
    -------
    CalibrationResult
        With ``diagnostics["converged"]`` False (rather than an
        exception) when no parameter setting inside the physical ranges
        reproduces the targets — inspect the diagnostics to see how far
        off the best fit landed.
    """
    scheme = reference_scheme()
    base = reference_model()
    if len(detections) != scheme.n_levels:
        raise InputError("detections", f"need one detection total per scheme level "
                         f"({scheme.n_levels}), got {len(detections)}")
    detections = [check_integer(d, "detections", 1) for d in detections]
    sifted_total = check_integer(sifted_total, "sifted", 1)
    if sifted_total > sum(detections):
        raise InputError("sifted", f"sifted total {sifted_total} exceeds the detection "
                         f"total {sum(detections)}")
    if len(key_targets) != 2:
        raise InputError("targets", f"need the tight and the worst-case key total, "
                         f"got {len(key_targets)} targets")
    key_targets = [check_integer(t, "targets", 1) for t in key_targets]
    duration_h = check_real(duration_h, "duration_h", "(0, inf)")
    zero_fraction = check_real(zero_fraction, "zero_fraction", "[0, 1]")

    targets = np.asarray(detections, dtype=float)
    # --- stage 1: pulse count and background rate from detection totals
    with np.errstate(over="ignore", invalid="ignore"):  # totals near the float range fit inf
        bg_rate = _fit_background(targets, base, scheme)
        if not math.isfinite(bg_rate):
            raise InputError("detections", f"{detections} fit no finite background rate")
        fitted = replace(base, background_rate_hz=bg_rate)
        # the pulse count that matches the signal-level detections exactly
        signal = scheme.signal_index
        pulses = targets[signal] / _modeled_detections(fitted, scheme, 1.0)[signal]
    if not math.isfinite(pulses):
        raise InputError("detections", f"{detections} fit no finite pulse count")
    pulses = int(round(pulses))
    if any(round(pulses * p) < 1 for p in scheme.send_probs):
        raise InputError("detections", f"{detections} fit {pulses} pulses, too few for every level")
    noise = expected_statistics(fitted, scheme).noise_prob
    if noise >= 1.0:
        raise InputError("detections", f"{detections} fit a noise probability of {noise:.3g} "
                         f"per pulse, which the detection model needs below 1")
    sift_ratio = sifted_total / float(targets.sum())

    # --- stage 2: intrinsic error rate from the two key totals
    state = EvaluationState()

    def score(analysis: SessionAnalysis) -> float:
        tight, worst = analysis.total_tight, analysis.total_worst
        if tight <= 0 or worst <= 0:
            return math.inf
        return (
            math.log(tight / key_targets[0]) ** 2
            + math.log(worst / key_targets[1]) ** 2
        )

    def objective(e_int: float) -> float:
        m = replace(fitted, intrinsic_error_rate=e_int)
        return score(evaluate_scheme(m, scheme, pulses, sift_ratio=sift_ratio,
                                     zero_fraction=zero_fraction, state=state, **evaluation))

    grid = np.geomspace(5e-4, 0.02, 9)
    scores = [objective(e) for e in grid]
    best = int(np.argmin(scores))
    # golden-section refine between the grid neighbors of the best point
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid.size - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(24):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    e_int = float((a + b) / 2.0)
    final_model = replace(fitted, intrinsic_error_rate=e_int)
    analysis = evaluate_scheme(final_model, scheme, pulses, sift_ratio=sift_ratio,
                               zero_fraction=zero_fraction, state=state, **evaluation)
    final_obj = score(analysis)
    tally = expected_tally(
        final_model, scheme, pulses, sift_ratio=sift_ratio, zero_fraction=zero_fraction
    )
    duty = pulses / (base.clock_rate_hz * duration_h * 3600.0)
    modeled = _modeled_detections(final_model, scheme, pulses)
    sifted_model = tally.sifted_all()
    converged = (
        math.isfinite(final_obj)
        and bool(np.all(np.abs(modeled / targets - 1.0) < 0.05))
        and abs(sifted_model / sifted_total - 1.0) < 0.02
        and 0.0 < duty < 1.0
    )
    return CalibrationResult(
        model=final_model,
        scheme=scheme,
        pulses=pulses,
        duty_cycle=duty,
        sift_ratio=sift_ratio,
        zero_fraction=zero_fraction,
        tally=tally,
        analysis=analysis,
        diagnostics={
            "detections_target": [int(t) for t in targets],
            "detections_model": [float(m) for m in modeled],
            "sifted_target": int(sifted_total),
            "sifted_model": int(sifted_model),
            "key_targets": key_targets,
            "key_totals_model": [analysis.total_tight, analysis.total_worst],
            "fit_objective": final_obj,
            "converged": converged,
        },
    )
