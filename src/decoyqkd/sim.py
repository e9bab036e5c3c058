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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

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
    ValidationError,
    _usable_cpus,
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
# should stay consistent with the demonstration session.
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
        """Detection probability of an n-photon pulse."""
        if n < 0:
            raise ValidationError("photon number must be >= 0")
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


@dataclass(frozen=True)
class RawKeys:
    """Sifted bit strings realized by one simulated session.

    ``alice[basis]`` / ``bob[basis]`` hold the key: the paired sifted bits
    of the signal level, Bob's copy containing the realized channel
    errors.  Only the signal level has its bits materialized; the decoy
    levels contribute counts to the tally but no key material.
    """

    alice: dict[str, np.ndarray]
    bob: dict[str, np.ndarray]


#: Doubles drawn per block: 512 KiB, so a block and its comparison stay in cache.
_BLOCK = 2**16
#: Fewer signal draws than this are made in the calling thread alone.
_PARALLEL_DRAWS = 2**17
_MAX_WORKERS = 8


def _signal_draws(
    rng: np.random.Generator, sizes: list[int], zero_bias: float, error_rate: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Alice's bits and Bob's flip marks of the signal level, one pair per size.

    Bit for bit the arrays ``rng.random(n) >= zero_bias`` and
    ``rng.random(n) < error_rate`` drawn in turn for each ``n`` in
    ``sizes``, and ``rng`` is left where those calls would leave it.  The
    draw positions are split over up to :data:`_MAX_WORKERS` threads, one
    per usable CPU.  Each thread advances its own copy of the PCG64 state
    to its first position and fills blocks of :data:`_BLOCK` doubles,
    which it compares in place into the boolean outputs; both steps
    release the GIL.  No thread outlives the call.
    """
    pairs, segments, start = [], [], 0
    for n in sizes:
        bits, flips = np.empty(n, dtype=bool), np.empty(n, dtype=bool)
        pairs.append((bits, flips))
        segments += [(start, bits, np.greater_equal, zero_bias),
                     (start + n, flips, np.less, error_rate)]
        start += 2 * n
    total = start
    workers = min(_MAX_WORKERS, _usable_cpus()) if total >= _PARALLEL_DRAWS else 1
    edges = [total * i // workers for i in range(workers + 1)]
    state = rng.bit_generator.state

    def fill(lo: int, hi: int) -> None:
        bit_gen = np.random.PCG64()
        bit_gen.state = state
        bit_gen.advance(lo)
        gen = np.random.Generator(bit_gen)
        buf = np.empty(min(_BLOCK, hi - lo))
        for first, out, compare, threshold in segments:
            for pos in range(max(lo, first), min(hi, first + out.size), _BLOCK):
                block = buf[: min(_BLOCK, hi - pos, first + out.size - pos)]
                gen.random(out=block)
                compare(block, threshold, out=out[pos - first : pos - first + block.size])

    if workers == 1:
        fill(0, total)
    else:
        with ThreadPoolExecutor(workers - 1) as pool:
            rest = [pool.submit(fill, lo, hi) for lo, hi in zip(edges[1:-1], edges[2:])]
            fill(edges[0], edges[1])
            for future in rest:
                future.result()
    rng.bit_generator.advance(total)
    return pairs


def simulate_session(
    model: ChannelModel,
    scheme: DecoyScheme,
    pulses: int,
    seed: int,
    *,
    zero_bias: float = DEFAULT_ZERO_BIAS,
) -> tuple[SessionTally, RawKeys]:
    """Sample one session of ``pulses`` clock slots.

    Sampling is batched per (level, basis) cell — multinomial level
    choice, then binomial detection, basis, and sifting splits — which
    is distribution-identical to a per-pulse loop.  For the signal level
    the sifted bits are materialized: Alice's bits are Bernoulli with
    ``P(0) = zero_bias``, and Bob's copy gets flips at the level's
    analytic error rate; the realized flip count is what enters the
    tally, so tally and key material always agree.

    The signal level's uniform draws (bits then flips, X basis then Z)
    are split over min(8, usable CPUs) threads once there are at least
    2**17 of them; each thread fills blocks of 2**16 doubles from its
    own copy of the stream, advanced to its first draw.  The draws are
    those of one sequential stream, so the tally and the keys depend on
    ``seed`` only, not on the number of cores.

    Deterministic in ``seed``; ``pulses`` and ``seed`` are integers >= 0
    (else ``InputError``), and ``pulses = 0`` yields an all-zero tally and no keys.

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

    levels = []
    zeros = {"X": 0, "Z": 0}
    alice: dict[str, np.ndarray] = {}
    bob: dict[str, np.ndarray] = {}
    for j in range(scheme.n_levels):
        det_total = int(rng.binomial(sent[j], stats.yields[j]))
        det_x = int(rng.binomial(det_total, 0.5))
        detected = {"X": det_x, "Z": det_total - det_x}
        sifted = {b: int(rng.binomial(detected[b], 0.5)) for b in BASES}
        errors = {}
        if j == scheme.signal_index:
            draws = _signal_draws(
                rng, [sifted[b] for b in BASES], zero_bias, stats.error_rates[j]
            )
            for b, (bits, flips) in zip(BASES, draws):
                alice[b] = bits = bits.view(np.uint8)
                bob[b] = bits ^ flips.view(np.uint8)
                errors[b] = int(np.count_nonzero(flips))
                zeros[b] += sifted[b] - int(np.count_nonzero(bits))
        else:
            for b in BASES:
                errors[b] = int(rng.binomial(sifted[b], stats.error_rates[j]))
                zeros[b] += int(rng.binomial(sifted[b], zero_bias))
        levels.append(
            LevelCounts(sent=int(sent[j]), detected=detected, sifted=sifted, errors=errors)
        )

    tally = SessionTally(levels=tuple(levels), zeros=zeros)
    return tally, RawKeys(alice=alice, bob=bob)


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
      signal-level detections match exactly;
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
    from scipy import optimize  # deferred: slow to import, and only calibration uses it

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
    eta = expected_statistics(base, scheme).eta
    dark_c = base.dark_count_rate_hz * base.timing_window_s
    window = base.timing_window_s
    probs = np.asarray(scheme.send_probs)
    mus = np.asarray(scheme.mus)

    # --- stage 1: pulse count and background rate from detection totals
    signal = scheme.signal_index
    n0 = targets[signal] / (probs[signal] * (dark_c + eta * mus[signal]))
    bg0 = max(
        (targets[0] / (n0 * probs[0]) - eta * mus[0] - dark_c) / window, 1e-3
    )

    def residuals(x: np.ndarray) -> np.ndarray:
        pulses, bg = math.exp(x[0]), math.exp(x[1])
        m = replace(base, background_rate_hz=bg)
        return np.log(_modeled_detections(m, scheme, pulses)) - np.log(targets)

    fit = optimize.least_squares(residuals, x0=[math.log(n0), math.log(bg0)])
    pulses_f, bg_rate = math.exp(fit.x[0]), math.exp(fit.x[1])
    fitted = replace(base, background_rate_hz=bg_rate)
    # exact signal-level match by construction
    pulses_f *= targets[signal] / _modeled_detections(fitted, scheme, pulses_f)[signal]
    pulses = int(round(pulses_f))
    if any(round(pulses * p) < 1 for p in scheme.send_probs):
        raise InputError("detections", f"{detections} fit {pulses} pulses, too few for every level")
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
