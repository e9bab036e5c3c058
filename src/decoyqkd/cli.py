"""Command-line front end for the decoy-state post-processing pipeline.

Subcommands
-----------
simulate
    Monte-Carlo sample one session and emit its tally (stdout) plus,
    optionally, the raw sifted key files.
analyze
    Run the decoy bounds and key budget on a stored tally.
distill
    Full post-processing on a tally plus raw keys by
    ``decoyqkd.recon.distill_session``: reconcile, deskew, re-budget with
    the measured efficiencies, and hash down to the final key.
optimize
    Search the intensity/probability scheme maximizing the key total.
curve
    Key total versus distance (CSV), optionally re-optimizing per point.
calibrate
    Recover the unpublished link parameters from the session totals.

Conventions
-----------
Machine-readable output (JSON or CSV) goes to stdout; human-readable
summaries go to stderr.  Given the same inputs and seed, every command
writes byte-identical output (reports carry no timestamps, and JSON
keys are sorted).  Reports embed a SHA-256 digest of every input file.
Exit status is 0 on success, 1 on input errors (a message names the
offending flag or file), and 2 when the inputs were valid but the
session yields no key (infeasible bounds, zero key total, failed
reconciliation, or a calibration that did not converge).  ``distill``
exits 1 when reconciliation corrects another number of errors than the
tally records, and on a residual mismatch exits 2 before any key bit is
printed or written.

Every flag is declared once, in ``_FLAGS``, with its type, default and
help; each subcommand in ``_COMMANDS`` lists the flags it takes.  The
defaults are the library's (``decoyqkd.core``, ``decoyqkd.sim``).

Each subcommand accepts ``--config FILE``, a JSON object of default
values keyed by flag name (hyphens as underscores); explicit flags
override config fields.  Config values are type-checked against the
flag they stand for (JSON integers count as numbers, booleans never
do, ``null`` only where the flag has no default, and list lengths and
choices as on the command line).  Numbers, in flags and config alike,
must be finite.  Relative paths that do not exist are
retried under ``$DECOYQKD_CONFIG_DIR`` if that variable is set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import (
    BASES,
    DEFAULT_DESKEW_DEPTH,
    DEFAULT_EXTINCTION_DB,
    DEFAULT_F_DS,
    DEFAULT_F_EC,
    DEFAULT_PA_EPSILON,
    DEFAULT_POINTS_PER_STAGE,
    DEFAULT_STAGES,
    DEFAULT_ZERO_BIAS,
    ChannelModel,
    ConfidenceConfig,
    DecoyScheme,
    InputError,
    SessionTally,
    ValidationError,
    check_json_type,
    dumps,
)
from .keyrate import compose_session
from .opt import curve_csv, optimize_scheme, range_curve
from .recon import distill_session
from .sim import (
    REFERENCE_DURATION_H,
    REFERENCE_DUTY_CYCLE,
    REFERENCE_SIFT_RATIO,
    REFERENCE_ZERO_FRACTION,
    calibrate_to_reference,
    reference_model,
    reference_scheme,
    simulate_session,
)

__all__ = ["main", "CONFIG_DIR_ENV"]

CONFIG_DIR_ENV = "DECOYQKD_CONFIG_DIR"

#: Pulse counts must fit numpy's int64 samplers.
_MAX_PULSES = 2**63


class _UsageError(Exception):
    """Bad command line (unknown flag, missing value, bad choice)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        raise _UsageError(f"{self.prog}: {message}")


# ---------------------------------------------------------------------------
# flag table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Flag:
    """One flag: its name, metavar and help, and the type and default of
    its value.  A ``bool`` flag is a switch that flips its default."""

    flag: str
    metavar: str | None
    help: str
    type: type = str
    default: object = None
    nargs: int | None = None
    choices: tuple[str, ...] | None = None


#: Every flag of every command, keyed by its settings (and config) name.
_FLAGS = {
    "config": _Flag("--config", "FILE", "JSON object of default values (explicit flags win)"),
    # inputs and outputs
    "tally": _Flag("--tally", "FILE", "session tally JSON ('-' reads stdin); required"),
    "scheme": _Flag("--scheme", "FILE", "decoy scheme JSON (default: demonstration scheme)"),
    "model": _Flag("--model", "FILE", "channel model JSON (default: demonstration link)"),
    "keys": _Flag("--keys", "PREFIX", "prefix of the four raw key files from simulate; required"),
    "keys_out": _Flag("--keys-out", "PREFIX", "write PREFIX.{alice,bob}.{X,Z}.bits raw key files"),
    "key_out": _Flag("--key-out", "FILE", "also write the final key as raw bytes"),
    "out_model": _Flag("--out-model", "FILE", "write the fitted channel model JSON"),
    "out_tally": _Flag("--out-tally", "FILE", "write the reconstructed tally JSON"),
    "seed": _Flag("--seed", "N", "RNG seed; required", int),
    # link and session size
    "distance_km": _Flag("--distance-km", "KM", "override the model's fiber length", float),
    "detector_efficiency": _Flag("--detector-efficiency", "E",
                                 "what-if override of the model's detector efficiency", float),
    "duration_h": _Flag("--duration-h", "H",
                        "acquisition time, converted to pulses via the duty cycle "
                        f"(default {REFERENCE_DURATION_H} unless --pulses is given; "
                        "simulate needs one of the two)", float),
    "pulses": _Flag("--pulses", "N", "pulse count (alternative to --duration-h)", int),
    "duty_cycle": _Flag("--duty-cycle", "F", "clock-slot occupancy for --duration-h",
                        float, REFERENCE_DUTY_CYCLE),
    "zero_bias": _Flag("--zero-bias", "Z", "P(bit = 0) of the prepared key bits",
                       float, DEFAULT_ZERO_BIAS),
    # statistics and efficiencies
    "confidence": _Flag("--confidence", "EPS", "per-bound failure probability",
                        float, ConfidenceConfig.epsilon),
    "photon_cutoff": _Flag("--photon-cutoff", "N", "photon-number truncation of the yield system",
                           int, ConfidenceConfig.photon_cutoff),
    "vacuum_pinning": _Flag("--no-vacuum-pinning", None,
                            "drop the vacuum-level error-pinning constraints",
                            bool, ConfidenceConfig.pin_vacuum_errors),
    "f_ec": _Flag("--f-ec", "F", "reconciliation inefficiency", float, DEFAULT_F_EC),
    "f_ds": _Flag("--f-ds", "F", "deskewing inefficiency", float, DEFAULT_F_DS),
    "pa_epsilon": _Flag("--pa-epsilon", "EPS", "typical-set coverage confidence",
                        float, DEFAULT_PA_EPSILON),
    "sift_ratio": _Flag("--sift-ratio", "R", "sifted/detected ratio", float, REFERENCE_SIFT_RATIO),
    "zero_fraction": _Flag("--zero-fraction", "Z", "key-bit zero fraction",
                           float, REFERENCE_ZERO_FRACTION),
    # distillation
    "depth": _Flag("--depth", "D", "deskewing iteration depth", int, DEFAULT_DESKEW_DEPTH),
    "variant": _Flag("--variant", None, "which error-bound variant sizes the final key",
                     str, "worst", choices=("tight", "worst")),
    # scheme search and sweeps
    "extinction_db": _Flag("--extinction-db", "DB", "vacuum-level extinction below the signal",
                           float, DEFAULT_EXTINCTION_DB),
    "stages": _Flag("--stages", "N", "refinement stages", int, DEFAULT_STAGES),
    "points_per_stage": _Flag("--points-per-stage", "N", "grid points per coordinate scan",
                              int, DEFAULT_POINTS_PER_STAGE),
    "trace": _Flag("--trace", None, "include the full evaluation trace in the report",
                   bool, False),
    "distances": _Flag("--distances", "SPEC", "MIN:MAX:STEP in km, or a comma list",
                       str, "100:170:2"),
    "optimize": _Flag("--optimize", None, "re-optimize the scheme at every distance",
                      bool, False),
    # published session totals
    "detections": _Flag("--detections", "N", "per-level detection totals, ascending intensity",
                        int, nargs=3),
    "sifted": _Flag("--sifted", "N", "total sifted bits", int),
    "targets": _Flag("--targets", "N", "tight and worst-case key totals to land on",
                     int, nargs=2),
}


def _finite_float(text: str) -> float:
    """The argparse type of a ``float`` flag: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _config_value(key: str, value):
    """A ``--config`` value read with the type of the flag it stands for."""
    row = _FLAGS[key]
    what = f"{_FLAGS['config'].flag}: {key}"
    if value is None and row.default is None:
        return None
    if row.nargs is not None:
        if not isinstance(value, list) or len(value) != row.nargs:
            raise ValidationError(
                f"{what}: expected a list of {row.nargs} values, got {value!r}"
            )
        return [check_json_type(v, row.type, what) for v in value]
    value = check_json_type(value, row.type, what)
    if row.choices is not None and value not in row.choices:
        raise ValidationError(
            f"{what}: expected one of {list(row.choices)}, got {value!r}"
        )
    return value


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def _resolve(path: str, flag: str) -> Path:
    """Resolve a user-supplied path, falling back to the config dir."""
    p = Path(path)
    if p.exists():
        return p
    if not p.is_absolute():
        base = os.environ.get(CONFIG_DIR_ENV)
        if base:
            candidate = Path(base) / p
            if candidate.exists():
                return candidate
    raise ValidationError(f"{flag}: file not found: {path}")


def _load_doc(path: str, flag: str) -> tuple[dict, dict]:
    """Load a JSON document; returns (doc, reference-with-digest)."""
    if path == "-":
        raw = sys.stdin.buffer.read()
        shown = "<stdin>"
    else:
        resolved = _resolve(path, flag)
        raw = resolved.read_bytes()
        shown = str(resolved)
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
        raise ValidationError(f"{flag}: {shown} is not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{flag}: {shown} must hold a JSON object")
    return doc, {"path": shown, "sha256": hashlib.sha256(raw).hexdigest()}


def _settings(args: argparse.Namespace) -> tuple[dict, dict | None]:
    """Merge the table defaults < config file < explicit flags."""
    settings = {key: _FLAGS[key].default for key in _COMMANDS[args.command].flags}
    passed = {
        k: v for k, v in vars(args).items() if k not in ("handler", "command")
    }
    cfg_ref = None
    cfg_path = passed.pop("config", None)
    if cfg_path is not None:
        doc, cfg_ref = _load_doc(cfg_path, _FLAGS["config"].flag)
        unknown = sorted(set(doc) - set(settings))
        if unknown:
            raise ValidationError(
                f"{_FLAGS['config'].flag}: unknown fields {unknown}; "
                f"expected among {sorted(settings)}"
            )
        settings.update((key, _config_value(key, value)) for key, value in doc.items())
    settings.update(passed)
    return settings, cfg_ref


def _require(settings: dict, key: str):
    value = settings[key]
    if value is None:
        raise ValidationError(f"{_FLAGS[key].flag} is required")
    return value


@contextmanager
def _input_named(**paths: str):
    """Turn an ``InputError`` into a message naming the input's flag and, for
    an input in ``paths``, the document path it was read from."""
    try:
        yield
    except InputError as exc:
        shown = f"{paths[exc.input_name]} " if exc.input_name in paths else ""
        raise ValidationError(f"{_FLAGS[exc.input_name].flag}: {shown}{exc}") from exc


def _load_scheme(settings: dict) -> tuple[DecoyScheme, dict]:
    path = settings["scheme"]
    if path is None:
        return reference_scheme(), {"builtin": "reference"}
    doc, ref = _load_doc(path, _FLAGS["scheme"].flag)
    return DecoyScheme.from_json(doc), ref


def _load_model(settings: dict) -> tuple[ChannelModel, dict]:
    path = settings["model"]
    if path is None:
        model, ref = reference_model(), {"builtin": "reference"}
    else:
        doc, ref = _load_doc(path, _FLAGS["model"].flag)
        model = ChannelModel.from_json(doc)
    distance = settings["distance_km"]
    if distance is not None:
        model = model.with_length(distance)
    efficiency = settings.get("detector_efficiency")
    if efficiency is not None:
        model = replace(model, detector_efficiency=efficiency)
    return model, ref


def _load_tally(settings: dict) -> tuple[SessionTally, dict]:
    path = _require(settings, "tally")
    doc, ref = _load_doc(path, _FLAGS["tally"].flag)
    tally = SessionTally.from_json(doc)
    if tally.reconstructed:
        _note(
            f"note: tally {ref['path']} was reconstructed (bare totals split 50/50 "
            "or zeros assumed unbiased), so its per-basis counts are estimates"
        )
    return tally, ref


def _epsilon(settings: dict, key: str) -> float:
    """A failure probability flag, checked to lie in (0, 0.5)."""
    value = settings[key]
    if not 0.0 < value < 0.5:
        raise ValidationError(f"{_FLAGS[key].flag} must lie in (0, 0.5), got {value}")
    return value


def _confidence(settings: dict) -> ConfidenceConfig:
    return ConfidenceConfig(
        epsilon=_epsilon(settings, "confidence"),
        photon_cutoff=settings["photon_cutoff"],
        pin_vacuum_errors=settings["vacuum_pinning"],
    )


def _resolve_pulses(
    settings: dict, model: ChannelModel, scheme: DecoyScheme, *, required: bool = False
) -> int:
    """Pulse count from --pulses or --duration-h (the reference duration if
    neither is given and not ``required``); it must give every level of
    ``scheme`` a pulse."""
    pulses = settings["pulses"]
    duration = settings["duration_h"]
    if pulses is not None and duration is not None:
        raise ValidationError("give --pulses or --duration-h, not both")
    if pulses is not None:
        given = f"--pulses {pulses}"
        if pulses >= _MAX_PULSES:
            raise ValidationError(f"--pulses must be below 2**63, got {pulses}")
    else:
        if duration is None:
            if required:
                raise ValidationError("one of --pulses or --duration-h is required")
            duration = REFERENCE_DURATION_H
        given = f"--duration-h {duration}"
        if duration <= 0:
            raise ValidationError("--duration-h must be > 0")
        duty = settings["duty_cycle"]
        if not 0.0 < duty <= 1.0:
            raise ValidationError("--duty-cycle must lie in (0, 1]")
        pulses = duration * 3600.0 * model.clock_rate_hz * duty
        if not pulses < _MAX_PULSES:
            raise ValidationError(
                f"{given} gives {pulses:.3g} pulses; the count must be below 2**63"
            )
        pulses = int(round(pulses))
    if round(pulses * min(scheme.send_probs)) < 1:  # also any --pulses <= 0
        raise ValidationError(f"{given} gives {pulses} pulses, too few to send one at every level")
    return pulses


def _parse_distances(spec: str) -> list[float]:
    """Parse ``min:max:step`` or a comma-separated list of km values."""
    try:
        if ":" in spec:
            lo_s, hi_s, step_s = spec.split(":")
            lo, hi, step = float(lo_s), float(hi_s), float(step_s)
            if step <= 0 or hi < lo or not all(map(math.isfinite, (lo, hi, step))):
                raise ValueError
            n = int(math.floor((hi - lo) / step + 1e-9)) + 1
            return [lo + i * step for i in range(n)]
        values = [float(tok) for tok in spec.split(",") if tok.strip()]
        if not values or not all(map(math.isfinite, values)):
            raise ValueError
        return values
    except ValueError:
        raise ValidationError(
            f"--distances: expected MIN:MAX:STEP or a comma list, got {spec!r}"
        ) from None


def _key_paths(prefix: str) -> dict[tuple[str, str], Path]:
    return {
        (side, basis): Path(f"{prefix}.{side}.{basis}.bits")
        for side in ("alice", "bob")
        for basis in BASES
    }


def _write_bits(path: Path, bits: np.ndarray) -> None:
    path.write_text("".join("1" if b else "0" for b in bits) + "\n")


def _read_bits(path: Path, flag: str) -> tuple[np.ndarray, str]:
    if not path.exists():
        raise ValidationError(f"{flag}: key file not found: {path}")
    raw = path.read_bytes()
    text = raw.decode("ascii", errors="replace").strip()
    if text and set(text) - {"0", "1"}:
        raise ValidationError(f"{flag}: {path} holds non-binary characters")
    bits = np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")
    return bits.astype(np.uint8), hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(args: argparse.Namespace) -> int:
    settings, _ = _settings(args)
    seed = _require(settings, "seed")
    scheme, scheme_ref = _load_scheme(settings)
    model, model_ref = _load_model(settings)
    pulses = _resolve_pulses(settings, model, scheme, required=True)

    tally, keys = simulate_session(
        model, scheme, pulses, seed, zero_bias=settings["zero_bias"]
    )

    prefix = settings["keys_out"]
    if prefix is not None:
        for (side, basis), path in _key_paths(prefix).items():
            source = keys.alice if side == "alice" else keys.bob
            _write_bits(path, source[basis])
        _note(f"raw keys written under prefix {prefix!r}")

    _note(
        f"simulate: seed {seed}, {pulses} pulses, "
        f"detections {[lv.detected_total() for lv in tally.levels]}, "
        f"sifted {[tally.sifted_total(b) for b in BASES]} (X, Z)"
    )
    _note(f"inputs: scheme {scheme_ref}, model {model_ref}")
    print(dumps(tally))
    return 0


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    settings, cfg_ref = _settings(args)
    tally, tally_ref = _load_tally(settings)
    scheme, scheme_ref = _load_scheme(settings)
    config = _confidence(settings)

    budget = {key: settings[key] for key in ("f_ec", "f_ds")}
    budget["pa_epsilon"] = _epsilon(settings, "pa_epsilon")
    with _input_named(tally=tally_ref["path"]):
        analysis = compose_session(tally, scheme, config, **budget)

    report = {
        "kind": "analysis_report",
        "inputs": {"tally": tally_ref, "scheme": scheme_ref, "config": cfg_ref},
        "parameters": {
            "confidence": config.epsilon,
            "photon_cutoff": config.photon_cutoff,
            "vacuum_pinning": config.pin_vacuum_errors,
            **budget,
        },
        "analysis": analysis.to_json(),
    }
    _emit(report)

    if not analysis.feasible:
        _note("analyze: decoy bounds infeasible for this tally")
        return 2
    _note(
        f"analyze: key total {analysis.total_tight} (tight) / "
        f"{analysis.total_worst} (worst-case), y1 lower {analysis.bounds.y1_lower:.3e}"
    )
    if analysis.total_tight == 0:
        _note("analyze: zero-key outcome")
        return 2
    return 0


# ---------------------------------------------------------------------------
# distill
# ---------------------------------------------------------------------------


def _cmd_distill(args: argparse.Namespace) -> int:
    settings, cfg_ref = _settings(args)
    tally, tally_ref = _load_tally(settings)
    scheme, scheme_ref = _load_scheme(settings)
    config = _confidence(settings)
    pa_epsilon = _epsilon(settings, "pa_epsilon")
    seed = _require(settings, "seed")
    keys: dict[str, dict[str, np.ndarray]] = {"alice": {}, "bob": {}}
    digests: dict[str, str] = {}
    for (side, basis), path in _key_paths(_require(settings, "keys")).items():
        keys[side][basis], digests[path.name] = _read_bits(path, _FLAGS["keys"].flag)

    with _input_named(tally=tally_ref["path"]):
        result = distill_session(
            tally, scheme, keys["alice"], keys["bob"], config, seed=seed,
            depth=settings["depth"], variant=settings["variant"], pa_epsilon=pa_epsilon,
        )
    _emit({
        "kind": "distill_report",
        "inputs": {"tally": tally_ref, "scheme": scheme_ref, "config": cfg_ref,
                   "key_files_sha256": digests},
        "parameters": {key: settings[key]
                       for key in ("seed", "depth", "variant", "confidence", "pa_epsilon")},
        **result.to_json(),
    })
    if result.residual:
        _note("distill: residual mismatch survived reconciliation; aborted, no key emitted")
        return 2
    if result.analysis is None:
        _note("distill: deskew produced no output bits")
        return 2

    key_out = settings["key_out"]
    if key_out is not None:
        Path(key_out).write_bytes(result.final_key_bytes())
        _note(f"final key bytes written to {key_out}")
    for basis, entry in result.bases.items():
        if entry["final_length"] < entry["n_secret"]:
            _note(
                f"distill: basis {basis} budget {entry['n_secret']} exceeds the "
                f"{entry['deskew']['output_length']} deskewed bits; key truncated"
            )
    _note(
        "distill: f_ec "
        + ", ".join(f"{b} {e['f_ec_measured']:.4f}" for b, e in result.bases.items())
        + "; f_ds "
        + ", ".join(f"{b} {e['deskew']['f_ds_measured']:.4f}" for b, e in result.bases.items())
    )
    analysis = result.analysis
    _note(
        f"distill: final key {result.final_key.size} bits ({settings['variant']} "
        f"variant; totals {analysis.total_tight}/{analysis.total_worst})"
    )
    if result.final_key.size == 0:
        _note("distill: zero-key outcome")
        return 2
    return 0


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def _cmd_optimize(args: argparse.Namespace) -> int:
    settings, cfg_ref = _settings(args)
    model, model_ref = _load_model(settings)
    scheme, scheme_ref = _load_scheme(settings)
    pulses = _resolve_pulses(settings, model, scheme)
    knobs = {
        key: settings[key]
        for key in ("extinction_db", "stages", "points_per_stage",
                    "f_ec", "f_ds", "sift_ratio", "zero_fraction")
    }

    with _input_named():
        result = optimize_scheme(
            model,
            pulses,
            initial_scheme=scheme,
            config=_confidence(settings),
            **knobs,
        )

    report = {
        "kind": "optimize_report",
        "inputs": {"model": model_ref, "initial_scheme": scheme_ref, "config": cfg_ref},
        "parameters": {
            "pulses": pulses,
            "confidence": settings["confidence"],
            **knobs,
        },
        "scheme": result.scheme.to_json(),
        "n_secret_tight": result.n_secret_tight,
        "n_secret_worst": result.n_secret_worst,
        "feasible": result.feasible,
        "evaluations": result.evaluations,
        "trace": list(result.trace) if settings["trace"] else None,
    }
    _emit(report)
    _note(
        f"optimize: {result.evaluations} evaluations, best scheme "
        f"mus={tuple(round(m, 6) for m in result.scheme.mus)} "
        f"probs={tuple(round(p, 6) for p in result.scheme.send_probs)}"
    )
    if not result.feasible:
        _note("optimize: every candidate yields a zero key at this operating point")
        return 2
    _note(
        f"optimize: key total {result.n_secret_tight} (tight) / "
        f"{result.n_secret_worst} (worst-case)"
    )
    return 0


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

_CURVE_EPILOG = """\
CSV columns (one row per grid distance):
  distance_km      fiber length of the row
  n_secret_tight   key total with the observed single-photon error rate
  n_secret_worst   key total with the worst-case single-photon error rate
  y1_lower         certified single-photon yield lower bound
  b1_tight         observed-variant single-photon error bound (max basis)
  b1_worst         worst-case single-photon error bound (max basis)
  mu0..mu2         intensities of the scheme used at that distance
  p0..p2           send probabilities of that scheme
The last row with a positive key total defines the range at the grid
resolution; the two range endpoints are printed to stderr.
"""


def _cmd_curve(args: argparse.Namespace) -> int:
    settings, _ = _settings(args)
    model, _ = _load_model(settings)
    scheme, _ = _load_scheme(settings)
    pulses = _resolve_pulses(settings, model, scheme)
    distances = _parse_distances(settings["distances"])

    with _input_named():
        curve = range_curve(
            model,
            pulses,
            distances,
            optimize=settings["optimize"],
            scheme=scheme,
            extinction_db=settings["extinction_db"],
            stages=settings["stages"],
            config=_confidence(settings),
            f_ec=settings["f_ec"],
            f_ds=settings["f_ds"],
            sift_ratio=settings["sift_ratio"],
            zero_fraction=settings["zero_fraction"],
        )

    sys.stdout.write(curve_csv(curve))
    tight = curve.range_tight_km
    worst = curve.range_worst_km
    _note(
        f"curve: {len(curve.points)} points, "
        f"range {tight if tight is not None else '<grid'} km (tight) / "
        f"{worst if worst is not None else '<grid'} km (worst-case), "
        f"{'re-optimized per point' if curve.optimized else 'fixed scheme'}"
    )
    if tight is None:
        _note("curve: zero key everywhere on the grid")
        return 2
    return 0


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def _cmd_calibrate(args: argparse.Namespace) -> int:
    settings, cfg_ref = _settings(args)
    # Session totals left unset fall back to the library's reference session.
    totals = {
        param: settings[key]
        for key, param in (("duration_h", "duration_h"), ("detections", "detections"),
                           ("sifted", "sifted_total"), ("targets", "key_targets"))
        if settings[key] is not None
    }

    result = calibrate_to_reference(
        zero_fraction=settings["zero_fraction"],
        f_ec=settings["f_ec"],
        f_ds=settings["f_ds"],
        config=_confidence(settings),
        **totals,
    )

    report = {"kind": "calibration_report", "inputs": {"config": cfg_ref}}
    report.update(result.to_json())
    _emit(report)

    for key, obj in (("out_model", result.model), ("out_tally", result.tally)):
        path = settings[key]
        if path is not None:
            Path(path).write_text(dumps(obj) + "\n")
            _note(f"{key.replace('_', ' ')} written to {path}")

    diag = result.diagnostics
    _note(
        f"calibrate: pulses {result.pulses} (duty {result.duty_cycle:.4f}), "
        f"background {result.background_rate_hz:.1f} Hz, "
        f"intrinsic error {result.e_int:.5f}"
    )
    _note(
        f"calibrate: key totals {result.analysis.total_tight} (tight) / "
        f"{result.analysis.total_worst} (worst-case) vs targets "
        f"{diag.get('key_targets')}"
    )
    if not diag.get("converged", False):
        _note("calibrate: fit did not converge; inspect the diagnostics block")
        return 2
    return 0


# ---------------------------------------------------------------------------
# command table and parser
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Command:
    """A subcommand: its handler, its help and the flags it takes.

    ``help_for`` replaces the help of a flag that means something else
    here; its type and default stay the table's.
    """

    handler: object
    help: str
    flags: tuple[str, ...]
    help_for: dict[str, str] = field(default_factory=dict)
    epilog: str | None = None


_SESSION = ("model", "distance_km", "duration_h", "pulses", "duty_cycle")
_STATISTICS = ("confidence", "photon_cutoff", "vacuum_pinning")

_COMMANDS = {
    "simulate": _Command(
        _cmd_simulate, "Monte-Carlo sample one session",
        (*_SESSION, "scheme", "seed", "zero_bias", "keys_out"),
    ),
    "analyze": _Command(
        _cmd_analyze, "Decoy bounds and key budget for a tally",
        ("tally", "scheme", *_STATISTICS, "f_ec", "f_ds", "pa_epsilon"),
    ),
    "distill": _Command(
        _cmd_distill, "Reconcile, deskew, and hash raw keys into the final key",
        ("tally", "scheme", *_STATISTICS, "keys", "seed", "depth", "variant",
         "pa_epsilon", "key_out"),
        help_for={"seed": "seed for the reconciliation shuffles and hash; required"},
    ),
    "optimize": _Command(
        _cmd_optimize, "Search the best intensity scheme",
        (*_SESSION, *_STATISTICS, "scheme", "extinction_db", "stages", "points_per_stage",
         "f_ec", "f_ds", "sift_ratio", "zero_fraction", "trace"),
        help_for={"scheme": "initial scheme JSON (default: demonstration scheme)"},
    ),
    "curve": _Command(
        _cmd_curve, "Key total versus distance as CSV",
        (*_SESSION, *_STATISTICS, "scheme", "distances", "optimize", "extinction_db",
         "stages", "f_ec", "f_ds", "sift_ratio", "zero_fraction", "detector_efficiency"),
        help_for={
            "scheme": "fixed scheme JSON, or the first-point seed with --optimize",
            "stages": "refinement stages per optimized point",
        },
        epilog=_CURVE_EPILOG,
    ),
    "calibrate": _Command(
        _cmd_calibrate, "Recover link parameters from published session totals",
        ("duration_h", "detections", "sifted", "targets", "zero_fraction", "f_ec", "f_ds",
         *_STATISTICS, "out_model", "out_tally"),
    ),
}


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="decoyqkd",
        description=(
            "Finite-statistics decoy-state key distillation: simulate, "
            "analyze, distill, optimize, curve, calibrate."
        ),
        epilog=(
            f"Relative input paths are also searched under ${CONFIG_DIR_ENV}. "
            "JSON/CSV results go to stdout, summaries to stderr. Exit codes: "
            "0 success, 1 input error, 2 valid inputs but no key."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(
            name, help=command.help, description=command.help,
            argument_default=argparse.SUPPRESS, epilog=command.epilog,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.set_defaults(handler=command.handler)
        for key in ("config", *command.flags):
            row = _FLAGS[key]
            text = command.help_for.get(key, row.help)
            if row.type is bool:
                action = "store_false" if row.default else "store_true"
                p.add_argument(row.flag, dest=key, action=action, help=text)
                continue
            if row.default is not None:
                shown = format(row.default, ".6g") if row.type is float else row.default
                text = f"{text} (default {shown})"
            p.add_argument(
                row.flag, dest=key, type=_finite_float if row.type is float else row.type,
                nargs=row.nargs, choices=row.choices, metavar=row.metavar, help=text,
            )
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        _note(f"error: {exc}")
        return 1
    try:
        return args.handler(args)
    except (ValidationError, ValueError, OSError) as exc:
        command = getattr(args, "command", "decoyqkd")
        _note(f"decoyqkd {command}: error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
