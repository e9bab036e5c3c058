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
keys are sorted).  Reports embed a SHA-256 digest of every input file
and, under ``parameters``, every other setting (with the pulse count a
command resolved from ``--duration-h``).  ``simulate`` and ``curve``,
whose stdout is a tally or CSV, print the same report head to stderr as
one line, ``simulate: report {...}`` or ``curve: report {...}``, of
compact sorted-key JSON.
Exit status is 0 on success, 1 on input errors (a message names the
offending flag or file; an output file that cannot be written is named
with its flag, before anything reaches stdout), and 2 when the inputs
were valid but the session yields no key (infeasible bounds, zero key
total, failed reconciliation, or a calibration that did not converge).  ``distill``
exits 1 when reconciliation corrects another number of errors than the
tally records, and on a residual mismatch exits 2 before any key bit is
printed or written.  A command writes all of its output files or none,
and no output may name an input or another output.

Every flag is declared once, in ``_FLAGS``, with its type, default and
help; each subcommand in ``_COMMANDS`` lists the flags it takes.  The
defaults are the library's (``decoyqkd.core``, ``decoyqkd.sim``).

``main`` merges a command's settings into the ``_Settings`` record its
handler takes, with the files the command reads and the bytes it writes:
a handler returns its exit status and stdout, and ``main`` writes, then
prints.  ``_Settings.name`` names a setting in every message,
``InputError``s included: by its flag, or as ``--config: <field>`` when
the config file set it (``--config: photon_cutoff: photon_cutoff must be
>= 1, got 0``), with the path for ``--tally``, ``--scheme`` and ``--model``.

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
import functools
import hashlib
import json
import math
import os
import shutil
import sys
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

#: Flags that name a file.  A report's ``parameters`` holds every other
#: setting of its command, since each of those can change the result.
_PATH_FLAGS = tuple(key for key, row in _FLAGS.items() if row.metavar in ("FILE", "PREFIX"))


def _finite_float(text: str) -> float:
    """The argparse type of a ``float`` flag: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _config_value(key: str, value, what: str):
    """A ``--config`` value, named ``what``, read with the type of its flag."""
    row = _FLAGS[key]
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


def _resolve(path: str, name: str) -> Path:
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
    raise ValidationError(f"{name}: file not found: {path}")


def _load_doc(settings: _Settings, key: str, path: str) -> dict:
    """Load the JSON object ``path`` names for setting ``key``, recording its file."""
    name = settings.name(key)
    shown = "<stdin>" if path == "-" else str(_resolve(path, name))
    raw = sys.stdin.buffer.read() if path == "-" else Path(shown).read_bytes()
    settings.inputs[key] = {"path": shown, "sha256": hashlib.sha256(raw).hexdigest()}
    if path != "-":
        settings.read[os.path.realpath(shown)] = name
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
        raise ValidationError(f"{name}: {shown} is not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{name}: {shown} must hold a JSON object")
    return doc


class _Settings(dict):
    """A command's settings by key, with ``from_config``, the keys the config
    file set, and its files: ``inputs``, each input's reference (path and
    digest, or built-in) by key; ``read``, the name of the setting that read
    each input file, by real path; ``outputs``, the ``(key, path, bytes)`` to write."""

    from_config: frozenset[str] = frozenset()

    def name(self, key: str) -> str:
        """How a message names setting ``key``: ``--config: <field>`` if its
        value came from the config file, else its flag."""
        if key in self.from_config:
            return f"{_FLAGS['config'].flag}: {key}"
        return _FLAGS[key].flag


def _settings(args: argparse.Namespace) -> _Settings:
    """Merge the table defaults < config file < explicit flags."""
    settings = _Settings({key: _FLAGS[key].default for key in _COMMANDS[args.command].flags})
    settings.inputs, settings.read, settings.outputs = {"config": None}, {}, []
    passed = {k: v for k, v in vars(args).items() if k not in ("handler", "command")}
    cfg_path = passed.pop("config", None)
    if cfg_path is not None:
        doc = _load_doc(settings, "config", cfg_path)
        unknown = sorted(set(doc) - set(settings))
        if unknown:
            raise ValidationError(
                f"{settings.name('config')}: unknown fields {unknown}; "
                f"expected among {sorted(settings)}"
            )
        settings.from_config = frozenset(doc)
        settings.update((key, _config_value(key, value, settings.name(key)))
                        for key, value in doc.items())
        settings.from_config -= set(passed)
    settings.update(passed)
    return settings


def _require(settings: _Settings, key: str):
    value = settings[key]
    if value is None:
        raise ValidationError(f"{settings.name(key)} is required")
    return value


def _report(kind: str, settings: _Settings, **resolved) -> dict:
    """The head of a JSON report: its kind, the input files the command
    read and its parameters, which are every setting but the file flags,
    with the values a command ``resolved`` from them (such as ``pulses``)."""
    parameters = {k: v for k, v in settings.items() if k not in _PATH_FLAGS}
    return {"kind": kind, "inputs": dict(settings.inputs),
            "parameters": {**parameters, **resolved}}


def _note_report(command: str, report: dict) -> None:
    """A report head on stderr, as one line of compact sorted-key JSON."""
    _note(f"{command}: report {json.dumps(report, sort_keys=True, separators=(',', ':'))}")


#: Each document setting's class and built-in (None: the setting is required).
_DOCUMENTS = {"tally": (SessionTally, None), "scheme": (DecoyScheme, reference_scheme),
              "model": (ChannelModel, reference_model)}


def _read(settings: _Settings, key: str):
    """The document setting ``key`` names, or its built-in, as ``settings.inputs`` records."""
    cls, builtin = _DOCUMENTS[key]
    if settings[key] is None and builtin is not None:
        settings.inputs[key] = {"builtin": "reference"}
        return builtin()
    doc = _load_doc(settings, key, _require(settings, key))
    try:
        return cls.from_json(doc)
    except ValidationError as exc:
        raise InputError(key, str(exc)) from exc


def _load_model(settings: _Settings) -> ChannelModel:
    model = _read(settings, "model")
    for key, field_name in (("distance_km", "fiber_length_km"),
                            ("detector_efficiency", "detector_efficiency")):
        value = settings.get(key)
        if value is not None:
            try:
                model = replace(model, **{field_name: value})
            except ValidationError as exc:
                raise InputError(key, str(exc)) from exc
    return model


def _load_tally(settings: _Settings) -> SessionTally:
    tally = _read(settings, "tally")
    if tally.reconstructed:
        _note(
            f"note: tally {settings.inputs['tally']['path']} was reconstructed (bare totals "
            "split 50/50 or zeros assumed unbiased), so its per-basis counts are estimates"
        )
    return tally


def _epsilon(settings: _Settings, key: str) -> float:
    """A failure probability setting, checked to lie in (0, 0.5)."""
    value = settings[key]
    if not 0.0 < value < 0.5:
        raise ValidationError(f"{settings.name(key)} must lie in (0, 0.5), got {value}")
    return value


def _confidence(settings: _Settings) -> ConfidenceConfig:
    return ConfidenceConfig(
        epsilon=_epsilon(settings, "confidence"),
        photon_cutoff=settings["photon_cutoff"],
        pin_vacuum_errors=settings["vacuum_pinning"],
    )


def _evaluation(settings: _Settings) -> dict:
    """The ``evaluate_scheme`` keywords among a design command's settings."""
    keys = ("f_ec", "f_ds", "sift_ratio", "zero_fraction")
    return {"config": _confidence(settings), **{k: settings[k] for k in keys if k in settings}}


def _resolve_pulses(
    settings: _Settings, model: ChannelModel, scheme: DecoyScheme, *, required: bool = False
) -> int:
    """Pulse count from --pulses or --duration-h (the reference duration if
    neither is given and not ``required``); it must give every level of
    ``scheme`` a pulse."""
    pulses, duration, duty = settings["pulses"], settings["duration_h"], settings["duty_cycle"]
    named_pulses, named_duration = settings.name("pulses"), settings.name("duration_h")
    if not 0.0 < duty <= 1.0:
        raise ValidationError(f"{settings.name('duty_cycle')} must lie in (0, 1]")
    if pulses is not None and duration is not None:
        raise ValidationError(f"give {named_pulses} or {named_duration}, not both")
    if pulses is not None:
        given = f"{named_pulses} {pulses}"
        if pulses >= _MAX_PULSES:
            raise ValidationError(f"{named_pulses} must be below 2**63, got {pulses}")
    else:
        if duration is None:
            if required:
                raise ValidationError(f"one of {named_pulses} or {named_duration} is required")
            duration = REFERENCE_DURATION_H
        given = f"{named_duration} {duration}"
        if duration <= 0:
            raise ValidationError(f"{named_duration} must be > 0")
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
            values = [lo + i * step for i in range(n)]
        else:
            values = [float(tok) for tok in spec.split(",") if tok.strip()]
            if not values or not all(map(math.isfinite, values)):
                raise ValueError
    except ValueError:
        raise InputError("distances",
                         f"expected MIN:MAX:STEP or a comma list, got {spec!r}") from None
    return values


def _key_paths(prefix: str) -> dict[tuple[str, str], Path]:
    return {
        (side, basis): Path(f"{prefix}.{side}.{basis}.bits")
        for side in ("alice", "bob")
        for basis in BASES
    }


#: The ASCII characters ``str.strip`` removes: the whitespace around a key file's bits.
_KEY_PADDING = bytes(c for c in range(128) if chr(c).isspace())


def _encode_bits(bits: np.ndarray) -> bytes:
    """A key file's bytes: an ASCII ``0`` or ``1`` per bit, then a newline."""
    return ((bits != 0).view(np.uint8) + ord("0")).tobytes() + b"\n"


def _read_bits(path: Path, name: str) -> tuple[np.ndarray, str]:
    if not path.exists():
        raise ValidationError(f"{name}: key file not found: {path}")
    raw = path.read_bytes()
    bits = np.frombuffer(raw.strip(_KEY_PADDING), dtype=np.uint8) - ord("0")
    if bits.size and bits.max() > 1:  # any other byte wraps past 1
        raise ValidationError(f"{name}: {path} holds non-binary characters")
    return bits, hashlib.sha256(raw).hexdigest()


def _write_all(settings: _Settings) -> None:
    """Write every file in ``settings.outputs`` or none: each is staged beside
    its target, in order, and renamed onto it once all are staged.  No output
    may name an input, another output or an existing non-regular file."""
    taken, targets, staged = dict(settings.read), [], []
    for key, path, _ in settings.outputs:
        target = os.path.realpath(path)
        if target in taken:
            raise InputError(key, f"cannot write {path}: {taken[target]} names it too")
        if os.path.exists(target) and not os.path.isfile(target):
            raise InputError(key, f"cannot write {path}: not a regular file")
        taken[target] = settings.name(key)
        targets.append(target)
    try:
        for (key, path, data), target in zip(settings.outputs, targets):
            with open(f"{target}.{os.getpid()}.partial", "xb") as out:
                staged.append(out.name)
                out.write(data)
            if os.path.exists(target):  # keep its permissions, as writing into it would
                shutil.copymode(target, out.name)
    except OSError as exc:
        for name in staged:
            os.remove(name)
        raise InputError(key, f"cannot write {path}: {exc.strerror or exc}") from None
    for name, target in zip(staged, targets):
        os.replace(name, target)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _cmd_simulate(settings: _Settings) -> tuple[int, str]:
    seed = _require(settings, "seed")
    scheme = _read(settings, "scheme")
    model = _load_model(settings)
    pulses = _resolve_pulses(settings, model, scheme, required=True)

    tally, keys = simulate_session(
        model, scheme, pulses, seed, zero_bias=settings["zero_bias"]
    )

    if settings["keys_out"] is not None:
        for (side, basis), path in _key_paths(settings["keys_out"]).items():
            settings.outputs.append(("keys_out", path, _encode_bits(getattr(keys, side)[basis])))

    _note(
        f"simulate: seed {seed}, {pulses} pulses, "
        f"detections {[lv.detected_total() for lv in tally.levels]}, "
        f"sifted {[tally.sifted_total(b) for b in BASES]} (X, Z)"
    )
    _note_report("simulate", _report("simulate_report", settings, pulses=pulses))
    return 0, dumps(tally) + "\n"


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def _cmd_analyze(settings: _Settings) -> tuple[int, str]:
    tally = _load_tally(settings)
    scheme = _read(settings, "scheme")
    config = _confidence(settings)

    budget = {key: settings[key] for key in ("f_ec", "f_ds")}
    budget["pa_epsilon"] = _epsilon(settings, "pa_epsilon")
    analysis = compose_session(tally, scheme, config, **budget)

    text = dumps({**_report("analysis_report", settings), "analysis": analysis.to_json()}) + "\n"

    if not analysis.feasible:
        _note("analyze: decoy bounds infeasible for this tally")
        return 2, text
    _note(
        f"analyze: key total {analysis.total_tight} (tight) / "
        f"{analysis.total_worst} (worst-case), y1 lower {analysis.bounds.y1_lower:.3e}"
    )
    if analysis.total_tight == 0:
        _note("analyze: zero-key outcome")
        return 2, text
    return 0, text


# ---------------------------------------------------------------------------
# distill
# ---------------------------------------------------------------------------


def _cmd_distill(settings: _Settings) -> tuple[int, str]:
    tally = _load_tally(settings)
    scheme = _read(settings, "scheme")
    config = _confidence(settings)
    pa_epsilon = _epsilon(settings, "pa_epsilon")
    seed = _require(settings, "seed")
    keys: dict[str, dict[str, np.ndarray]] = {"alice": {}, "bob": {}}
    digests = settings.inputs["key_files_sha256"] = {}
    for (side, basis), path in _key_paths(_require(settings, "keys")).items():
        keys[side][basis], digests[path.name] = _read_bits(path, settings.name("keys"))
        settings.read[os.path.realpath(path)] = settings.name("keys")

    result = distill_session(
        tally, scheme, keys["alice"], keys["bob"], config, seed=seed,
        depth=settings["depth"], variant=settings["variant"], pa_epsilon=pa_epsilon,
    )
    if settings["key_out"] is not None and result.analysis is not None:  # None: aborted, no key
        settings.outputs.append(("key_out", settings["key_out"], result.final_key_bytes()))
    text = dumps({**_report("distill_report", settings), **result.to_json()}) + "\n"
    if result.residual:
        _note("distill: residual mismatch survived reconciliation; aborted, no key emitted")
        return 2, text
    if result.analysis is None:
        _note("distill: deskew produced no output bits")
        return 2, text

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
        return 2, text
    return 0, text


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def _cmd_optimize(settings: _Settings) -> tuple[int, str]:
    model = _load_model(settings)
    scheme = _read(settings, "scheme")
    pulses = _resolve_pulses(settings, model, scheme)

    result = optimize_scheme(
        model,
        pulses,
        extinction_db=settings["extinction_db"],
        stages=settings["stages"],
        points_per_stage=settings["points_per_stage"],
        initial_scheme=scheme,
        **_evaluation(settings),
    )

    analysis = result.analysis
    report = {
        **_report("optimize_report", settings, pulses=pulses),
        "scheme": result.scheme.to_json(),
        "n_secret_tight": analysis.total_tight,
        "n_secret_worst": analysis.total_worst,
        "feasible": analysis.total_tight > 0,
        "evaluations": len(result.trace),
        "trace": list(result.trace) if settings["trace"] else None,
    }
    report["inputs"]["initial_scheme"] = report["inputs"].pop("scheme")
    text = dumps(report) + "\n"
    _note(
        f"optimize: {len(result.trace)} evaluations, best scheme "
        f"mus={tuple(round(m, 6) for m in result.scheme.mus)} "
        f"probs={tuple(round(p, 6) for p in result.scheme.send_probs)}"
    )
    if analysis.total_tight == 0:
        _note("optimize: every candidate yields a zero key at this operating point")
        return 2, text
    _note(
        f"optimize: key total {analysis.total_tight} (tight) / "
        f"{analysis.total_worst} (worst-case)"
    )
    return 0, text


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


def _cmd_curve(settings: _Settings) -> tuple[int, str]:
    model = _load_model(settings)
    scheme = _read(settings, "scheme")
    pulses = _resolve_pulses(settings, model, scheme)
    distances = _parse_distances(settings["distances"])

    curve = range_curve(
        model,
        pulses,
        distances,
        optimize=settings["optimize"],
        scheme=scheme,
        extinction_db=settings["extinction_db"],
        stages=settings["stages"],
        **_evaluation(settings),
    )

    text = curve_csv(curve)
    _note_report("curve", _report("curve_report", settings, pulses=pulses))
    tight = curve.range_tight_km
    worst = curve.range_worst_km
    _note(
        f"curve: {len(curve.points)} points, "
        f"range {tight if tight is not None else '<grid'} km (tight) / "
        f"{worst if worst is not None else '<grid'} km (worst-case), "
        f"{'re-optimized per point' if settings['optimize'] else 'fixed scheme'}"
    )
    if tight is None:
        _note("curve: zero key everywhere on the grid")
        return 2, text
    return 0, text


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------


def _cmd_calibrate(settings: _Settings) -> tuple[int, str]:
    # Session totals left unset fall back to the library's reference session.
    totals = {
        param: settings[key]
        for key, param in (("duration_h", "duration_h"), ("detections", "detections"),
                           ("sifted", "sifted_total"), ("targets", "key_targets"))
        if settings[key] is not None
    }

    result = calibrate_to_reference(**_evaluation(settings), **totals)

    for key, obj in (("out_model", result.model), ("out_tally", result.tally)):
        if settings[key] is not None:
            settings.outputs.append((key, settings[key], (dumps(obj) + "\n").encode()))
    text = dumps({**_report("calibration_report", settings), **result.to_json()}) + "\n"

    diag = result.diagnostics
    _note(
        f"calibrate: pulses {result.pulses} (duty {result.duty_cycle:.4f}), "
        f"background {result.model.background_rate_hz:.1f} Hz, "
        f"intrinsic error {result.model.intrinsic_error_rate:.5f}"
    )
    _note(
        f"calibrate: key totals {result.analysis.total_tight} (tight) / "
        f"{result.analysis.total_worst} (worst-case) vs targets "
        f"{diag.get('key_targets')}"
    )
    if not diag.get("converged", False):
        _note("calibrate: fit did not converge; inspect the diagnostics block")
        return 2, text
    return 0, text


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
        # range_curve sets each point's fiber length, so no --distance-km
        ("model", "duration_h", "pulses", "duty_cycle", "detector_efficiency", *_STATISTICS,
         "scheme", "distances", "optimize", "extinction_db", "stages", "f_ec", "f_ds",
         "sift_ratio", "zero_fraction"),
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


@functools.cache  # parsing leaves the parser as it was, so one serves every call
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
    parser.commands = sub.choices
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
        args, extras = parser.parse_known_args(argv)
        if extras:  # report them on the command whose flag list was meant
            parser.commands[args.command].error(f"unrecognized arguments: {' '.join(extras)}")
    except _UsageError as exc:
        _note(f"error: {exc}")
        return 1
    try:
        settings = _settings(args)
        status, text = args.handler(settings)
        _write_all(settings)
    except (ValidationError, ValueError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, InputError):  # raised after _settings, so settings exist
            path = (settings.inputs.get(exc.input_name) or {}).get("path")
            message = f"{settings.name(exc.input_name)}: {f'{path} ' if path else ''}{exc}"
        _note(f"decoyqkd {args.command}: error: {message}")
        return 1
    for key, path, _ in settings.outputs:
        _note(f"{args.command}: wrote {path} ({settings.name(key)})")
    sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
