"""Value types shared across the key-distillation pipeline.

Everything in here is an immutable record that checks its own fields: a
``DecoyScheme`` describing the intensity levels Alice transmits, a
``SessionTally`` of per-level / per-basis counts accumulated during an
acquisition run, a ``ChannelModel`` with the optical-link parameters, and a
``ConfidenceConfig`` holding the statistical knobs (per-bound failure
probability and photon-number cutoff).  Beside it sit the defaults of the
other analysis knobs (``DEFAULT_*``), which the library signatures and the
command line both read.

All types serialize to plain-dict JSON documents tagged with
``format_version`` so that tallies and schemes can be exchanged between the
simulator, the analyzer and external tooling.  Only the constructors check
fields, by :func:`check_integer`, :func:`check_real` and :func:`check_json_type`
(storing counts and flags as ``int`` and ``bool``); a reader checks only the
document's shape and says where in it an error sits.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields

__all__ = [
    "BASES",
    "FORMAT_VERSION",
    "ValidationError",
    "InputError",
    "DecoyScheme",
    "SessionTally",
    "LevelCounts",
    "ChannelModel",
    "ConfidenceConfig",
    "DEFAULT_F_EC",
    "DEFAULT_F_DS",
    "DEFAULT_PA_EPSILON",
    "DEFAULT_EXTINCTION_DB",
    "DEFAULT_STAGES",
    "DEFAULT_POINTS_PER_STAGE",
    "DEFAULT_DESKEW_DEPTH",
    "DEFAULT_ZERO_BIAS",
    "VARIANTS",
    "DEFAULT_VARIANT",
    "check_integer",
    "check_json_type",
    "check_real",
    "dumps",
    "validate_tally",
]

FORMAT_VERSION = "1"

#: Measurement bases, in canonical order.
BASES = ("X", "Z")

_PROB_SUM_TOL = 1e-12


class ValidationError(ValueError):
    """Raised when a value object or JSON document violates its contract."""


class InputError(ValidationError):
    """A ``ValidationError`` blamed on the call's input named ``input_name``
    (such as ``keys``, ``tally`` or ``extinction_db``)."""

    def __init__(self, input_name: str, message: str) -> None:
        super().__init__(message)
        self.input_name = input_name


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, or the machine's count
    where the platform has no affinity.  ``recon`` starts its helper
    thread by it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


_JSON_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}
#: The types a JSON number may have, the builtin first: an ABC test takes ten times longer.
_NUMBER_TYPES = {int: (int, numbers.Integral), float: (float, int, numbers.Real)}


def check_json_type(value, kind: type, what: str):
    """Return a JSON ``value`` as ``kind`` (bool, int, float or str).

    Bools are never numbers, any integer (numpy's too) is a valid float (returned
    as one), and a float must be finite (JSON readers accept ``NaN`` and
    ``Infinity``).  Anything else raises ``ValidationError`` naming ``what``.
    """
    allowed = _NUMBER_TYPES.get(kind, kind)
    if not isinstance(value, allowed) or (isinstance(value, bool) and kind is not bool):
        raise ValidationError(f"{what}: expected {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    if kind is not float:
        return value
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValidationError(f"{what}: expected a finite number, got {value!r}")
    return value


def check_integer(value, name: str, minimum: int = 0) -> int:
    """Return ``value`` as an ``int`` if :func:`check_json_type` takes it as an
    integer and it is >= ``minimum``; otherwise raise ``InputError(name, ...)``."""
    try:
        value = int(check_json_type(value, int, name))
    except ValidationError as exc:
        raise InputError(name, str(exc)) from None
    if value < minimum:
        raise InputError(name, f"{name} must be >= {minimum}, got {value}")
    return value


@functools.cache
def _interval(text: str) -> tuple[bool, float, float, bool]:
    """Parse an interval such as ``"(0, 1]"`` into (left open, low, high, right open)."""
    low, high = (float(end) for end in text[1:-1].split(","))
    return text[0] == "(", low, high, text[-1] == ")"


def check_real(value, name: str, interval: str = "(-inf, inf)") -> float:
    """Return ``value`` as a ``float`` if :func:`check_json_type` takes it as a
    number and it lies in ``interval``, written as in ``"(0, 0.5)"`` or
    ``"[1, inf]"``; otherwise raise ``InputError(name, ...)``.  An infinity
    passes only where the interval closes on it."""
    try:
        number = check_json_type(value, float, name)
    except ValidationError as exc:
        if not isinstance(value, float):  # NaN and the infinities are the interval's to judge
            raise InputError(name, str(exc)) from None
        number = float(value)
    left_open, low, high, right_open = _interval(interval)
    if not ((low < number if left_open else low <= number)
            and (number < high if right_open else number <= high)):
        raise InputError(name, f"{name} must lie in {interval}, got {number}")
    return number


def _object(value, what: str, keys, required=None) -> None:
    """Check that ``value`` is a JSON object whose keys are among ``keys`` and
    include every key of ``required`` (by default, all of ``keys``)."""
    if not isinstance(value, dict):
        raise ValidationError(f"{what}: expected a JSON object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValidationError(f"{what}: unknown fields {unknown}")
    for key in keys if required is None else required:
        if key not in value:
            raise ValidationError(f"{what}: missing field {key!r}")


def _document(doc, kind: str, keys, required) -> None:
    """Check the header of a ``kind`` document and its keys (see ``_object``)."""
    _object(doc, kind, (*keys, "format_version", "kind"), required)
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"{kind}: unsupported format_version {version!r} (expected {FORMAT_VERSION!r})"
        )
    if doc.get("kind", kind) != kind:
        raise ValidationError(f"{kind}: kind is {doc['kind']!r}, expected {kind!r}")


@contextmanager
def _at(what: str):
    """Prefix the message of a ``ValidationError`` raised inside with the
    document path ``what``, keeping its type (and an ``InputError``'s name);
    an ``InputError`` names its field first, so ``levels[0]`` joins it by ``.``."""
    try:
        yield
    except ValidationError as exc:
        sep = "." if isinstance(exc, InputError) and what.endswith("]") else ": "
        exc.args = (f"{what}{sep}{exc}",)
        raise


def _read_fields(cls, doc, kind: str):
    """Build the flat record ``cls``, which checks the values, from a ``kind`` document."""
    specs = fields(cls)
    _document(
        doc, kind, [f.name for f in specs], [f.name for f in specs if f.default is MISSING]
    )
    with _at(kind):
        return cls(**{f.name: doc[f.name] for f in specs if f.name in doc})


def _levels(doc: dict, kind: str) -> list:
    levels = doc["levels"]
    if not isinstance(levels, list) or not levels:
        raise ValidationError(f"{kind}: 'levels' must be a non-empty list")
    return levels


# ---------------------------------------------------------------------------
# DecoyScheme
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecoyScheme:
    """Intensity levels and the probability of transmitting each.

    Levels are stored in strictly increasing order of mean photon number;
    the highest level is the signal level used for key generation, the
    lower ones are decoys used only to constrain the channel.

    Parameters
    ----------
    mus : tuple of float
        Mean photon numbers, strictly increasing, all >= 0.
    send_probs : tuple of float
        Probability of choosing each level for a given pulse.  Must sum
        to 1 within 1e-12.
    """

    mus: tuple[float, ...]
    send_probs: tuple[float, ...]

    def __post_init__(self) -> None:
        mus = tuple(check_real(m, "mus", "[0, inf)") for m in self.mus)
        probs = tuple(check_real(p, "send_probs", "(0, 1]") for p in self.send_probs)
        object.__setattr__(self, "mus", mus)
        object.__setattr__(self, "send_probs", probs)
        if len(mus) < 2:
            raise ValidationError("a decoy scheme needs at least two intensity levels")
        if len(mus) != len(probs):
            raise ValidationError("mus and send_probs must have equal length")
        for lo, hi in zip(mus, mus[1:]):
            if not lo < hi:
                raise ValidationError("mean photon numbers must be strictly increasing")
        if not abs(sum(probs) - 1.0) <= _PROB_SUM_TOL:
            raise ValidationError(
                f"send probabilities sum to {sum(probs)!r}, expected 1 within {_PROB_SUM_TOL}"
            )

    @property
    def n_levels(self) -> int:
        return len(self.mus)

    @property
    def signal_index(self) -> int:
        """Index of the signal (highest-intensity) level."""
        return len(self.mus) - 1

    @property
    def signal_mu(self) -> float:
        return self.mus[-1]

    def to_json(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "kind": "decoy_scheme",
            "levels": [
                {"mu": mu, "send_prob": p} for mu, p in zip(self.mus, self.send_probs)
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "DecoyScheme":
        kind = "decoy_scheme"
        _document(doc, kind, ("levels",), required=("levels",))
        mus, probs = [], []
        for j, raw in enumerate(_levels(doc, kind)):
            what = f"{kind}: levels[{j}]"
            _object(raw, what, ("mu", "send_prob"))
            mus.append(check_json_type(raw["mu"], float, f"{what}.mu"))
            probs.append(check_json_type(raw["send_prob"], float, f"{what}.send_prob"))
        with _at(kind):
            return cls(mus=tuple(mus), send_probs=tuple(probs))


# ---------------------------------------------------------------------------
# SessionTally
# ---------------------------------------------------------------------------


def _basis_counts(value, what: str) -> tuple[dict, bool]:
    """A per-basis count object, whose counts the record checks, or a bare
    total, checked and split 50/50; and whether it was a bare total."""
    if isinstance(value, dict):
        _object(value, what, BASES)
        return value, False
    total = check_integer(value, what)
    return {"X": total - total // 2, "Z": total // 2}, True


def _check_counts(record, name: str) -> None:
    """Store field ``name`` of ``record``, a mapping whose keys are exactly
    ``BASES``, as a dict of counts each read by :func:`check_integer` as
    ``<name>.<basis>``; a dict of plain ints >= 0 stays as it is."""
    group = getattr(record, name)
    if not isinstance(group, (dict, Mapping)) or group.keys() != set(BASES):
        raise ValidationError(f"{name}: expected counts by basis {list(BASES)}, got {group!r}")
    x, z = group["X"], group["Z"]
    if not (type(group) is dict and type(x) is type(z) is int and x >= 0 and z >= 0):
        counts = {b: check_integer(group[b], f"{name}.{b}") for b in BASES}
        object.__setattr__(record, name, counts)


@dataclass(frozen=True)
class LevelCounts:
    """Counts observed for one intensity level, keyed by Bob's basis."""

    sent: int
    detected: dict[str, int]
    sifted: dict[str, int]
    errors: dict[str, int]

    def __post_init__(self) -> None:
        if type(self.sent) is not int or self.sent < 0:  # a plain int >= 0 is its own value
            object.__setattr__(self, "sent", check_integer(self.sent, "sent"))
        for name in ("detected", "sifted", "errors"):
            _check_counts(self, name)
        for b in BASES:
            if not self.errors[b] <= self.sifted[b] <= self.detected[b]:
                raise ValidationError(
                    f"count chain violated in basis {b}: need "
                    f"errors ({self.errors[b]}) <= sifted ({self.sifted[b]}) "
                    f"<= detected ({self.detected[b]})"
                )
        if self.detected["X"] + self.detected["Z"] > self.sent:
            raise ValidationError("total detections exceed pulses sent at this level")

    def detected_total(self) -> int:
        return sum(self.detected[b] for b in BASES)

    def sifted_total(self) -> int:
        return sum(self.sifted[b] for b in BASES)


@dataclass(frozen=True)
class SessionTally:
    """Per-level, per-basis counts for one acquisition session.

    ``levels[j]`` must line up with level j of the scheme the session was
    run with (checked by :func:`validate_tally`).  ``zeros`` counts zero
    bits among all sifted bits of each basis, used to estimate the bit
    bias fed to the deskewing step.
    """

    levels: tuple[LevelCounts, ...]
    zeros: dict[str, int]
    reconstructed: bool = False

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValidationError("tally must contain at least one level")
        object.__setattr__(self, "levels", tuple(self.levels))
        _check_counts(self, "zeros")
        for b in BASES:
            if not self.zeros[b] <= self.sifted_total(b):
                raise ValidationError(
                    f"zeros in basis {b} must lie in [0, total sifted bits]"
                )
        check_json_type(self.reconstructed, bool, "reconstructed")  # a bool is its own value

    def sifted_total(self, basis: str) -> int:
        return sum(lv.sifted[basis] for lv in self.levels)

    def sifted_all(self) -> int:
        return sum(self.sifted_total(b) for b in BASES)

    def zero_fraction(self, basis: str) -> float:
        """Fraction of zero bits among sifted bits in ``basis`` (0.5 if empty)."""
        n = self.sifted_total(basis)
        return self.zeros[basis] / n if n else 0.5

    def to_json(self) -> dict:
        doc = asdict(self)
        return {
            "format_version": FORMAT_VERSION,
            "kind": "session_tally",
            **doc,
            "levels": list(doc["levels"]),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "SessionTally":
        kind = "session_tally"
        _document(doc, kind, ("levels", "zeros", "reconstructed"), required=("levels",))
        levels, split = [], False
        for j, raw in enumerate(_levels(doc, kind)):
            what = f"{kind}: levels[{j}]"
            _object(raw, what, ("sent", "detected", "sifted", "errors"))
            counts = {}
            for name in ("detected", "sifted", "errors"):
                counts[name], was_split = _basis_counts(raw[name], f"{what}.{name}")
                split = split or was_split
            with _at(what):
                levels.append(LevelCounts(sent=raw["sent"], **counts))
        if "zeros" in doc:
            zeros, was_split = _basis_counts(doc["zeros"], f"{kind}: zeros")
            split = split or was_split
        else:
            # No bit-bias information: assume an unbiased source.
            zeros = {b: sum(lv.sifted[b] for lv in levels) // 2 for b in BASES}
            split = True
        # A split tally is reconstructed; a mistyped flag is left for the record.
        flag = doc.get("reconstructed", False)
        with _at(kind):
            return cls(levels=tuple(levels), zeros=zeros,
                       reconstructed=True if split and flag is False else flag)


# ---------------------------------------------------------------------------
# ChannelModel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelModel:
    """Optical-link and detector parameters for simulation and prediction.

    Attributes
    ----------
    fiber_length_km : float
        One-way fiber length.
    attenuation_db_per_km : float
        Fiber loss coefficient.
    detector_efficiency : float
        End-to-end detection efficiency excluding fiber loss, in (0, 1].
    dark_count_rate_hz : float
        Summed dark-count rate of the detectors.
    timing_window_s : float
        Acceptance gate width applied to each clock period.
    clock_rate_hz : float
        Pulse (clock) rate of the transmitter.
    intrinsic_error_rate : float
        Probability that a genuinely detected photon lands in the wrong
        detector (interferometer visibility floor), in [0, 0.5].
    background_rate_hz : float
        Stray-light/afterpulse background count rate (adds to dark counts
        in every timing window), >= 0.  Default 0.
    """

    fiber_length_km: float = field(metadata={"interval": "[0, inf)"})
    attenuation_db_per_km: float = field(metadata={"interval": "[0, inf)"})
    detector_efficiency: float = field(metadata={"interval": "(0, 1]"})
    dark_count_rate_hz: float = field(metadata={"interval": "[0, inf)"})
    timing_window_s: float = field(metadata={"interval": "(0, inf)"})
    clock_rate_hz: float = field(metadata={"interval": "(0, inf)"})
    intrinsic_error_rate: float = field(metadata={"interval": "[0, 0.5]"})
    background_rate_hz: float = field(default=0.0, metadata={"interval": "[0, inf)"})

    def __post_init__(self) -> None:
        for f in fields(self):
            value = check_real(getattr(self, f.name), f.name, f.metadata["interval"])
            object.__setattr__(self, f.name, value)
        if not self.timing_window_s * self.clock_rate_hz <= 1.0 + 1e-9:
            raise ValidationError("timing window cannot exceed the clock period")

    def to_json(self) -> dict:
        return {"format_version": FORMAT_VERSION, "kind": "channel_model", **asdict(self)}

    @classmethod
    def from_json(cls, doc: dict) -> "ChannelModel":
        return _read_fields(cls, doc, "channel_model")


# ---------------------------------------------------------------------------
# ConfidenceConfig
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfidenceConfig:
    """Statistical settings for the finite-size analysis.

    ``epsilon`` is the failure probability allotted to each individual
    one-sided bound (not a total budget); ``photon_cutoff`` is the largest
    photon number given an explicit yield variable in the constraint
    systems, higher terms being absorbed into a rigorous tail allowance.

    ``pin_vacuum_errors`` adds the physical identity e_0 = y_0 / 2 to the
    error-rate system: a click on a pulse whose zero-photon component
    survived carries no correlation with the sender's bit (there was no
    photon to encode it), so exactly half of such clicks are errors no
    matter what the channel does.  Disabling it weakens the tight
    single-photon error bound but drops the one physical assumption.
    """

    epsilon: float = 1e-7
    photon_cutoff: int = 10
    pin_vacuum_errors: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", check_real(self.epsilon, "epsilon", "(0, 0.5)"))
        cutoff = check_integer(self.photon_cutoff, "photon_cutoff", 1)
        object.__setattr__(self, "photon_cutoff", cutoff)
        check_json_type(self.pin_vacuum_errors, bool, "pin_vacuum_errors")

    def to_json(self) -> dict:
        return {"format_version": FORMAT_VERSION, "kind": "confidence_config", **asdict(self)}

    @classmethod
    def from_json(cls, doc: dict) -> "ConfidenceConfig":
        """Read a config; absent fields keep the dataclass defaults."""
        return _read_fields(cls, doc, "confidence_config")


#: Reconciliation inefficiency f_EC assumed before a session is reconciled.
DEFAULT_F_EC = 1.07
#: Deskewing inefficiency f_DS assumed before a session is deskewed.
DEFAULT_F_DS = 1.05
#: Typical-set coverage confidence of privacy amplification.
DEFAULT_PA_EPSILON = 1e-3
#: Extinction of the vacuum-like level below the signal, in dB.
DEFAULT_EXTINCTION_DB = 23.5
#: Refinement stages of the scheme search.
DEFAULT_STAGES = 3
#: Grid points per coordinate scan of the scheme search.
DEFAULT_POINTS_PER_STAGE = 7
#: Recursion depth of the Peres deskewing extractor.
DEFAULT_DESKEW_DEPTH = 12
#: Probability that a prepared key bit is 0 in a simulated session.
DEFAULT_ZERO_BIAS = 0.5
#: The b1 bounds, tight or worst-case, whose budget may size a distilled key.
VARIANTS = ("tight", "worst")
#: The one that does unless another is chosen.
DEFAULT_VARIANT = "worst"


# ---------------------------------------------------------------------------
# Cross-validation
# ---------------------------------------------------------------------------


def validate_tally(tally: SessionTally, scheme: DecoyScheme) -> None:
    """Check that a tally is structurally consistent with a scheme.

    Raises
    ------
    InputError
        Naming ``tally``, if the tally's levels don't line up with the
        scheme's or some level sent no pulse, which leaves its yield
        unbounded.  (Per-level count chains, detections included, are
        already enforced by the types themselves; this adds the
        scheme-dependent checks.)
    """
    if len(tally.levels) != scheme.n_levels:
        raise InputError(
            "tally", f"tally has {len(tally.levels)} levels but scheme has {scheme.n_levels}"
        )
    for j, lv in enumerate(tally.levels):
        if lv.sent <= 0:
            raise InputError("tally", f"level {j} has no sent pulses; cannot bound its yield")


def dumps(obj) -> str:
    """Serialize any pipeline value object (or plain dict) to a JSON string."""
    doc = obj.to_json() if hasattr(obj, "to_json") else obj
    return json.dumps(doc, indent=2, sort_keys=True)
