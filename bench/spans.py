"""Span tracing of the decoyqkd layers from outside the package.

:class:`Tracer` replaces every module-level binding of the traced public
functions (and the ``from_json`` classmethods of :mod:`decoyqkd.core`)
with a wrapper.  A function imported into another module is a separate
name binding, so the tracer scans every package module for the original
function object and patches each site: wrapping
``keyrate.compose_session`` alone would miss calls made through
``opt.compose_session``.

While recording, each wrapped call appends a :class:`Span` (name, start,
end, parent, operation id).  Wrappers stay installed while recording is
off and then only forward the call, so the traced and untraced rounds of
a traced run execute the same code.  The same wrappers let a test plant
a defect: a transform registered for a name rewrites that function's
return value whether or not spans are recorded.

Per-layer metrics are computed from the spans of one round by
:func:`layer_metrics`.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass, field

# (module, attribute) of every traced function, by its defining module.
TRACED_FUNCTIONS = (
    ("stats", "binomial_interval"),
    ("_simplex", "solve_lp"),
    ("decoy", "solve_y1_lower"),
    ("decoy", "b1_tight"),
    ("decoy", "single_photon_bounds"),
    ("keyrate", "compose_session"),
    ("keyrate", "privacy_amplification_factor"),
    ("sim", "simulate_session"),
    ("sim", "expected_tally"),
    ("sim", "calibrate_to_reference"),
    ("opt", "optimize_scheme"),
    ("opt", "range_curve"),
    ("opt", "evaluate_scheme"),
    ("recon", "cascade_reconcile"),
    ("extract", "peres_extract"),
    ("extract", "privacy_amplify"),
    ("extract", "measure_f_ds"),
    ("cli", "main"),
)
TRACED_CLASSMETHODS = (
    ("core", "DecoyScheme", "from_json"),
    ("core", "SessionTally", "from_json"),
    ("core", "ChannelModel", "from_json"),
    ("core", "ConfidenceConfig", "from_json"),
)
MODULES = ("core", "stats", "_simplex", "decoy", "keyrate", "recon",
           "extract", "sim", "opt", "cli")


def _span_name(module: str, attr: str) -> str:
    # Metric and span names start with a letter, so ``_simplex`` drops
    # its underscore.
    return f"{module.lstrip('_')}.{attr}"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None at top level
    op_id: int
    info: object = None  # per-call detail some metrics need (see _NOTES)


def _note_binomial(args, kwargs, out):
    return tuple(args[:3])


def _note_solve_lp(args, kwargs, out):
    return out.status


def _note_simulate(args, kwargs, out):
    _tally, keys = out
    return sum(int(keys.alice[b].size) for b in keys.alice)


def _note_cascade(args, kwargs, out):
    from decoyqkd.stats import binary_entropy

    n = int(out.corrected_key.size)
    shannon = n * binary_entropy(out.corrections / n)
    return n, out.parity_bits_leaked, shannon, out.residual_error_detected


def _note_toeplitz(args, kwargs, out):
    key = args[0]
    return len(key) * int(out.size)


def _note_value(args, kwargs, out):
    return out


_NOTES = {
    "stats.binomial_interval": _note_binomial,
    "simplex.solve_lp": _note_solve_lp,
    "sim.simulate_session": _note_simulate,
    "recon.cascade_reconcile": _note_cascade,
    "extract.privacy_amplify": _note_toeplitz,
    "extract.measure_f_ds": _note_value,
}


@dataclass
class Tracer:
    """Installs wrappers on every import site of the traced functions.

    ``transforms`` maps a span name to a function applied to that call's
    return value; it is how a test plants a defect.
    """

    transforms: dict = field(default_factory=dict)
    recording: bool = False
    op_id: int = 0
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _undo: list[tuple] = field(default_factory=list)

    def install(self) -> "Tracer":
        modules = {
            m: importlib.import_module(f"decoyqkd.{m}") for m in MODULES
        }
        modules[""] = importlib.import_module("decoyqkd")
        wrappers = {}
        for mod, attr in TRACED_FUNCTIONS:
            original = getattr(modules[mod], attr)
            wrappers[id(original)] = (original, self._wrap(_span_name(mod, attr), original))
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, hit[1])
        for mod, cls_name, attr in TRACED_CLASSMETHODS:
            cls = getattr(modules[mod], cls_name)
            original = vars(cls)[attr]
            wrapped = self._wrap(_span_name(mod, "from_json"), original.__func__)
            self._undo.append((cls, attr, original))
            setattr(cls, attr, classmethod(wrapped))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                out = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else None
                span = Span(name, time.perf_counter(), 0.0, parent, self.op_id)
                self.spans.append(span)
                self._stack.append(index)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    self._stack.pop()
                if note is not None:
                    span.info = note(args, kwargs, out)
            transform = self.transforms.get(name)
            return out if transform is None else transform(out)

        return wrapper


LAYER_UNITS = {
    "stats.binomial_calls": "count", "stats.binomial_s": "s", "stats.repeat_frac": "ratio",
    "simplex.solves": "count", "simplex.solve_s": "s", "simplex.not_optimal": "count",
    "decoy.y1_s": "s", "decoy.b1_tight_calls": "count", "decoy.b1_tight_s": "s",
    "decoy.lp_per_bound": "count",
    "keyrate.compose_calls": "count", "keyrate.compose_s": "s", "keyrate.self_s": "s",
    "keyrate.pa_factor_calls": "count", "keyrate.pa_factor_s": "s",
    "sim.simulate_calls": "count", "sim.simulate_s": "s", "sim.bits_materialized": "bits",
    "sim.expected_tally_calls": "count", "sim.calibrate_s": "s",
    "opt.optimize_s": "s", "opt.curve_s": "s", "opt.evaluations": "count",
    "opt.eval_ms": "ms", "opt.self_s": "s",
    "recon.cascade_s": "s", "recon.bits": "bits", "recon.bits_per_s": "bits/s",
    "recon.parity_bits": "bits", "recon.f_ec": "ratio", "recon.residual": "count",
    "extract.peres_s": "s", "extract.toeplitz_s": "s", "extract.toeplitz_bitops": "count",
    "extract.toeplitz_gbitops_per_s": "Gbitop/s", "extract.f_ds": "ratio",
    "cli.main_s": "s", "cli.self_s": "s", "core.from_json_calls": "count",
    "core.from_json_s": "s",
    "trace.overhead": "ratio", "machine.tick_us": "us",
}


def _self_times(spans: list[Span], exclude_child=lambda s: False) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children run inside their parent on one thread and never overlap, so
    their summed durations are the time they cover.  A child for which
    ``exclude_child`` holds counts as its parent's own time.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None and not exclude_child(s):
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one round, from its spans (indices local to it)."""
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def secs(name):
        return sum(spans[i].end - spans[i].start for i in by_name.get(name, ()))

    def infos(name):
        return [spans[i].info for i in by_name.get(name, ())]

    self_all = _self_times(spans)
    self_cli = _self_times(spans, exclude_child=lambda s: s.name.startswith("core."))

    def self_of(prefix, table=self_all):
        return sum(t for s, t in zip(spans, table) if s.name.startswith(prefix))

    seen = set()
    repeats = 0
    for key in infos("stats.binomial_interval"):
        repeats += key in seen
        seen.add(key)
    n_binomial = calls("stats.binomial_interval")

    solves = calls("simplex.solve_lp")
    bounds = calls("decoy.solve_y1_lower") + calls("decoy.b1_tight")
    evaluations = calls("opt.evaluate_scheme")

    cascades = infos("recon.cascade_reconcile")
    rec_bits = sum(c[0] for c in cascades)
    rec_leak = sum(c[1] for c in cascades)
    rec_shannon = sum(c[2] for c in cascades)
    cascade_s = secs("recon.cascade_reconcile")

    bitops = sum(infos("extract.privacy_amplify"))
    toeplitz_s = secs("extract.privacy_amplify")
    f_ds = infos("extract.measure_f_ds")

    return {
        "stats.binomial_calls": n_binomial,
        "stats.binomial_s": secs("stats.binomial_interval"),
        "stats.repeat_frac": repeats / n_binomial if n_binomial else 0.0,
        "simplex.solves": solves,
        "simplex.solve_s": secs("simplex.solve_lp"),
        "simplex.not_optimal": sum(st != "optimal" for st in infos("simplex.solve_lp")),
        "decoy.y1_s": secs("decoy.solve_y1_lower"),
        "decoy.b1_tight_calls": calls("decoy.b1_tight"),
        "decoy.b1_tight_s": secs("decoy.b1_tight"),
        "decoy.lp_per_bound": solves / bounds if bounds else 0.0,
        "keyrate.compose_calls": calls("keyrate.compose_session"),
        "keyrate.compose_s": secs("keyrate.compose_session"),
        "keyrate.self_s": self_of("keyrate.compose_session"),
        "keyrate.pa_factor_calls": calls("keyrate.privacy_amplification_factor"),
        "keyrate.pa_factor_s": secs("keyrate.privacy_amplification_factor"),
        "sim.simulate_calls": calls("sim.simulate_session"),
        "sim.simulate_s": secs("sim.simulate_session"),
        "sim.bits_materialized": sum(infos("sim.simulate_session")),
        "sim.expected_tally_calls": calls("sim.expected_tally"),
        "sim.calibrate_s": secs("sim.calibrate_to_reference"),
        "opt.optimize_s": secs("opt.optimize_scheme"),
        "opt.curve_s": secs("opt.range_curve"),
        "opt.evaluations": evaluations,
        "opt.eval_ms": 1e3 * secs("opt.evaluate_scheme") / evaluations if evaluations else 0.0,
        "opt.self_s": self_of("opt."),
        "recon.cascade_s": cascade_s,
        "recon.bits": rec_bits,
        "recon.bits_per_s": rec_bits / cascade_s if cascade_s else 0.0,
        "recon.parity_bits": rec_leak,
        "recon.f_ec": rec_leak / rec_shannon if rec_shannon else 0.0,
        "recon.residual": sum(c[3] for c in cascades),
        "extract.peres_s": secs("extract.peres_extract"),
        "extract.toeplitz_s": toeplitz_s,
        "extract.toeplitz_bitops": bitops,
        "extract.toeplitz_gbitops_per_s": bitops / toeplitz_s / 1e9 if toeplitz_s else 0.0,
        "extract.f_ds": statistics.fmean(f_ds) if f_ds else 0.0,
        "cli.main_s": secs("cli.main"),
        "cli.self_s": self_of("cli.main", self_cli),
        "core.from_json_calls": calls("core.from_json"),
        "core.from_json_s": secs("core.from_json"),
    }
