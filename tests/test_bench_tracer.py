"""The benchmark's span tracer still fits the package.

``bench/spans.py`` patches the package's functions by module and name, so
a renamed or removed function would otherwise surface only when the
benchmark runs.  The tracer is loaded from its file, unchanged.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from decoyqkd.core import ConfidenceConfig

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def _bindings(spans):
    functions = {
        (mod, attr): getattr(importlib.import_module(f"decoyqkd.{mod}"), attr)
        for mod, attr in spans.TRACED_FUNCTIONS
    }
    classmethods = {
        (mod, cls, attr): vars(getattr(importlib.import_module(f"decoyqkd.{mod}"), cls))[attr]
        for mod, cls, attr in spans.TRACED_CLASSMETHODS
    }
    return functions, classmethods


def test_tracer_installs_records_and_uninstalls(spans):
    functions, classmethods = _bindings(spans)
    tracer = spans.Tracer()
    with tracer:
        for (mod, attr), original in functions.items():
            module = importlib.import_module(f"decoyqkd.{mod}")
            assert getattr(module, attr) is not original, f"{mod}.{attr} not wrapped"

        # One certify-mc operation, called the way bench/workloads.py calls it.
        from decoyqkd import keyrate, sim

        tracer.recording = True
        scheme = sim.reference_scheme()
        tally, _keys = sim.simulate_session(sim.reference_model(25.0), scheme, 20_000_000, 11)
        analysis = keyrate.compose_session(
            tally, scheme, ConfidenceConfig(epsilon=1e-7, photon_cutoff=10),
            f_ec=1.07, f_ds=1.05, pa_epsilon=1e-3,
        )
        tracer.recording = False
    assert analysis.feasible

    names = {span.name for span in tracer.spans}
    assert {
        "sim.simulate_session",
        "keyrate.compose_session",
        "keyrate.privacy_amplification_factor",
        "decoy.single_photon_bounds",
        "decoy.solve_y1_lower",
        "decoy.b1_tight",
        "simplex.solve_lp",
        "stats.binomial_interval",
    } <= names
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["keyrate.compose_calls"] == 1
    # One detection interval per level, then one error fraction per level
    # and basis with sifted bits (the vacuum level sifted none in Z): 3 + 5.
    # Each basis's error system reuses the detection intervals.
    assert metrics["stats.binomial_calls"] == 8
    assert metrics["simplex.solves"] == 3
    assert metrics["simplex.not_optimal"] == 0
    assert metrics["decoy.lp_per_bound"] == 1
    assert metrics["sim.bits_materialized"] == sum(
        tally.levels[scheme.signal_index].sifted.values()
    )

    assert _bindings(spans) == (functions, classmethods)


def test_expected_tally_solves_one_b1_lp(spans):
    # An expected tally gives both bases the same counts, so the Z bound
    # reuses X's error system and LP: the y1 floor plus one b1 LP, and one
    # error fraction per level beside the three detection intervals.
    from decoyqkd import keyrate, sim

    scheme = sim.reference_scheme()
    tally = sim.expected_tally(sim.reference_model(25.0), scheme, 20_000_000,
                               sift_ratio=0.5, zero_fraction=0.5)
    with spans.Tracer() as tracer:
        tracer.recording = True
        analysis = keyrate.compose_session(
            tally, scheme, ConfidenceConfig(epsilon=1e-7, photon_cutoff=10),
            f_ec=1.07, f_ds=1.05, pa_epsilon=1e-3,
        )
        tracer.recording = False
    assert analysis.feasible and analysis.bounds.y1_lower > 0.0

    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["simplex.solves"] == 2
    assert metrics["simplex.not_optimal"] == 0
    assert metrics["decoy.b1_tight_calls"] == 1
    assert metrics["decoy.lp_per_bound"] == 1
    assert metrics["stats.binomial_calls"] == 6


def test_calibration_composes_only_through_evaluate_scheme(spans):
    # Every key total the calibration scores comes from the one scheme
    # evaluation of the design tools; the reported tally is built once more.
    from decoyqkd import sim

    with spans.Tracer() as tracer:
        tracer.recording = True
        result = sim.calibrate_to_reference()
        tracer.recording = False
    assert result.diagnostics["converged"]

    composed = [s for s in tracer.spans if s.name == "keyrate.compose_session"]
    assert composed
    assert all(tracer.spans[s.parent].name == "opt.evaluate_scheme" for s in composed)
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["opt.evaluations"] == metrics["keyrate.compose_calls"] == len(composed)
    assert metrics["sim.expected_tally_calls"] == metrics["opt.evaluations"] + 1
