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
