"""Every integer argument of the library follows one rule, ``core.check_integer``.

A bool, a float or a string is refused, as is a value below the argument's
minimum, with an ``InputError`` naming the argument before any work starts;
a numpy integer gives the result a Python integer gives.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from decoyqkd import extract, keyrate, opt, recon, sim
from decoyqkd.core import ConfidenceConfig, InputError, check_integer
from decoyqkd.extract import peres_extract, privacy_amplify
from decoyqkd.keyrate import secret_length
from decoyqkd.opt import optimize_scheme, range_curve
from decoyqkd.recon import cascade_reconcile, distill_session
from decoyqkd.sim import (
    REFERENCE_DETECTIONS,
    REFERENCE_KEY_TARGETS,
    REFERENCE_SIFTED_TOTAL,
    calibrate_to_reference,
    expected_tally,
    reference_model,
    reference_scheme,
    simulate_session,
)

PULSES = 23_836_243_437  # 5.6 h at the reference clock and duty cycle
BITS = (np.arange(512) % 3 == 0).astype(np.uint8)
NOISY = BITS ^ np.isin(np.arange(512), [5, 77, 300]).astype(np.uint8)


@pytest.fixture(scope="module")
def session():
    scheme = reference_scheme()
    tally, keys = simulate_session(reference_model(25.0), scheme, 20_000_000, 11)
    return tally, scheme, keys


def _distill(session, **settings):
    tally, scheme, keys = session
    return distill_session(tally, scheme, keys.alice, keys.bob, **{"seed": 5, **settings})


def _tally(pulses):
    return expected_tally(reference_model(), reference_scheme(), pulses,
                          sift_ratio=0.5, zero_fraction=0.5)


# (argument name, its minimum, a valid value, call(value, session), the work it
# must not reach as (module, attribute) or None)
ENTRIES = {
    "expected_tally-pulses": ("pulses", 0, PULSES, lambda v, s: _tally(v),
                              (sim, "expected_statistics")),
    "simulate_session-pulses": (
        "pulses", 0, 1_000_000,
        lambda v, s: simulate_session(reference_model(25.0), reference_scheme(), v, 3),
        (sim, "expected_statistics")),
    "simulate_session-seed": (
        "seed", 0, 3,
        lambda v, s: simulate_session(reference_model(25.0), reference_scheme(), 1_000_000, v),
        (sim, "expected_statistics")),
    "calibrate_to_reference-detections": (
        "detections", 1, REFERENCE_DETECTIONS[0],
        lambda v, s: calibrate_to_reference(detections=(v, *REFERENCE_DETECTIONS[1:])),
        (sim, "expected_statistics")),
    "calibrate_to_reference-sifted_total": (
        "sifted", 1, REFERENCE_SIFTED_TOTAL,
        lambda v, s: calibrate_to_reference(sifted_total=v), (sim, "expected_statistics")),
    "calibrate_to_reference-key_targets": (
        "targets", 1, REFERENCE_KEY_TARGETS[1],
        lambda v, s: calibrate_to_reference(key_targets=(REFERENCE_KEY_TARGETS[0], v)),
        (sim, "expected_statistics")),
    "distill_session-depth": ("depth", 1, 12, lambda v, s: _distill(s, depth=v),
                              (recon, "cascade_reconcile")),
    "distill_session-seed": ("seed", 0, 5, lambda v, s: _distill(s, seed=v),
                             (recon, "cascade_reconcile")),
    "peres_extract-depth": ("depth", 1, 3, lambda v, s: peres_extract(BITS, depth=v),
                            (extract, "_peres_breadth_first")),
    "privacy_amplify-seed": ("seed", 0, 7, lambda v, s: privacy_amplify(BITS, 40, seed=v),
                             (extract, "_fft_length")),
    "optimize_scheme-pulses": (
        "pulses", 0, PULSES,
        lambda v, s: optimize_scheme(reference_model(140.0), v, stages=1, points_per_stage=3),
        (opt, "evaluate_scheme")),
    "optimize_scheme-stages": (
        "stages", 1, 1,
        lambda v, s: optimize_scheme(reference_model(140.0), PULSES, stages=v,
                                     points_per_stage=3),
        (opt, "evaluate_scheme")),
    "optimize_scheme-points_per_stage": (
        "points_per_stage", 3, 3,
        lambda v, s: optimize_scheme(reference_model(140.0), PULSES, stages=1,
                                     points_per_stage=v),
        (opt, "evaluate_scheme")),
    "range_curve-stages": (
        "stages", 1, 1,
        lambda v, s: range_curve(reference_model(), PULSES, [140.0], optimize=True, stages=v),
        (opt, "optimize_scheme")),
    "range_curve-pulses": (
        "pulses", 0, PULSES,
        lambda v, s: range_curve(reference_model(), v, [140.0], optimize=True, stages=1),
        (opt, "optimize_scheme")),
    "cascade_reconcile-rng_seed": ("rng_seed", 0, 9,
                                   lambda v, s: cascade_reconcile(BITS, NOISY, 0.03, v),
                                   (recon, "_as_bits")),
    "secret_length-n_sifted": (
        "n_sifted", 0, 100_000,
        lambda v, s: secret_length(v, 1.0, 0.5, 0.01, 0.01, 0.5, 1.0, 1.0, 1.0),
        (keyrate, "binary_entropy")),
    "ConfidenceConfig-photon_cutoff": ("photon_cutoff", 1, 10,
                                       lambda v, s: ConfidenceConfig(photon_cutoff=v), None),
}


BAD = {"True": True, "np.bool_": np.bool_(True), "2.5": 2.5, "'3'": "3"}


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("kind", [*BAD, "below"])
def test_bad_value_named_before_any_work(entry, kind, session, monkeypatch):
    name, minimum, _, call, work = ENTRIES[entry]
    value = BAD.get(kind, minimum - 1)
    if work is not None:
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work[1]} ran")

        monkeypatch.setattr(*work, no_work)
    with pytest.raises(InputError) as info:
        call(value, session)
    assert info.value.input_name == name
    if kind == "below":
        assert str(info.value) == f"{name} must be >= {minimum}, got {minimum - 1}"


@pytest.mark.parametrize("entry", ENTRIES)
def test_numpy_integer_gives_the_python_integer_result(entry, session):
    _, _, good, call, _ = ENTRIES[entry]
    assert pickle.dumps(call(np.int64(good), session)) == pickle.dumps(call(good, session))


def test_check_integer_returns_a_python_int():
    value = check_integer(np.uint8(7), "seed")
    assert (type(value), value) == (int, 7)
    assert check_integer(2**70, "pulses") == 2**70
    with pytest.raises(InputError, match=r"^depth: expected an integer, got 1\.0$"):
        check_integer(1.0, "depth", 1)
