"""Every real-valued argument of the library follows one rule, ``core.check_real``.

A bool, a string, NaN, or a number outside the argument's interval (an
infinity included, unless the interval closes on it) is refused with an
``InputError`` naming the argument before any work starts; a numpy float
gives the result a Python float gives.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from decoyqkd import extract, keyrate, opt, recon, sim
from decoyqkd.core import ConfidenceConfig, DecoyScheme, InputError, check_real
from decoyqkd.extract import measure_f_ds, peres_extract
from decoyqkd.keyrate import compose_session, privacy_amplification_factor, secret_length
from decoyqkd.opt import optimize_scheme, range_curve
from decoyqkd.recon import cascade_reconcile, distill_session
from decoyqkd.sim import (
    calibrate_to_reference,
    expected_tally,
    reference_model,
    reference_scheme,
    simulate_session,
)

PULSES = 23_836_243_437  # 5.6 h at the reference clock and duty cycle
BITS = (np.arange(512) % 3 == 0).astype(np.uint8)
NOISY = BITS ^ (np.arange(512) % 37 == 0).astype(np.uint8)
DESKEWED = peres_extract(BITS)
SECRET = {"n_sifted": 10_000, "y1_eff": 0.9, "mu": 0.48, "b1_upper": 0.04,
          "bit_error_rate": 0.018, "zero_fraction": 0.494, "f_ec": 1.07, "f_pa": 1.09,
          "f_ds": 1.05}


@pytest.fixture(scope="module")
def session():
    scheme = reference_scheme()
    tally, keys = simulate_session(reference_model(25.0), scheme, 20_000_000, 11)
    return tally, scheme, keys


def _model(**field):
    return replace(reference_model(), **field)


def _scheme(position, value, field):
    scheme = reference_scheme()
    levels = list(getattr(scheme, field))
    levels[position] = value
    other = "send_probs" if field == "mus" else "mus"
    return DecoyScheme(**{field: tuple(levels), other: getattr(scheme, other)})


def _compose(session, **settings):
    tally, scheme, _ = session
    return compose_session(tally, scheme, **settings)


def _distill(session, **settings):
    tally, scheme, keys = session
    return distill_session(tally, scheme, keys.alice, keys.bob, seed=5, **settings)


def _tally(**fractions):
    return expected_tally(reference_model(), reference_scheme(), PULSES,
                          **{"sift_ratio": 0.5, "zero_fraction": 0.5, **fractions})


def _optimize(extinction_db):
    return optimize_scheme(reference_model(140.0), PULSES, extinction_db=extinction_db,
                           stages=1, points_per_stage=3)


# (argument name, its interval, a valid value, a finite value outside the
# interval or None, call(value, session), the work it must not reach as
# (module, attribute) or None)
ENTRIES = {
    **{f"ChannelModel-{name}": (name, interval, good, outside,
                                lambda v, s, name=name: _model(**{name: v}), None)
       for name, interval, good, outside in [
           ("fiber_length_km", "[0, inf)", 25.0, -1.0),
           ("attenuation_db_per_km", "[0, inf)", 0.2, -1.0),
           ("detector_efficiency", "(0, 1]", 0.1, 0.0),
           ("dark_count_rate_hz", "[0, inf)", 100.0, -1.0),
           ("timing_window_s", "(0, inf)", 1e-9, 0.0),
           ("clock_rate_hz", "(0, inf)", 1e6, 0.0),
           ("intrinsic_error_rate", "[0, 0.5]", 0.01, 0.6),
           ("background_rate_hz", "[0, inf)", 10.0, -1.0)]},
    "DecoyScheme-mus": ("mus", "[0, inf)", 0.0, -1.0,
                        lambda v, s: _scheme(0, v, "mus"), None),
    "DecoyScheme-send_probs": (
        "send_probs", "(0, 1]", reference_scheme().send_probs[0], 0.0,
        lambda v, s: _scheme(0, v, "send_probs"), None),
    "ConfidenceConfig-epsilon": ("epsilon", "(0, 0.5)", 1e-7, 0.0,
                                 lambda v, s: ConfidenceConfig(epsilon=v), None),
    "privacy_amplification_factor-epsilon": (
        "epsilon", "(0, 0.5)", 1e-3, 0.5,
        lambda v, s: privacy_amplification_factor(1e5, 0.03, v), (keyrate, "binary_entropy")),
    "privacy_amplification_factor-n1": (
        "n1", "[1, inf)", 1e5, 0.5,
        lambda v, s: privacy_amplification_factor(v, 0.03, 1e-3), (keyrate, "binary_entropy")),
    **{f"secret_length-{name}": (name, interval, SECRET[name], outside,
                                 lambda v, s, name=name: secret_length(**{**SECRET, name: v}),
                                 (keyrate, "binary_entropy"))
       for name, interval, outside in [
           ("y1_eff", "[0, inf)", -1.0), ("mu", "[0, inf)", -1.0),
           ("zero_fraction", "[0, 1]", 1.5), ("b1_upper", "[-inf, inf]", None),
           ("bit_error_rate", "[-inf, inf]", None), ("f_ec", "[1, inf]", 0.99),
           ("f_pa", "[1, inf]", 0.99), ("f_ds", "[1, inf]", 0.99)]},
    **{f"compose_session-{name}": (name, interval, good, outside,
                                   lambda v, s, name=name: _compose(s, **{name: v}),
                                   (keyrate, "single_photon_bounds"))
       for name, interval, good, outside in [
           ("pa_epsilon", "(0, 0.5)", 1e-3, 0.7), ("f_ec", "[1, inf]", 1.07, 0.5),
           ("f_ds", "[1, inf]", 1.05, 0.5)]},
    **{f"expected_tally-{name}": (name, "[0, 1]", 0.5, 1.5,
                                  lambda v, s, name=name: _tally(**{name: v}),
                                  (sim, "expected_statistics"))
       for name in ("sift_ratio", "zero_fraction")},
    "simulate_session-zero_bias": (
        "zero_bias", "[0, 1]", 0.4, -0.1,
        lambda v, s: simulate_session(reference_model(25.0), reference_scheme(), 1_000_000, 3,
                                      zero_bias=v),
        (sim, "expected_statistics")),
    "calibrate_to_reference-duration_h": (
        "duration_h", "(0, inf)", 5.6, 0.0, lambda v, s: calibrate_to_reference(duration_h=v),
        (sim, "expected_statistics")),
    "calibrate_to_reference-zero_fraction": (
        "zero_fraction", "[0, 1]", 0.5, 1.5,
        lambda v, s: calibrate_to_reference(zero_fraction=v), (sim, "expected_statistics")),
    "range_curve-distances": (
        "distances", "[0, inf)", 140.0, -1.0,
        lambda v, s: range_curve(reference_model(), PULSES, [v, 200.0]),
        (opt, "evaluate_scheme")),
    "optimize_scheme-extinction_db": ("extinction_db", "[0, inf)", 23.5, -1.0,
                                      lambda v, s: _optimize(v), (opt, "evaluate_scheme")),
    "range_curve-extinction_db": (
        "extinction_db", "[0, inf)", 23.5, -1.0,
        lambda v, s: range_curve(reference_model(), PULSES, [140.0], optimize=True,
                                 extinction_db=v, stages=1),
        (opt, "evaluate_scheme")),
    "cascade_reconcile-estimated_qber": (
        "estimated_qber", "(0, 0.25]", 0.03, 0.3,
        lambda v, s: cascade_reconcile(BITS, NOISY, v, 7), (recon, "_as_bits")),
    "distill_session-pa_epsilon": ("pa_epsilon", "(0, 0.5)", 1e-3, 0.7,
                                   lambda v, s: _distill(s, pa_epsilon=v),
                                   (recon, "cascade_reconcile")),
    "measure_f_ds-zero_fraction": (
        "zero_fraction", "(0, 1)", 0.3, 1.0,
        lambda v, s: measure_f_ds(DESKEWED, v), (extract, "binary_entropy")),
}


def _bad(entry):
    """The bad values of an entry by kind: those its interval leaves out."""
    _, interval, _, outside, _, _ = ENTRIES[entry]
    bad = {"True": True, "np.bool_": np.bool_(True), "'0.5'": "0.5", "nan": math.nan}
    if interval != "[-inf, inf]":  # the one interval that holds both infinities
        bad["inf"] = -math.inf if interval.endswith("inf]") else math.inf
    if outside is not None:
        bad["outside"] = outside
    return bad


CASES = [(entry, kind) for entry in ENTRIES for kind in _bad(entry)]


@pytest.mark.parametrize("entry, kind", CASES, ids=[f"{e}-{k}" for e, k in CASES])
def test_bad_value_named_before_any_work(entry, kind, session, monkeypatch):
    name, interval, _, _, call, work = ENTRIES[entry]
    value = _bad(entry)[kind]
    if work is not None:
        def no_work(*args, **kwargs):
            raise AssertionError(f"{work[1]} ran")

        monkeypatch.setattr(*work, no_work)
    with pytest.raises(InputError) as info:
        call(value, session)
    assert info.value.input_name == name
    if kind in ("nan", "inf", "outside"):
        assert str(info.value) == f"{name} must lie in {interval}, got {float(value)}"
    else:
        assert str(info.value).startswith(f"{name}: expected a ")


@pytest.mark.parametrize("entry", ENTRIES)
def test_numpy_float_gives_the_python_float_result(entry, session):
    _, _, good, _, call, _ = ENTRIES[entry]
    assert pickle.dumps(call(np.float64(good), session)) == pickle.dumps(call(good, session))


def test_an_infinite_deskewing_factor_leaves_no_key(session):
    # [1, inf] closes on inf, as for f_ec (tests/test_keyrate.py).
    analysis = _compose(session, f_ds=math.inf)
    assert (analysis.total_tight, analysis.total_worst) == (0, 0)


def test_check_real_returns_a_python_float():
    value = check_real(np.float32(0.25), "sift_ratio", "[0, 1]")
    assert (type(value), value) == (float, 0.25)
    assert check_real(3, "duration_h", "(0, inf)") == 3.0
    with pytest.raises(InputError, match=r"^f_ec: expected a number, got True$"):
        check_real(True, "f_ec", "[1, inf]")
    with pytest.raises(InputError, match=r"^distances: expected a finite number, got inf$"):
        check_real(10**400, "distances", "[0, inf)")


@pytest.mark.parametrize("targets", [(5342,), (5342, 4526, 7)])
def test_calibration_needs_exactly_two_key_targets(targets, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("expected_statistics ran")

    monkeypatch.setattr(sim, "expected_statistics", no_work)
    with pytest.raises(InputError, match=f"got {len(targets)} targets$") as info:
        calibrate_to_reference(key_targets=targets)
    assert info.value.input_name == "targets"
