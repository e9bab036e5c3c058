"""The design tools' per-call evaluation state: what it keys on and what it saves."""

from __future__ import annotations

from dataclasses import replace

import pytest

from decoyqkd import decoy, keyrate
from decoyqkd.core import ConfidenceConfig, DecoyScheme
from decoyqkd.decoy import EvaluationState
from decoyqkd.keyrate import compose_session
from decoyqkd.sim import (
    REFERENCE_SIFT_RATIO,
    calibrate_to_reference,
    expected_tally,
    reference_model,
    reference_scheme,
    simulate_session,
)

PULSES = 23_836_243_437  # 5.6 h at the reference clock and duty cycle
BUDGET = {"f_ec": 1.07, "f_ds": 1.05}


@pytest.fixture
def work(monkeypatch):
    """Counts of the LP solves, binomial intervals and typical-set factors made."""
    counts = {"solves": 0, "intervals": 0, "factors": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(decoy, "solve_lp", counting("solves", decoy.solve_lp))
    monkeypatch.setattr(decoy, "binomial_interval",
                        counting("intervals", decoy.binomial_interval))
    monkeypatch.setattr(keyrate, "privacy_amplification_factor",
                        counting("factors", keyrate.privacy_amplification_factor))
    return counts


def _taken(counts):
    taken = dict(counts)
    counts.update(dict.fromkeys(counts, 0))
    return taken


def test_calibrate_solves_each_distinct_bound_once(work):
    first = calibrate_to_reference(**BUDGET)
    assert _taken(work) == {"solves": 18, "intervals": 30, "factors": 34}
    # The state ends with the call: a second one starts from nothing.
    second = calibrate_to_reference(**BUDGET)
    assert _taken(work) == {"solves": 18, "intervals": 30, "factors": 34}
    assert first.to_json() == second.to_json()


def test_compose_without_state_solves_every_bound(work):
    scheme = reference_scheme()
    expected = expected_tally(reference_model(), scheme, PULSES,
                              sift_ratio=REFERENCE_SIFT_RATIO, zero_fraction=0.494)
    sampled, _keys = simulate_session(reference_model(25.0), scheme, PULSES, 1)
    for tally, solves in ((sampled, 3), (expected, 2)):
        for _ in range(2):
            compose_session(tally, scheme, **BUDGET)
            assert _taken(work)["solves"] == solves


def _base():
    scheme = reference_scheme()
    tally = expected_tally(reference_model(), scheme, PULSES,
                           sift_ratio=REFERENCE_SIFT_RATIO, zero_fraction=0.494)
    return {"tally": tally, "scheme": scheme, "config": ConfidenceConfig(), **BUDGET,
            "pa_epsilon": 1e-3}


def _bumped(tally, level, group, basis):
    """``tally`` with one count of one level raised by one."""
    lv = tally.levels[level]
    if group == "sent":
        lv = replace(lv, sent=lv.sent + 1)
    else:
        counts = getattr(lv, group)
        lv = replace(lv, **{group: {**counts, basis: counts[basis] + 1}})
    levels = tuple(lv if j == level else old for j, old in enumerate(tally.levels))
    return replace(tally, levels=levels)


def _variants():
    base = _base()
    tally, scheme, config = base["tally"], base["scheme"], base["config"]
    for level in range(len(tally.levels)):
        yield f"level {level} sent", {"tally": _bumped(tally, level, "sent", None)}
        for group in ("detected", "sifted", "errors"):
            for basis in ("X", "Z"):
                yield (f"level {level} {group} {basis}",
                       {"tally": _bumped(tally, level, group, basis)})
    for basis in ("X", "Z"):
        zeros = {**tally.zeros, basis: tally.zeros[basis] + 1}
        yield f"zeros {basis}", {"tally": replace(tally, zeros=zeros)}
    mus, probs = scheme.mus, scheme.send_probs
    yield "mu", {"scheme": DecoyScheme(mus=(mus[0], mus[1] * 1.01, mus[2]), send_probs=probs)}
    yield "send probability", {"scheme": DecoyScheme(
        mus=mus, send_probs=(probs[0] + 0.01, probs[1], probs[2] - 0.01))}
    yield "epsilon", {"config": replace(config, epsilon=1e-6)}
    yield "photon_cutoff", {"config": replace(config, photon_cutoff=9)}
    yield "pin_vacuum_errors", {"config": replace(config, pin_vacuum_errors=False)}
    yield "f_ec", {"f_ec": 1.08}
    yield "f_ds", {"f_ds": 1.06}
    yield "pa_epsilon", {"pa_epsilon": 1e-4}


def _compose(state=None, **inputs):
    return compose_session(**inputs, state=state)


VARIANTS = list(_variants())


@pytest.mark.parametrize("change", VARIANTS, ids=[name for name, _ in VARIANTS])
def test_each_memo_input_is_in_the_key(change):
    _name, override = change
    base = _base()
    state = EvaluationState()
    first = _compose(state, **base)
    assert _compose(state, **base) is first  # an equal call hits
    changed = {**base, **override}
    second = _compose(state, **changed)
    assert len(state.analyses) == 2 and second is not first  # the change misses
    assert second.to_json() == _compose(**changed).to_json()


def test_equal_counts_hit_across_tally_objects():
    base = _base()
    state = EvaluationState()
    first = _compose(state, **base)
    tally = base["tally"]
    copy = replace(tally, levels=tuple(replace(lv, detected=dict(lv.detected))
                                       for lv in tally.levels), zeros=dict(tally.zeros))
    assert _compose(state, **{**base, "tally": copy}) is first
    assert first.to_json() == _compose(**base).to_json()


def test_memoized_bounds_equal_fresh_ones():
    # Two tallies that differ only in their error counts share the yield
    # system, so the second composition re-solves no y1 floor.
    base = _base()
    state = EvaluationState()
    _compose(state, **base)
    bumped = {**base, "tally": _bumped(base["tally"], 2, "errors", "X")}
    memoized = _compose(state, **bumped)
    assert len(state.yields) == 1
    assert memoized.to_json() == _compose(**bumped).to_json()
