"""Validation and serialization behavior of the core value objects."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import MALFORMED_DOCUMENTS
from ledger import FROZEN

from decoyqkd import (
    MAX_PHOTON_CUTOFF,
    ChannelModel,
    ConfidenceConfig,
    DecoyScheme,
    InputError,
    LevelCounts,
    SessionTally,
    ValidationError,
    compose_session,
    dumps,
    poisson_weights,
    reference_model,
    reference_scheme,
    simulate_session,
    validate_tally,
)


def make_level(sent=1000, det=100, sift=50, err=5):
    half = {"X": det // 2, "Z": det - det // 2}
    return LevelCounts(
        sent=sent,
        detected=half,
        sifted={"X": sift // 2, "Z": sift - sift // 2},
        errors={"X": err // 2, "Z": err - err // 2},
    )


class TestDecoyScheme:
    def test_reference_scheme_shape(self):
        s = reference_scheme()
        assert s.mus == (0.0025, 0.13, 0.57)
        assert s.send_probs == (0.1, 0.2, 0.7)
        assert s.signal_index == 2
        assert s.signal_mu == 0.57
        assert s.n_levels == 3

    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            DecoyScheme(mus=(0.5,), send_probs=(1.0,))

    def test_mus_strictly_increasing(self):
        with pytest.raises(ValueError):
            DecoyScheme(mus=(0.2, 0.2, 0.5), send_probs=(0.3, 0.3, 0.4))
        with pytest.raises(ValueError):
            DecoyScheme(mus=(0.5, 0.2), send_probs=(0.5, 0.5))

    def test_mus_nonnegative(self):
        with pytest.raises(ValueError):
            DecoyScheme(mus=(-0.1, 0.5), send_probs=(0.5, 0.5))
        with pytest.raises(ValueError):
            DecoyScheme(mus=(math.nan, 0.5), send_probs=(0.5, 0.5))
        # an exactly-vacuum lowest level is legal
        DecoyScheme(mus=(0.0, 0.5), send_probs=(0.5, 0.5))

    def test_probs_positive_and_normalized(self):
        with pytest.raises(ValueError):
            DecoyScheme(mus=(0.1, 0.5), send_probs=(0.0, 1.0))
        with pytest.raises(ValueError):
            DecoyScheme(mus=(0.1, 0.5), send_probs=(0.3, 0.3))
        with pytest.raises(ValueError):
            DecoyScheme(mus=(0.1, 0.5), send_probs=(math.nan, 0.5))

    def test_json_round_trip(self):
        s = DecoyScheme(mus=(0.01, 0.2, 0.6), send_probs=(0.15, 0.25, 0.6))
        doc = s.to_json()
        assert doc["kind"] == "decoy_scheme"
        assert DecoyScheme.from_json(doc) == s

    def test_from_json_rejects_wrong_kind(self):
        doc = reference_model().to_json()
        with pytest.raises(ValidationError):
            DecoyScheme.from_json(doc)


class TestLevelCounts:
    def test_chain_enforced(self):
        with pytest.raises(ValidationError):
            LevelCounts(
                sent=100,
                detected={"X": 5, "Z": 5},
                sifted={"X": 6, "Z": 2},  # sifted > detected in X
                errors={"X": 0, "Z": 0},
            )
        with pytest.raises(ValidationError):
            LevelCounts(
                sent=100,
                detected={"X": 5, "Z": 5},
                sifted={"X": 3, "Z": 2},
                errors={"X": 4, "Z": 0},  # errors > sifted in X
            )

    def test_detections_bounded_by_sent(self):
        with pytest.raises(ValidationError):
            LevelCounts(
                sent=8,
                detected={"X": 5, "Z": 5},
                sifted={"X": 0, "Z": 0},
                errors={"X": 0, "Z": 0},
            )

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            make_level(sent=-1)
        with pytest.raises(ValidationError):
            LevelCounts(
                sent=10,
                detected={"X": -1, "Z": 1},
                sifted={"X": 0, "Z": 0},
                errors={"X": 0, "Z": 0},
            )

    def test_totals(self):
        lv = make_level(det=101, sift=51)
        assert lv.detected_total() == 101
        assert lv.sifted_total() == 51


class TestSessionTally:
    def test_zeros_bounded_by_sifted(self):
        lv = make_level()
        with pytest.raises(ValidationError):
            SessionTally(levels=(lv,), zeros={"X": 10_000, "Z": 0})

    def test_zero_fraction(self):
        lv = make_level(sift=40)
        tally = SessionTally(levels=(lv,), zeros={"X": 10, "Z": 5})
        assert tally.zero_fraction("X") == pytest.approx(10 / 20)
        assert tally.zero_fraction("Z") == pytest.approx(5 / 20)

    def test_zero_fraction_empty_basis_is_half(self):
        lv = LevelCounts(
            sent=10,
            detected={"X": 0, "Z": 0},
            sifted={"X": 0, "Z": 0},
            errors={"X": 0, "Z": 0},
        )
        tally = SessionTally(levels=(lv,), zeros={"X": 0, "Z": 0})
        assert tally.zero_fraction("X") == 0.5

    def test_json_round_trip_preserves_counts(self):
        lv = make_level()
        tally = SessionTally(levels=(lv, lv), zeros={"X": 20, "Z": 21})
        loaded = SessionTally.from_json(tally.to_json())
        assert loaded == tally
        assert not loaded.reconstructed

    def test_bare_totals_are_split_and_flagged(self):
        doc = {
            "format_version": "1",
            "kind": "session_tally",
            "levels": [{"sent": 100, "detected": 9, "sifted": 5, "errors": 1}],
        }
        tally = SessionTally.from_json(doc)
        assert tally.reconstructed
        assert tally.levels[0].detected == {"X": 5, "Z": 4}
        assert tally.levels[0].sifted == {"X": 3, "Z": 2}
        # zeros absent: assumed unbiased per basis
        assert tally.zeros == {"X": 1, "Z": 1}

    def test_validate_tally_level_count(self):
        lv = make_level()
        tally = SessionTally(levels=(lv,), zeros={"X": 0, "Z": 0})
        with pytest.raises(InputError, match="tally has 1 levels but scheme has 3") as info:
            validate_tally(tally, reference_scheme())
        assert info.value.input_name == "tally"

    def test_validate_tally_level_without_pulses_names_tally(self):
        idle = make_level(sent=0, det=0, sift=0, err=0)
        tally = SessionTally(levels=(make_level(), idle, make_level()), zeros={"X": 0, "Z": 0})
        with pytest.raises(InputError, match="level 1 has no sent pulses") as info:
            validate_tally(tally, reference_scheme())
        assert info.value.input_name == "tally"


class TestChannelModel:
    def test_reference_model_fields(self):
        m = reference_model()
        assert m.fiber_length_km == 135.0
        assert m.attenuation_db_per_km == 0.206
        assert 0 < m.detector_efficiency <= 1
        assert m.clock_rate_hz == 1e7

    def test_with_length(self):
        m = replace(reference_model(), fiber_length_km=42.0)
        assert m.fiber_length_km == 42.0
        assert m.detector_efficiency == reference_model().detector_efficiency
        with pytest.raises(ValidationError, match="fiber_length_km"):
            replace(reference_model(), fiber_length_km=math.nan)

    @pytest.mark.parametrize("field", [
        "attenuation_db_per_km", "detector_efficiency", "dark_count_rate_hz",
        "timing_window_s", "clock_rate_hz", "intrinsic_error_rate", "background_rate_hz",
    ])
    def test_nan_rejected(self, field):
        with pytest.raises(ValidationError):
            replace(reference_model(), **{field: math.nan})

    def test_efficiency_range(self):
        with pytest.raises(ValueError):
            ChannelModel(
                fiber_length_km=10,
                attenuation_db_per_km=0.2,
                detector_efficiency=1.5,
                dark_count_rate_hz=100,
                timing_window_s=1e-9,
                clock_rate_hz=1e7,
                intrinsic_error_rate=0.01,
            )

    def test_intrinsic_error_range(self):
        with pytest.raises(ValueError):
            ChannelModel(
                fiber_length_km=10,
                attenuation_db_per_km=0.2,
                detector_efficiency=0.1,
                dark_count_rate_hz=100,
                timing_window_s=1e-9,
                clock_rate_hz=1e7,
                intrinsic_error_rate=0.6,
            )

    def test_window_cannot_exceed_clock_period(self):
        with pytest.raises(ValueError):
            ChannelModel(
                fiber_length_km=10,
                attenuation_db_per_km=0.2,
                detector_efficiency=0.1,
                dark_count_rate_hz=100,
                timing_window_s=1.0,
                clock_rate_hz=1e7,
                intrinsic_error_rate=0.01,
            )

    def test_json_round_trip(self):
        m = reference_model()
        assert ChannelModel.from_json(m.to_json()) == m

    def test_background_field_optional_in_json(self):
        doc = reference_model().to_json()
        del doc["background_rate_hz"]
        m = ChannelModel.from_json(doc)
        assert m.background_rate_hz == 0.0


class TestConfidenceConfig:
    def test_defaults(self):
        c = ConfidenceConfig()
        assert c.epsilon == 1e-7
        assert c.photon_cutoff == 10
        assert c.pin_vacuum_errors

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            ConfidenceConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            ConfidenceConfig(epsilon=1.0)
        with pytest.raises(ValueError):
            ConfidenceConfig(epsilon=math.nan)

    def test_cutoff_minimum(self):
        with pytest.raises(ValueError):
            ConfidenceConfig(photon_cutoff=0)
        with pytest.raises(ValueError):
            ConfidenceConfig(photon_cutoff=math.nan)

    def test_cutoff_maximum(self):
        assert ConfidenceConfig(photon_cutoff=MAX_PHOTON_CUTOFF).photon_cutoff == MAX_PHOTON_CUTOFF
        # A cutoff of 20000 would build a 2.98 GiB identity matrix: any value
        # past the cap is refused first, from a document as from a call.
        for cutoff in (MAX_PHOTON_CUTOFF + 1, 20_000, 2**63):
            message = f"photon_cutoff must be <= {MAX_PHOTON_CUTOFF}, got {cutoff}"
            for build in (lambda: ConfidenceConfig(photon_cutoff=cutoff),
                          lambda: ConfidenceConfig.from_json({"format_version": "1",
                                                              "photon_cutoff": cutoff})):
                with pytest.raises(InputError, match=message) as info:
                    build()
                assert info.value.input_name == "photon_cutoff"

    def test_cutoff_maximum_keeps_every_nonzero_poisson_weight(self):
        # The cap loses no constraint: past it every weight is exactly 0.0 at
        # each mean photon number the optimizer may choose (at most 1.5).
        for mu in np.linspace(1e-6, 1.5, 301):
            weights = poisson_weights(float(mu), 2 * MAX_PHOTON_CUTOFF)
            assert not any(weights[MAX_PHOTON_CUTOFF + 1:])

    def test_from_json_defaults_are_the_field_defaults(self):
        assert ConfidenceConfig.from_json({"format_version": "1"}) == ConfidenceConfig()
        c = ConfidenceConfig(epsilon=1e-9, photon_cutoff=6, pin_vacuum_errors=False)
        assert ConfidenceConfig.from_json(c.to_json()) == c

    @pytest.mark.parametrize("field, value", [
        ("pin_vacuum_errors", "false"),
        ("pin_vacuum_errors", 0),
        ("photon_cutoff", True),
        ("photon_cutoff", 10.7),
        ("photon_cutoff", "10"),
        ("epsilon", "1e-7"),
        ("epsilon", True),
        ("epsilon", None),
        ("epsilon", float("nan")),
        ("epsilon", float("inf")),
    ])
    def test_from_json_rejects_mistyped_fields(self, field, value):
        with pytest.raises(ValidationError, match=f"confidence_config: {field}"):
            ConfidenceConfig.from_json({"format_version": "1", field: value})


def test_dumps_is_sorted_and_stable():
    doc = {"b": 1, "a": {"d": 2, "c": 3}}
    text = dumps(doc)
    assert text == dumps(json.loads(text))
    assert text.index('"a"') < text.index('"b"')


def test_dumps_uses_to_json():
    s = reference_scheme()
    assert json.loads(dumps(s)) == s.to_json()


# ---------------------------------------------------------------------------
# The JSON contract shared by every reader
# ---------------------------------------------------------------------------


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def schemes(draw):
    n = draw(st.integers(2, 4))
    mus = sorted(draw(st.lists(finite(0, 2), min_size=n, max_size=n, unique=True)))
    weights = draw(st.lists(finite(0.01, 1), min_size=n, max_size=n))
    return DecoyScheme(mus=tuple(mus), send_probs=tuple(w / sum(weights) for w in weights))


@st.composite
def models(draw):
    clock = draw(finite(1e3, 1e10))
    return ChannelModel(
        fiber_length_km=draw(finite(0, 300)),
        attenuation_db_per_km=draw(finite(0, 1)),
        detector_efficiency=draw(finite(1e-6, 1)),
        dark_count_rate_hz=draw(finite(0, 1e6)),
        timing_window_s=draw(finite(1e-12, 1)) / clock,
        clock_rate_hz=clock,
        intrinsic_error_rate=draw(finite(0, 0.5)),
        background_rate_hz=draw(finite(0, 1e6)),
    )


@st.composite
def level_counts(draw):
    counts = st.integers(0, 10**12)
    chains = {}
    for b in ("X", "Z"):
        errors = draw(counts)
        sifted = errors + draw(counts)
        chains[b] = (errors, sifted, sifted + draw(counts))
    return LevelCounts(
        sent=chains["X"][2] + chains["Z"][2] + draw(counts),
        errors={b: c[0] for b, c in chains.items()},
        sifted={b: c[1] for b, c in chains.items()},
        detected={b: c[2] for b, c in chains.items()},
    )


@st.composite
def tallies(draw):
    levels = tuple(draw(st.lists(level_counts(), min_size=1, max_size=3)))
    zeros = {b: draw(st.integers(0, sum(lv.sifted[b] for lv in levels))) for b in ("X", "Z")}
    return SessionTally(levels=levels, zeros=zeros, reconstructed=draw(st.booleans()))


VALUES = st.one_of(
    schemes(),
    models(),
    tallies(),
    st.builds(
        ConfidenceConfig,
        epsilon=finite(1e-300, 0.49),
        photon_cutoff=st.integers(1, 40),
        pin_vacuum_errors=st.booleans(),
    ),
)
#: Any JSON value; keys and strings are drawn from names the readers know.
NAMES = st.sampled_from(["", "1", "X", "Z", "mu", "sent", "zeros", "levels", "epsilon"])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | NAMES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(NAMES, inner, max_size=3),
    max_leaves=8,
)
#: Values of the wrong JSON type for a leaf of each type.
MISTYPED = {
    bool: ["no", None, 0, math.nan],
    int: ["12", True, None, 12.0, math.nan],
    float: ["0.5", True, None, math.nan],
}


def nodes(doc, path=()):
    """Every (path, value) of a document below its header, parents first."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            if key not in ("format_version", "kind"):
                yield from nodes(value, (*path, key))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def field_name(kind, path):
    """How a reader names the field at ``path`` of a ``kind`` document."""
    name = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    return f"{kind}: {name.lstrip('.')}" if name else kind


@given(VALUES)
def test_json_round_trip_property(value):
    assert type(value).from_json(value.to_json()) == value
    assert type(value).from_json(json.loads(dumps(value))) == value


@given(VALUES, st.data())
def test_mistyped_leaf_rejected_naming_it(value, data):
    doc = value.to_json()
    leaves = [(p, v) for p, v in nodes(doc) if not isinstance(v, (dict, list))]
    path, leaf = data.draw(st.sampled_from(leaves))
    at(doc, path[:-1])[path[-1]] = data.draw(st.sampled_from(MISTYPED[type(leaf)]))
    with pytest.raises(ValidationError, match=re.escape(field_name(doc["kind"], path))):
        type(value).from_json(doc)


@given(VALUES, st.data())
def test_unknown_key_rejected_naming_it(value, data):
    doc = value.to_json()
    objects = [p for p, v in nodes(doc) if isinstance(v, dict)]
    path = data.draw(st.sampled_from(objects))
    at(doc, path)["bogus"] = 1
    message = f"{field_name(doc['kind'], path)}: unknown fields ['bogus']"
    with pytest.raises(ValidationError, match=re.escape(message)):
        type(value).from_json(doc)


@given(VALUES, st.data())
def test_readers_raise_only_validation_errors(value, data):
    doc = value.to_json()
    path = data.draw(st.sampled_from([p for p, _ in nodes(doc)]))
    replacement = data.draw(JSON)
    if path:
        at(doc, path[:-1])[path[-1]] = replacement
    else:
        doc = replacement
    try:
        type(value).from_json(doc)
    except ValidationError:
        pass


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_malformed_document_rejected(case):
    kind, edit, field = MALFORMED_DOCUMENTS[case]
    value = {
        "session_tally": SessionTally(levels=(make_level(),), zeros={"X": 10, "Z": 10}),
        "channel_model": reference_model(),
    }[kind]
    doc = value.to_json()
    edit(doc)
    with pytest.raises(ValidationError, match=re.escape(field)):
        type(value).from_json(doc)


def _tally_from_values(doc):
    """The tally a session_tally document holds, built through the library."""
    levels = tuple(LevelCounts(**level) for level in doc["levels"])
    return SessionTally(levels=levels, zeros=doc["zeros"], reconstructed=doc["reconstructed"])


@pytest.mark.parametrize("case", ["float sent", "negative detected.X", "negative zeros.Z",
                                  "reconstructed no", "null zeros.X"])
def test_library_rejects_what_the_reader_rejects(case):
    _, edit, field = MALFORMED_DOCUMENTS[case]
    doc = SessionTally(levels=(make_level(),), zeros={"X": 10, "Z": 10}).to_json()
    edit(doc)
    with pytest.raises(ValidationError) as library:
        _tally_from_values(doc)
    with pytest.raises(ValidationError, match=re.escape(field)) as reader:
        SessionTally.from_json(doc)
    # the reader's message is the record's, behind where the field sits
    assert str(reader.value).endswith(f"{library.value}")
    assert len(str(reader.value)) > len(str(library.value))


@pytest.mark.parametrize("value", ["yes", 0, None])
def test_pin_vacuum_errors_must_be_a_bool(value):
    with pytest.raises(ValidationError, match="^pin_vacuum_errors: expected true or false"):
        ConfidenceConfig(pin_vacuum_errors=value)


@pytest.mark.parametrize("edit, name", [
    (lambda t: replace(t, levels=(replace(t.levels[0], sent=t.levels[0].sent + 0.5),
                                  *t.levels[1:])), "sent"),
    (lambda t: replace(t, levels=(t.levels[0], replace(t.levels[1], errors={
        **t.levels[1].errors, "X": True}), *t.levels[2:])), "errors.X"),
    (lambda t: replace(t, reconstructed="no"), "reconstructed"),
], ids=["sent + 0.5", "errors.X True", "reconstructed no"])
def test_library_built_tally_is_refused_before_any_work(edit, name):
    tally, _ = simulate_session(reference_model(25.0), reference_scheme(), 20_000_000, seed=11)
    analysis = compose_session(tally, reference_scheme(), ConfidenceConfig())
    assert analysis.total_tight == FROZEN["readme.total_tight"]
    with pytest.raises(ValidationError, match=f"^{re.escape(name)}: expected"):
        compose_session(edit(tally), reference_scheme(), ConfidenceConfig())


def test_numpy_counts_are_stored_as_int():
    level = LevelCounts(
        sent=np.int64(1000),
        detected={"X": np.int64(60), "Z": np.uint32(40)},
        sifted={"X": np.int32(30), "Z": 20},
        errors={"X": np.int64(3), "Z": np.int8(2)},
    )
    tally = SessionTally(levels=(level,), zeros={"X": np.int64(15), "Z": np.uint64(10)})
    counts = [level.sent, *tally.zeros.values()]
    counts += [v for group in (level.detected, level.sifted, level.errors) for v in group.values()]
    assert {type(v) for v in counts} == {int}
    assert SessionTally.from_json(json.loads(dumps(tally))) == tally


@pytest.mark.parametrize("group", [
    {"X": 5, "Z": 5, "Y": 7}, {"X": 5}, [1, 2], None,
], ids=["extra basis", "missing basis", "list", "None"])
@pytest.mark.parametrize("field_name", ["detected", "sifted", "errors", "zeros"])
def test_count_groups_hold_exactly_the_bases(field_name, group):
    level = dict(sent=100, detected={"X": 10, "Z": 10}, sifted={"X": 5, "Z": 5},
                 errors={"X": 1, "Z": 1})
    message = f"^{field_name}: expected counts by basis \\['X', 'Z'\\], got "
    with pytest.raises(ValidationError, match=message):
        if field_name == "zeros":
            SessionTally(levels=(LevelCounts(**level),), zeros=group)
        else:
            LevelCounts(**{**level, field_name: group})


def test_constructor_errors_carry_the_document_path():
    tally = SessionTally(levels=(make_level(), make_level()), zeros={"X": 10, "Z": 10})
    doc = tally.to_json()
    doc["levels"][1]["sent"] = 1
    with pytest.raises(ValidationError, match=re.escape(
        "session_tally: levels[1]: total detections exceed pulses sent"
    )):
        SessionTally.from_json(doc)
    doc = reference_scheme().to_json()
    doc["levels"][0]["send_prob"] += 0.1
    with pytest.raises(ValidationError, match="^decoy_scheme: send probabilities sum to"):
        DecoyScheme.from_json(doc)
    # the path is added to the message; the error keeps its type and name
    with pytest.raises(InputError, match="^confidence_config: photon_cutoff must be >= 1") as exc:
        ConfidenceConfig.from_json({"format_version": "1", "photon_cutoff": 0})
    assert exc.value.input_name == "photon_cutoff"


def test_document_of_another_kind_rejected():
    doc = ConfidenceConfig().to_json()
    doc["kind"] = "channel_model"
    with pytest.raises(ValidationError, match="kind is 'channel_model'"):
        ConfidenceConfig.from_json(doc)
