"""Tests for scheme optimization and range scans."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import replace

import pytest

from decoyqkd.core import ConfidenceConfig, DecoyScheme, InputError, ValidationError
from decoyqkd.keyrate import compose_session
from decoyqkd.opt import (
    curve_csv,
    evaluate_scheme,
    optimize_scheme,
    range_curve,
)
from decoyqkd.sim import (
    REFERENCE_SIFT_RATIO,
    expected_tally,
    reference_model,
    reference_scheme,
)

PULSES = 23836243437  # 5.6 h at the reference clock and duty cycle


def _evaluate(model, scheme, pulses, **kwargs):
    kwargs.setdefault("f_ec", 1.07)
    kwargs.setdefault("f_ds", 1.05)
    kwargs.setdefault("sift_ratio", REFERENCE_SIFT_RATIO)
    kwargs.setdefault("zero_fraction", 0.494)
    return evaluate_scheme(model, scheme, pulses, **kwargs)


class TestEvaluateScheme:
    def test_is_expected_tally_plus_composition(self):
        model, scheme = reference_model(), reference_scheme()
        direct = _evaluate(model, scheme, PULSES)
        tally = expected_tally(
            model, scheme, PULSES,
            sift_ratio=REFERENCE_SIFT_RATIO, zero_fraction=0.494,
        )
        composed = compose_session(
            tally, scheme, ConfidenceConfig(), f_ec=1.07, f_ds=1.05
        )
        assert direct.to_json() == composed.to_json()

    def test_reference_point_totals(self):
        analysis = _evaluate(reference_model(), reference_scheme(), PULSES)
        assert analysis.total_tight == 5364
        assert analysis.total_worst == 4548
        assert analysis.total_tight > analysis.total_worst

    def test_no_pulses_cannot_be_bounded(self):
        # an empty session has no decoy statistics to invert
        with pytest.raises(ValueError):
            _evaluate(reference_model(), reference_scheme(), 0)


@pytest.fixture(scope="module")
def result():
    return optimize_scheme(
        reference_model(),
        PULSES,
        f_ec=1.07,
        f_ds=1.05,
        sift_ratio=REFERENCE_SIFT_RATIO,
        zero_fraction=0.494,
    )


class TestOptimizeScheme:
    def test_frozen_optimum(self, result):
        assert result.analysis.total_tight == 5502
        assert result.analysis.total_worst == 4734
        assert len(result.trace) == 79
        mus, probs = result.scheme.mus, result.scheme.send_probs
        assert mus[0] == pytest.approx(0.002678, abs=2e-4)
        assert mus[1] == pytest.approx(0.13, abs=0.02)
        assert mus[2] == pytest.approx(0.5996, abs=0.01)
        assert probs[2] == pytest.approx(0.7647, abs=0.02)

    def test_beats_fixed_scheme(self, result):
        fixed = _evaluate(reference_model(), reference_scheme(), PULSES)
        assert result.analysis.total_tight >= fixed.total_tight
        assert result.analysis.total_worst >= fixed.total_worst

    def test_result_is_reproducible_from_scheme(self, result):
        replay = _evaluate(reference_model(), result.scheme, PULSES)
        assert replay.total_tight == result.analysis.total_tight
        assert replay.total_worst == result.analysis.total_worst
        assert replay.to_json() == result.analysis.to_json()

    def test_vacuum_level_respects_extinction_floor(self, result):
        # The dimmest level cannot be darker than the signal leaking
        # through the stated extinction ratio.
        floor = result.scheme.mus[2] * 10.0 ** (-23.5 / 10.0)
        assert result.scheme.mus[0] >= floor * (1.0 - 1e-12)

    def test_trace_covers_every_evaluation(self, result):
        # one entry per distinct scheme evaluated
        assert len({tuple(entry.values()) for entry in result.trace}) == len(result.trace)
        first = result.trace[0]
        # the scan starts from the incumbent scheme
        assert first["mu1"] == pytest.approx(0.13)
        assert first["mu2"] == pytest.approx(0.57)
        best = max(entry["n_secret_tight"] for entry in result.trace)
        assert best == result.analysis.total_tight

    def test_single_stage_is_coarser_but_sound(self):
        quick = optimize_scheme(
            reference_model(),
            PULSES,
            stages=1,
            f_ec=1.07,
            f_ds=1.05,
            sift_ratio=REFERENCE_SIFT_RATIO,
            zero_fraction=0.494,
        )
        assert len(quick.trace) == 27
        assert quick.analysis.total_tight == 5414
        fixed = _evaluate(reference_model(), reference_scheme(), PULSES)
        assert quick.analysis.total_tight >= fixed.total_tight

    def test_skips_candidates_that_leave_a_level_without_pulses(self):
        quick = optimize_scheme(reference_model(), 25, stages=1)
        assert quick.analysis.total_tight == 0
        assert quick.trace
        for entry in quick.trace:
            assert all(round(25 * entry[p]) >= 1 for p in ("p0", "p1", "p2"))

    @pytest.mark.parametrize("pulses", [0, 2])
    def test_no_candidate_with_pulses_at_every_level_names_pulses(self, pulses):
        with pytest.raises(InputError, match="with no sent pulse") as info:
            optimize_scheme(reference_model(), pulses)
        assert info.value.input_name == "pulses"

    def test_rejects_negative_pulses(self):
        with pytest.raises(ValidationError):
            optimize_scheme(reference_model(), -1)

    def test_start_scheme_not_three_levels_names_scheme(self):
        two = DecoyScheme(mus=(0.1, 0.5), send_probs=(0.3, 0.7))
        with pytest.raises(InputError, match="3-level schemes only") as info:
            optimize_scheme(reference_model(), PULSES, initial_scheme=two, stages=1)
        assert info.value.input_name == "scheme"

    def test_unknown_evaluation_keyword(self):
        with pytest.raises(TypeError, match="f_ecc"):
            optimize_scheme(reference_model(), PULSES, stages=1, f_ecc=1.1)

    def test_no_valid_candidate_names_extinction(self):
        # At 0.05 dB the vacuum level mu0 = 0.989 mu2 is never below mu1.
        with pytest.raises(InputError, match="extinction_db 0.05 dB") as info:
            optimize_scheme(
                replace(reference_model(), fiber_length_km=25), 100_000_000,
                extinction_db=0.05, stages=1,
            )
        assert info.value.input_name == "extinction_db"


@pytest.fixture(scope="module")
def curve():
    return range_curve(
        reference_model(),
        PULSES,
        [140.0, 143.0, 146.0, 149.0],
        f_ec=1.07,
        f_ds=1.05,
        sift_ratio=REFERENCE_SIFT_RATIO,
        zero_fraction=0.494,
    )


class TestRangeCurve:
    def test_frozen_fixed_scheme_points(self, curve):
        got = [(p.distance_km, p.analysis.total_tight, p.analysis.total_worst)
               for p in curve.points]
        assert got == [
            (140.0, 2816, 1974),
            (143.0, 1622, 764),
            (146.0, 636, 0),
            (149.0, 0, 0),
        ]

    def test_range_endpoints(self, curve):
        assert curve.range_tight_km == 146.0
        assert curve.range_worst_km == 143.0
        assert curve.range_tight_km >= curve.range_worst_km

    def test_yield_monotone_along_curve(self, curve):
        tights = [p.analysis.total_tight for p in curve.points]
        worsts = [p.analysis.total_worst for p in curve.points]
        assert tights == sorted(tights, reverse=True)
        assert worsts == sorted(worsts, reverse=True)
        for point in curve.points:
            assert point.analysis.total_tight >= point.analysis.total_worst

    def test_points_carry_bound_diagnostics(self, curve):
        for point in curve.points:
            bounds = point.analysis.bounds
            assert bounds.y1_lower > 0.0
            b1_tight = max(bounds.b1_tight_by_basis.values())
            b1_worst = max(bounds.b1_worst_by_basis.values())
            assert 0.0 < b1_tight <= b1_worst <= 1.0
            assert point.scheme == reference_scheme()

    def test_csv_round_trip(self, curve):
        text = curve_csv(curve)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(curve.points)
        header = text.splitlines()[0]
        assert header == (
            "distance_km,n_secret_tight,n_secret_worst,"
            "y1_lower,b1_tight,b1_worst,mu0,mu1,mu2,p0,p1,p2"
        )
        for row, point in zip(rows, curve.points):
            assert float(row["distance_km"]) == point.distance_km
            assert int(row["n_secret_tight"]) == point.analysis.total_tight
            assert int(row["n_secret_worst"]) == point.analysis.total_worst
            assert float(row["y1_lower"]) == pytest.approx(point.analysis.bounds.y1_lower,
                                                           rel=1e-5)
            assert float(row["mu2"]) == pytest.approx(point.scheme.mus[2], rel=1e-5)

    def test_optimized_point_dominates_fixed(self):
        kwargs = dict(
            f_ec=1.07,
            f_ds=1.05,
            sift_ratio=REFERENCE_SIFT_RATIO,
            zero_fraction=0.494,
        )
        fixed = range_curve(reference_model(), PULSES, [146.0], **kwargs)
        tuned = range_curve(
            reference_model(), PULSES, [146.0], optimize=True, stages=2, **kwargs
        )
        assert tuned.points[0].analysis.total_tight >= fixed.points[0].analysis.total_tight

    def test_optimized_curve_with_no_valid_scheme(self):
        with pytest.raises(InputError, match="extinction_db") as info:
            range_curve(
                reference_model(), 100_000_000, [25.0, 30.0],
                optimize=True, extinction_db=0.05, stages=1,
            )
        assert info.value.input_name == "extinction_db"

    @pytest.mark.parametrize("optimize", [False, True])
    def test_unknown_evaluation_keyword(self, optimize):
        with pytest.raises(TypeError, match="f_ecc"):
            range_curve(reference_model(), PULSES, [140.0], optimize=optimize, stages=1,
                        f_ecc=1.1)

    @pytest.mark.parametrize("grid", [[], [150.0, 140.0], [140.0, 140.0], [-5.0, 10.0],
                                      [10.0, math.nan]])
    def test_bad_grid_names_distances(self, grid):
        with pytest.raises(InputError) as exc:
            range_curve(reference_model(), PULSES, grid)
        assert exc.value.input_name == "distances"

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("stages", [0, -1])
    def test_stages_below_one_named_with_or_without_optimize(self, optimize, stages):
        with pytest.raises(InputError, match=f"^stages must be >= 1, got {stages}$") as exc:
            range_curve(reference_model(), PULSES, [140.0], optimize=optimize, stages=stages)
        assert exc.value.input_name == "stages"

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            range_curve(reference_model(), PULSES, [140.0, 139.0])
        with pytest.raises(ValidationError):
            range_curve(reference_model(), PULSES, [])
        with pytest.raises(ValidationError):
            range_curve(reference_model(), PULSES, [140.0, 140.0])
