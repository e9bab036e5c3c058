"""Tests for the photon-number constraint systems and bound solvers."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from conftest import (
    grid_b1_maximum,
    grid_b1_resolution,
    grid_y1_minimum,
    grid_y1_resolution,
    random_constraint_systems,
)
from decoyqkd.core import ConfidenceConfig, LevelCounts, SessionTally
from decoyqkd.keyrate import compose_session
from decoyqkd.sim import reference_model, reference_scheme, simulate_session
from decoyqkd.decoy import (
    ConstraintSystem,
    b1_tight,
    b1_worst_case,
    error_bounds,
    single_photon_bounds,
    single_photon_sifted_weight,
    solve_lp,
    solve_y1_lower,
    yield_bounds,
)
from decoyqkd.stats import binomial_interval, poisson_tail, poisson_weights
from ledger import FROZEN


def _toy_system(cutoff=4, lows=(0.0, 0.0, 0.0), highs=(1.0, 1.0, 1.0)):
    mus = (0.001, 0.1, 0.5)
    weights = tuple(tuple(poisson_weights(m, cutoff)) for m in mus)
    tails = tuple(poisson_tail(m, cutoff) for m in mus)
    return ConstraintSystem(
        mus=mus, lows=lows, highs=highs, weights=weights, tails=tails, cutoff=cutoff
    )


def _contradictory_pair():
    """A yield system with no feasible point, and an error system beside it."""
    ysys = _toy_system(lows=(0.9, 0.0, 0.0), highs=(0.95, 1.0, 0.01))
    esys = ConstraintSystem(
        basis="X",
        mus=ysys.mus,
        lows=(0.0, 0.0, 0.0),
        highs=(0.5, 0.5, 0.5),
        weights=ysys.weights,
        tails=ysys.tails,
        cutoff=ysys.cutoff,
    )
    return ysys, esys


def _sampled_session():
    """A 5.6 h Monte-Carlo session at 25 km: its bases' counts differ."""
    scheme = reference_scheme()
    tally, _keys = simulate_session(reference_model(25.0), scheme, 23_836_243_437, 1)
    return tally, scheme


@pytest.fixture
def lp_calls(monkeypatch):
    """Arguments of every ``solve_lp`` call the decoy module makes."""
    calls = []

    def counting_solve_lp(*args, **kwargs):
        calls.append(args)
        return solve_lp(*args, **kwargs)

    monkeypatch.setattr("decoyqkd.decoy.solve_lp", counting_solve_lp)
    return calls


class TestConstraintSystemValidation:
    def test_needs_at_least_one_level(self):
        with pytest.raises(ValueError):
            ConstraintSystem(
                mus=(), lows=(), highs=(), weights=(), tails=(), cutoff=2
            )

    def test_lengths_must_agree(self):
        good = _toy_system()
        with pytest.raises(ValueError):
            ConstraintSystem(
                mus=good.mus,
                lows=good.lows[:2],
                highs=good.highs,
                weights=good.weights,
                tails=good.tails,
                cutoff=good.cutoff,
            )

    def test_interval_order(self):
        with pytest.raises(ValueError):
            _toy_system(lows=(0.5, 0.0, 0.0), highs=(0.4, 1.0, 1.0))

    def test_error_system_carries_basis(self):
        base = _toy_system()
        esys = ConstraintSystem(
            basis="Z",
            mus=base.mus,
            lows=base.lows,
            highs=base.highs,
            weights=base.weights,
            tails=base.tails,
            cutoff=base.cutoff,
        )
        assert esys.basis == "Z"


class TestLinearProgramSolver:
    def test_simple_minimum(self):
        # x0 + x1 >= 1 in the unit box, the box written as rows
        res = solve_lp(
            [1.0, 2.0], [[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]], [-1.0, 1.0, 1.0]
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0, abs=1e-9)
        assert res.x[0] == pytest.approx(1.0, abs=1e-9)

    def test_detects_infeasibility(self):
        # x <= 0.2 and x >= 0.5 cannot hold together
        res = solve_lp([1.0], [[1.0], [-1.0], [1.0]], [0.2, -0.5, 1.0])
        assert res.status == "infeasible"
        assert res.x is None and res.objective is None

    def test_agrees_with_reference_solver_on_random_programs(self):
        rng = np.random.default_rng(2024)
        solved = 0
        for _ in range(60):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, 8))
            a_ub = rng.normal(size=(m, n))
            b_ub = rng.uniform(0.1, 2.0, size=m)
            c = rng.normal(size=n)
            mine = solve_lp(
                c, np.vstack([a_ub, np.eye(n)]), np.concatenate([b_ub, np.ones(n)])
            )
            ref = linprog(
                c, A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, 1.0)] * n, method="highs"
            )
            if ref.status == 2:
                assert mine.status == "infeasible"
                continue
            assert ref.status == 0
            assert mine.status == "optimal"
            assert mine.objective == pytest.approx(ref.fun, rel=1e-7, abs=1e-9)
            solved += 1
        assert solved > 30  # the batch must actually exercise the solver

    def test_random_infeasible_programs_are_flagged(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            row = rng.uniform(0.5, 2.0, size=n)
            # row.x <= -1 is impossible for x >= 0
            mine = solve_lp(rng.normal(size=n), [row], [-1.0])
            assert mine.status == "infeasible"


class TestYieldFloor:
    def test_reference_operating_point(self, calibration):
        cfg = ConfidenceConfig()
        ysys = yield_bounds(calibration.tally, calibration.scheme, cfg)
        assert ysys.cutoff == cfg.photon_cutoff == 10
        assert ysys.mus == calibration.scheme.mus
        assert all(lo <= hi for lo, hi in zip(ysys.lows, ysys.highs))
        sol = solve_y1_lower(ysys)
        assert sol.feasible
        assert sol.y1_lower == pytest.approx(FROZEN["calibrate.y1_lower"], rel=1e-9)
        assert len(sol.yields) == ysys.cutoff + 1
        assert all(0.0 <= y <= 1.0 for y in sol.yields)
        # the reported minimizer must attain the reported objective
        assert sol.yields[1] == pytest.approx(sol.y1_lower, rel=1e-12)

    def test_matches_reference_lp_solver(self):
        rng = np.random.default_rng(640)
        for _ in range(12):
            ysys, _ = random_constraint_systems(rng, int(rng.integers(2, 6)))
            sol = solve_y1_lower(ysys)
            dim = ysys.cutoff + 1
            w = np.asarray(ysys.weights, float)
            hi = np.asarray(ysys.highs, float)
            lo = np.asarray(ysys.lows, float) - np.asarray(ysys.tails, float)
            c = np.zeros(dim)
            c[1] = 1.0
            ref = linprog(
                c,
                A_ub=np.vstack([w, -w]),
                b_ub=np.concatenate([hi, -lo]),
                bounds=[(0.0, 1.0)] * dim,
                method="highs",
            )
            assert sol.feasible and ref.status == 0
            assert sol.y1_lower == pytest.approx(ref.fun, rel=1e-7, abs=1e-10)

    def test_contradictory_counts_are_infeasible(self):
        # vacuum-dominated level forced high while the bright level is
        # forced low: no yield vector can satisfy both
        ysys = _toy_system(lows=(0.9, 0.0, 0.0), highs=(0.95, 1.0, 0.01))
        sol = solve_y1_lower(ysys)
        assert not sol.feasible
        assert sol.y1_lower == 0.0
        assert sol.yields is None

    def test_floor_shrinks_with_confidence(self, calibration):
        floors = []
        for eps in (1e-3, 1e-5, 1e-7, 1e-9):
            cfg = ConfidenceConfig(epsilon=eps)
            ysys = yield_bounds(calibration.tally, calibration.scheme, cfg)
            floors.append(solve_y1_lower(ysys).y1_lower)
        assert floors == sorted(floors, reverse=True)
        assert floors[-1] > 0.0


def _charnes_cooper_b1(ysys, esys, y1_floor, pin_vacuum=True):
    """Reference route for max e1/y1: normalize by y1 and solve one LP.

    Variables are u = y/y1, v = e/y1 and s = 1/y1; every polytope
    constraint becomes linear after multiplying through by s, and the
    fractional objective becomes plain v1.  The equalities u1 = 1 and,
    with ``pin_vacuum``, v0 = u0/2 go to HiGHS as equality rows.
    """
    dim = ysys.cutoff + 1
    w = np.asarray(ysys.weights, float)
    yhi = np.asarray(ysys.highs, float)
    ylo = np.asarray(ysys.lows, float) - np.asarray(ysys.tails, float)
    ehi = np.asarray(esys.highs, float)
    elo = np.asarray(esys.lows, float) - np.asarray(esys.tails, float)
    n = 2 * dim + 1

    def row(uc=None, vc=None, sc=0.0):
        r = np.zeros(n)
        if uc is not None:
            r[:dim] = uc
        if vc is not None:
            r[dim : 2 * dim] = vc
        r[-1] = sc
        return r

    a_ub, b_ub = [], []
    for j in range(len(ysys.mus)):
        a_ub.append(row(uc=w[j], sc=-yhi[j]))
        a_ub.append(row(uc=-w[j], sc=ylo[j]))
        a_ub.append(row(vc=w[j], sc=-ehi[j]))
        a_ub.append(row(vc=-w[j], sc=elo[j]))
        b_ub += [0.0, 0.0, 0.0, 0.0]
    for k in range(dim):
        unit = np.zeros(dim)
        unit[k] = 1.0
        a_ub.append(row(uc=unit, sc=-1.0))  # y_k <= 1
        a_ub.append(row(uc=-unit, vc=unit))  # e_k <= y_k
        b_ub += [0.0, 0.0]
    a_ub.append(row(sc=1.0))  # y1 >= floor
    b_ub.append(1.0 / y1_floor)

    pin = row(uc=np.array([-0.5] + [0.0] * (dim - 1)), vc=np.array([1.0] + [0.0] * (dim - 1)))
    norm = np.zeros(n)
    norm[1] = 1.0
    c = np.zeros(n)
    c[dim + 1] = -1.0
    a_eq, b_eq = ([pin, norm], [0.0, 1.0]) if pin_vacuum else ([norm], [1.0])
    res = linprog(
        c,
        A_ub=np.array(a_ub),
        b_ub=np.array(b_ub),
        A_eq=np.vstack(a_eq),
        b_eq=b_eq,
        bounds=[(0.0, None)] * n,
        method="highs",
    )
    assert res.status == 0
    return -res.fun


class TestErrorSystem:
    def test_scales_the_yield_intervals(self, calibration):
        cfg = ConfidenceConfig()
        tally = calibration.tally
        ysys = yield_bounds(tally, calibration.scheme, cfg)
        for basis in ("X", "Z"):
            esys = error_bounds(ysys, tally, basis, cfg)
            assert esys == dataclasses.replace(
                ysys, lows=esys.lows, highs=esys.highs, basis=basis
            )
            for level, lo, hi, e_lo, e_hi in zip(
                tally.levels, ysys.lows, ysys.highs, esys.lows, esys.highs
            ):
                r_lo, r_hi = binomial_interval(
                    level.errors[basis], level.sifted[basis], cfg.epsilon
                )
                assert (e_lo, e_hi) == (r_lo * lo, r_hi * hi)

    def test_rejects_an_error_system_or_unknown_basis(self, calibration):
        cfg = ConfidenceConfig()
        ysys = yield_bounds(calibration.tally, calibration.scheme, cfg)
        esys = error_bounds(ysys, calibration.tally, "X", cfg)
        with pytest.raises(ValueError, match="built from a yield system"):
            error_bounds(esys, calibration.tally, "Z", cfg)
        with pytest.raises(ValueError, match="unknown basis"):
            error_bounds(ysys, calibration.tally, "Y", cfg)


class TestTightErrorBound:
    def test_reference_operating_point(self, calibration):
        cfg = ConfidenceConfig()
        ysys = yield_bounds(calibration.tally, calibration.scheme, cfg)
        sol = solve_y1_lower(ysys)
        for basis in ("X", "Z"):
            esys = error_bounds(ysys, calibration.tally, basis, cfg)
            value = b1_tight(ysys, esys, sol.y1_lower)
            assert value == pytest.approx(FROZEN["calibrate.b1_tight"], rel=1e-9)

    def test_matches_fractional_program(self, calibration):
        cfg = ConfidenceConfig()
        ysys = yield_bounds(calibration.tally, calibration.scheme, cfg)
        sol = solve_y1_lower(ysys)
        esys = error_bounds(ysys, calibration.tally, "X", cfg)
        value = b1_tight(ysys, esys, sol.y1_lower)
        reference = _charnes_cooper_b1(ysys, esys, sol.y1_lower)
        assert value == pytest.approx(reference, abs=5e-9)

    def test_matches_fractional_program_on_random_systems(self):
        rng = np.random.default_rng(321)
        checked = 0
        for _ in range(10):
            ysys, esys = random_constraint_systems(rng, 3)
            sol = solve_y1_lower(ysys)
            if not sol.feasible or sol.y1_lower <= 0.0:
                continue
            value = b1_tight(ysys, esys, sol.y1_lower)
            reference = _charnes_cooper_b1(ysys, esys, sol.y1_lower)
            assert value == pytest.approx(reference, abs=5e-9)
            checked += 1
        assert checked >= 6

    def test_never_below_fractional_program_on_random_systems(self):
        # One-sided: an upper bound may sit above the oracle, never below.
        for pin in (True, False):
            rng = np.random.default_rng(321)
            checked = 0
            for cutoff in (3, 4):
                for _ in range(150):
                    ysys, esys = random_constraint_systems(rng, cutoff)
                    sol = solve_y1_lower(ysys)
                    if not sol.feasible or sol.y1_lower <= 0.0:
                        continue
                    value = b1_tight(ysys, esys, sol.y1_lower, pin_vacuum=pin)
                    reference = _charnes_cooper_b1(ysys, esys, sol.y1_lower, pin)
                    assert value is not None
                    assert value >= reference * (1.0 - 1e-6), pin
                    checked += 1
            assert checked >= 200

    def test_one_lp_per_bound(self, calibration, lp_calls):
        cfg = ConfidenceConfig()
        ysys = yield_bounds(calibration.tally, calibration.scheme, cfg)
        esys = error_bounds(ysys, calibration.tally, "X", cfg)
        cases = (
            (ysys, esys, 6.5e-6),  # positive floor
            (*_contradictory_pair(), 0.1),  # infeasible joint system
        )
        for args in cases:
            lp_calls.clear()
            b1_tight(*args)
            assert len(lp_calls) == 1

        lp_calls.clear()
        with pytest.raises(ValueError, match="y1_lower must be > 0"):
            b1_tight(ysys, esys, 0.0)  # vanishing floor: no LP is solved
        assert not lp_calls

        # The y1 floor, then one b1 LP per distinct basis error system: the
        # calibration's expected tally gives both bases the same counts.
        lp_calls.clear()
        compose_session(calibration.tally, calibration.scheme, cfg)
        assert len(lp_calls) == 2

        sampled, scheme = _sampled_session()
        lp_calls.clear()
        compose_session(sampled, scheme, cfg)
        assert len(lp_calls) == 3

    def test_symmetric_tally_reuses_x_bound_for_z(self, calibration, lp_calls):
        tally, scheme = calibration.tally, calibration.scheme
        cfg = ConfidenceConfig()
        for lv in tally.levels:
            assert (lv.errors["X"], lv.sifted["X"]) == (lv.errors["Z"], lv.sifted["Z"])
        bounds = single_photon_bounds(tally, scheme, cfg)
        assert len(lp_calls) == 2
        ysys = yield_bounds(tally, scheme, cfg)
        y1 = solve_y1_lower(ysys).y1_lower
        own_z = b1_tight(ysys, error_bounds(ysys, tally, "Z", cfg), y1)
        worst_z = b1_worst_case(tally, scheme, y1, "Z")
        assert bounds.b1_tight_by_basis["Z"] == min(own_z, worst_z)
        assert bounds.b1_tight_by_basis["Z"] < worst_z  # the LP bound is the one kept
        assert bounds.bounds_consumed == 2 * scheme.n_levels + 4 * scheme.n_levels

    def test_equalities_are_substituted(self, calibration, lp_calls):
        # u1 = 1 and v0 = u0/2 remove columns; neither is a row pair.
        levels = calibration.scheme.n_levels
        for pin in (True, False):
            cfg = ConfidenceConfig(pin_vacuum_errors=pin)
            lp_calls.clear()
            compose_session(calibration.tally, calibration.scheme, cfg)
            dim = cfg.photon_cutoff + 1
            for c, a, b in lp_calls:
                rows = np.hstack([a, np.asarray(b)[:, None]])
                opposed = np.all(rows[:, None, :] == -rows[None, :, :], axis=2)
                assert not opposed.any(), "an equality written as a row pair"
            for c, a, b in lp_calls[1:]:
                assert len(c) == 2 * dim - pin
                assert np.shape(a) == (4 * levels + 2 * dim + 1, len(c))

    def test_systems_of_different_schemes_rejected(self, calibration):
        cfg = ConfidenceConfig()
        ysys = yield_bounds(calibration.tally, calibration.scheme, cfg)
        y1 = solve_y1_lower(ysys).y1_lower
        esys = error_bounds(ysys, calibration.tally, "X", cfg)
        coarse = yield_bounds(
            calibration.tally, calibration.scheme, ConfidenceConfig(photon_cutoff=6)
        )
        other_cutoff = error_bounds(coarse, calibration.tally, "X", cfg)
        other_mus = dataclasses.replace(esys, mus=tuple(2.0 * mu for mu in esys.mus))
        for wrong in (other_cutoff, other_mus):
            with pytest.raises(ValueError, match="describe different schemes"):
                b1_tight(ysys, wrong, y1)

    def test_infeasible_floor_gives_vacuous_bound(self):
        ysys, esys = _contradictory_pair()
        assert b1_tight(ysys, esys, 0.1) is None
        with pytest.raises(ValueError, match="y1_lower must be > 0"):
            b1_tight(ysys, esys, 0.0)

    def test_grows_as_confidence_tightens(self, calibration):
        values = []
        for eps in (1e-3, 1e-5, 1e-7, 1e-9):
            cfg = ConfidenceConfig(epsilon=eps)
            ysys = yield_bounds(calibration.tally, calibration.scheme, cfg)
            sol = solve_y1_lower(ysys)
            esys = error_bounds(ysys, calibration.tally, "X", cfg)
            values.append(b1_tight(ysys, esys, sol.y1_lower))
        assert values == sorted(values)


class TestWorstCaseErrorBound:
    def test_reference_operating_point(self, calibration):
        cfg = ConfidenceConfig()
        ysys = yield_bounds(calibration.tally, calibration.scheme, cfg)
        sol = solve_y1_lower(ysys)
        value = b1_worst_case(calibration.tally, calibration.scheme, sol.y1_lower, "X")
        assert value == pytest.approx(FROZEN["calibrate.b1_worst"], rel=1e-9)

    def test_recomputable_from_tally(self, calibration):
        # worst case charges every observed error to single photons
        tally, scheme = calibration.tally, calibration.scheme
        cfg = ConfidenceConfig()
        y1 = solve_y1_lower(yield_bounds(tally, scheme, cfg)).y1_lower
        for basis in ("X", "Z"):
            errors = sum(level.errors[basis] for level in tally.levels)
            weight = single_photon_sifted_weight(tally, scheme, basis)
            expected = min(1.0, errors / (y1 * weight))
            assert b1_worst_case(tally, scheme, y1, basis) == pytest.approx(
                expected, rel=1e-12
            )

    def test_zero_floor_is_vacuous(self, calibration):
        assert b1_worst_case(calibration.tally, calibration.scheme, 0.0, "X") == 1.0


class TestCombinedBounds:
    def test_composition(self, calibration):
        cfg = ConfidenceConfig()
        bounds = single_photon_bounds(calibration.tally, calibration.scheme, cfg)
        assert bounds.feasible
        assert bounds.y1_lower == pytest.approx(FROZEN["calibrate.y1_lower"], rel=1e-9)
        # population scoped to the keyed signal level
        signal = (calibration.scheme.signal_index,)
        for basis in ("X", "Z"):
            weight = single_photon_sifted_weight(
                calibration.tally, calibration.scheme, basis, signal
            )
            assert bounds.n1_lower_by_basis[basis] == pytest.approx(
                bounds.y1_lower * weight, rel=1e-12
            )
            assert bounds.n1_lower_by_basis[basis] == pytest.approx(
                8225.2182604885, rel=1e-6
            )

    def test_tight_never_exceeds_worst(self, calibration):
        cfg = ConfidenceConfig()
        bounds = single_photon_bounds(calibration.tally, calibration.scheme, cfg)
        for basis in ("X", "Z"):
            assert (
                bounds.b1_tight_by_basis[basis] <= bounds.b1_worst_by_basis[basis]
            )

    def test_zero_floor_takes_worst_case_without_b1_lp(self, lp_calls):
        def level(sent, detected, sifted, errors):
            return LevelCounts(
                sent=sent,
                detected={"X": detected, "Z": detected},
                sifted={"X": sifted, "Z": sifted},
                errors={"X": errors, "Z": errors},
            )

        tally = SessionTally(
            levels=(level(1000, 1, 1, 0), level(2000, 2, 1, 0), level(7000, 10, 5, 1)),
            zeros={"X": 3, "Z": 3},
        )
        bounds = single_photon_bounds(tally, reference_scheme(), ConfidenceConfig())
        assert bounds.feasible
        assert bounds.y1_lower == 0.0
        assert bounds.b1_tight_by_basis == bounds.b1_worst_by_basis == {"X": 1.0, "Z": 1.0}
        assert len(lp_calls) == 1  # the y1 floor only

    def test_bound_budget_accounting(self, calibration):
        cfg = ConfidenceConfig()
        bounds = single_photon_bounds(calibration.tally, calibration.scheme, cfg)
        # two one-sided bounds per level for yields, and per basis for errors
        n_levels = calibration.scheme.n_levels
        assert bounds.bounds_consumed == 2 * n_levels + 4 * n_levels


class TestGridCrossCheck:
    """Spot checks of the LP against a brute-force grid search.

    The full randomized battery lives in the acceptance suite; these keep
    the oracle wired into the fast unit run.
    """

    def test_yield_floor_sandwich(self):
        rng = np.random.default_rng(97)
        for _ in range(3):
            ysys, _ = random_constraint_systems(rng, 2)
            sol = solve_y1_lower(ysys)
            assert sol.feasible
            narrow = grid_y1_minimum(ysys, 20, -1)
            wide = grid_y1_minimum(ysys, 20, +1)
            step = grid_y1_resolution(ysys, 20)
            if narrow is not None:
                assert sol.y1_lower <= narrow + 1e-9
            assert wide is not None
            assert wide <= sol.y1_lower + step

    def test_error_bound_sandwich(self):
        rng = np.random.default_rng(98)
        for _ in range(2):
            ysys, esys = random_constraint_systems(rng, 2)
            sol = solve_y1_lower(ysys)
            if not sol.feasible or sol.y1_lower <= 0.0:
                continue
            value = b1_tight(ysys, esys, sol.y1_lower)
            narrow = grid_b1_maximum(ysys, esys, sol.y1_lower, 20, 40, -1)
            wide = grid_b1_maximum(ysys, esys, sol.y1_lower, 20, 40, +1)
            rho = grid_b1_resolution(ysys, esys, sol.y1_lower, 20, 40, value)
            if narrow is not None:
                assert value >= narrow - 1e-9
            assert wide is not None
            assert value <= wide + rho
