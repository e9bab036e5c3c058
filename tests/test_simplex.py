"""The simplex pivot loop against a plain reference loop, bit for bit.

``_reference_solve_lp`` is the solver as it stood before its pivot loop
was vectorized: Python loops for the artificial columns, basis entries
and solution read-out, a masked ratio test and ``np.outer`` in the
pivot.  The package's loop must perform the same floating-point
operations in the same order, so every result (status, the solution
vector including signed zeros, and the objective) is compared exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import linprog

from decoyqkd import _simplex
from decoyqkd._simplex import LPResult, SimplexError, solve_lp
from decoyqkd.core import ConfidenceConfig
from decoyqkd.keyrate import compose_session
from decoyqkd.opt import optimize_scheme, range_curve
from decoyqkd.sim import reference_model, reference_scheme, simulate_session

_TOL = 1e-11
_MAX_ITER = 20000
PULSES = 23_836_243_437  # 5.6 h at the reference clock and duty cycle


def _reference_solve_lp(c, a_ub, b_ub) -> LPResult:
    c = np.asarray(c, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    a = np.asarray(a_ub, dtype=float).reshape(len(b), len(c))
    m, n = a.shape

    neg = b < 0
    a = np.where(neg[:, None], -a, a)
    b = np.where(neg, -b, b)
    slack_sign = np.where(neg, -1.0, 1.0)
    art_rows = np.where(neg)[0]
    n_art = len(art_rows)

    width = n + m + n_art
    tab = np.zeros((m, width + 1))
    tab[:, :n] = a
    tab[np.arange(m), n + np.arange(m)] = slack_sign
    for i, row in enumerate(art_rows):
        tab[row, n + m + i] = 1.0
    tab[:, -1] = b

    basis = np.empty(m, dtype=int)
    basis[:] = n + np.arange(m)
    for i, row in enumerate(art_rows):
        basis[row] = n + m + i

    if n_art:
        cost1 = np.zeros(width)
        cost1[n + m :] = 1.0
        val = _reference_run(tab, basis, cost1, allow_cols=width)
        if val is None:
            raise SimplexError("phase 1 exceeded iteration budget")
        if val > 1e-7:
            return LPResult("infeasible", None, None)
        _reference_evict(tab, basis, n + m)

    cost2 = np.zeros(width)
    cost2[:n] = c
    if _reference_run(tab, basis, cost2, allow_cols=n + m) is None:
        return LPResult("unbounded", None, None)

    x = np.zeros(n)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i, -1]
    return LPResult("optimal", x, float(c @ x))


def _reference_run(tab, basis, cost, allow_cols):
    m = tab.shape[0]
    bland = False
    for iteration in range(_MAX_ITER):
        cb = cost[basis]
        r = cost[:allow_cols] - cb @ tab[:, :allow_cols]
        r[basis[basis < allow_cols]] = 0.0

        if bland:
            candidates = np.where(r < -_TOL)[0]
            if candidates.size == 0:
                return float(cb @ tab[:, -1])
            col = int(candidates[0])
        else:
            col = int(np.argmin(r))
            if r[col] >= -_TOL:
                return float(cb @ tab[:, -1])

        column = tab[:, col]
        positive = column > _TOL
        if not np.any(positive):
            return None
        ratios = np.full(m, np.inf)
        ratios[positive] = tab[positive, -1] / column[positive]
        row = int(np.argmin(ratios))
        if bland:
            best = ratios[row]
            ties = np.where(np.abs(ratios - best) <= 1e-12 * (1.0 + abs(best)))[0]
            row = int(min(ties, key=lambda i: basis[i]))

        _reference_pivot(tab, row, col)
        basis[row] = col

        if iteration == 4 * (tab.shape[1] + m):
            bland = True
    raise SimplexError("simplex exceeded iteration budget")


def _reference_pivot(tab, row, col):
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0


def _reference_evict(tab, basis, n_real):
    m = tab.shape[0]
    for i in range(m):
        if basis[i] >= n_real:
            pivot_col = None
            for j in range(n_real):
                if abs(tab[i, j]) > 1e-9:
                    pivot_col = j
                    break
            if pivot_col is None:
                tab[i, :] = 0.0
                continue
            _reference_pivot(tab, i, pivot_col)
            basis[i] = pivot_col
    tab[:, n_real:-1] = 0.0


def _assert_bitwise_equal(c, a, b) -> str:
    mine = solve_lp(c, a, b)
    ref = _reference_solve_lp(c, a, b)
    assert mine.status == ref.status
    if ref.x is None:
        assert mine.x is None and mine.objective is None
    else:
        assert np.array_equal(mine.x, ref.x)
        assert mine.x.tobytes() == ref.x.tobytes()  # signed zeros too
        assert mine.objective == ref.objective
    return ref.status


# Beale's example: Dantzig pricing with first-row ratio ties cycles on it,
# so the loop reaches the Bland switch before it finds the optimum.
BEALE = (
    [-0.75, 20.0, -0.5, 6.0],
    [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]],
    [0.0, 0.0, 1.0],
)


def test_beale_cycle_reaches_bland_rule(monkeypatch):
    pivots = []
    pivot = _simplex._pivot

    def counting_pivot(tab, row, col):
        pivots.append(tab.shape)
        pivot(tab, row, col)

    monkeypatch.setattr(_simplex, "_pivot", counting_pivot)
    assert _assert_bitwise_equal(*BEALE) == "optimal"
    (m, width), = set(pivots)
    assert len(pivots) > 4 * (width + m) + 1  # pivots after the switch


def test_artificial_basic_at_zero_is_pivoted_out(monkeypatch):
    # The two rows are one equality, x1 + x2 = 1.  Phase 1 ends with the
    # flipped row's artificial basic at zero, and it leaves the basis by a
    # pivot onto a real column.  (The redundant-row branch is unreachable:
    # a row whose basic variable is an artificial holds +-1 in the slack
    # column of that artificial's row.)
    basic_artificials = []
    evict = _simplex._evict_artificials

    def recorded(tab, basis, n_real):
        basic_artificials.append(int(np.count_nonzero(basis >= n_real)))
        evict(tab, basis, n_real)
        assert np.all(basis < n_real)

    monkeypatch.setattr(_simplex, "_evict_artificials", recorded)
    c, a, b = [1.0, 2.0], [[1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0]
    assert _assert_bitwise_equal(c, a, b) == "optimal"
    assert basic_artificials == [1]
    result = solve_lp(c, a, b)
    reference = linprog(c, A_ub=a, b_ub=b, method="highs")
    assert reference.status == 0
    assert reference.fun == pytest.approx(1.0)
    assert result.objective == pytest.approx(reference.fun, rel=1e-12)
    assert result.x == pytest.approx(reference.x, abs=1e-12)


def test_basic_artificial_row_holds_minus_one_in_its_slack(monkeypatch):
    # The argument that makes _evict_artificials always find a real pivot
    # column: each artificial's column and its row's slack column stay
    # exact negations, so the row where an artificial is basic holds
    # exactly -1 in that slack's column.
    rng = np.random.default_rng(17)
    evict = _simplex._evict_artificials
    program = {}
    basic_artificials = 0

    def checked(tab, basis, n_real):
        nonlocal basic_artificials
        n = n_real - program["m"]
        for t, row in enumerate(program["art_rows"]):
            assert np.array_equal(tab[:, n + row], -tab[:, n_real + t])
        for i in np.flatnonzero(basis >= n_real):
            assert tab[i, n + program["art_rows"][basis[i] - n_real]] == -1.0
            basic_artificials += 1
        evict(tab, basis, n_real)
        assert np.all(basis < n_real)

    monkeypatch.setattr(_simplex, "_evict_artificials", checked)
    for _ in range(1500):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        a = rng.normal(size=(m, n))
        if rng.random() < 0.5:
            a = np.round(a)
        b = rng.uniform(-1.0, 1.0, size=m)
        b[rng.random(m) < 0.3] = 0.0
        # duplicated and negated rows make equalities, so phase 1 can end
        # with an artificial basic at zero
        pick = rng.integers(0, m, size=int(rng.integers(1, 4)))
        sign = rng.choice([-1.0, 1.0], size=pick.size)
        a = np.vstack([a, sign[:, None] * a[pick]])
        b = np.concatenate([b, sign * b[pick]])
        scale = 10.0 ** rng.choice([-6.0, 0.0, 6.0], size=len(b))
        a, b = a * scale[:, None], b * scale
        program.update(m=len(b), art_rows=np.flatnonzero(b < 0))
        solve_lp(rng.normal(size=n), a, b)
    assert basic_artificials >= 100


def test_basic_columns_stay_exact_unit_vectors(monkeypatch):
    # Why the loop needs no zeroing of the basic columns' reduced costs:
    # the column basic in row i is exactly e_i after every pivot (p / p is
    # 1, x - x * 1 is 0 and x - f * 0 is x), so cost_B . B^-1 A has
    # exactly one nonzero term there and its reduced cost comes out 0.
    rng = np.random.default_rng(29)
    run, pivot = _simplex._run_simplex, _simplex._pivot
    state = {}
    checked = 0

    def check(tab, basis):
        nonlocal checked
        cost, allow = state["cost"], state["allow_cols"]
        assert np.array_equal(tab[:, basis], np.eye(len(basis)))
        r = cost[:allow] - cost[basis] @ tab[:, :allow]
        assert np.all(r[basis[basis < allow]] == 0.0)
        checked += 1

    def recorded_run(tab, basis, cost, allow_cols):
        state.update(basis=basis, cost=cost, allow_cols=allow_cols)
        check(tab, basis)
        return run(tab, basis, cost, allow_cols)

    def checked_pivot(tab, row, col):
        pivot(tab, row, col)
        basis = state["basis"].copy()
        basis[row] = col
        check(tab, basis)

    monkeypatch.setattr(_simplex, "_run_simplex", recorded_run)
    monkeypatch.setattr(_simplex, "_pivot", checked_pivot)
    for _ in range(300):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 9))
        a = rng.normal(size=(m, n))
        if rng.random() < 0.3:
            a = np.round(a)
        b = rng.uniform(-1.0, 2.0, size=m)
        a = np.vstack([a, np.eye(n)])
        b = np.concatenate([b, np.ones(n)])
        solve_lp(rng.normal(size=n), a, b)
    assert checked >= 1000


def test_random_programs_match_reference():
    rng = np.random.default_rng(13)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    phase_one_optimal = 0
    for _ in range(400):
        n = int(rng.integers(1, 8))
        m = int(rng.integers(1, 9))
        a = rng.normal(size=(m, n))
        if rng.random() < 0.3:
            a = np.round(a)  # integer rows make ties and degenerate vertices
        b = rng.uniform(-1.0, 2.0, size=m)
        if rng.random() < 0.2:
            b[rng.random(m) < 0.3] = 0.0
        c = rng.normal(size=n)
        if rng.random() < 0.5:  # a unit box: bounded, so optimal or infeasible
            a = np.vstack([a, np.eye(n)])
            b = np.concatenate([b, np.ones(n)])
        status = _assert_bitwise_equal(c, a, b)
        seen[status] += 1
        phase_one_optimal += status == "optimal" and bool((b < 0).any())
    assert min(seen.values()) >= 20, seen
    assert phase_one_optimal >= 20


def _captured_lps(monkeypatch, run, *args, **kwargs):
    """Every LP that ``run(*args, **kwargs)`` solves, as (c, a_ub, b_ub) copies."""
    calls = []

    def capturing_solve_lp(*lp):
        calls.append(tuple(np.array(arg, dtype=float) for arg in lp))
        return solve_lp(*lp)

    with monkeypatch.context() as patch:
        patch.setattr("decoyqkd.decoy.solve_lp", capturing_solve_lp)
        run(*args, **kwargs)
    return calls


def _compose_lps(monkeypatch, tally, scheme, config):
    return _captured_lps(monkeypatch, compose_session, tally, scheme, config)


CONFIGS = {
    "cutoff 10 pinned": ConfidenceConfig(photon_cutoff=10),
    "cutoff 6 unpinned": ConfidenceConfig(photon_cutoff=6, pin_vacuum_errors=False),
}


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
def test_session_programs_match_reference(monkeypatch, calibration, config):
    scheme = reference_scheme()
    tallies = [(calibration.tally, calibration.scheme)]
    for distance in (25.0, 75.0, 125.0, 150.0):
        tally, _keys = simulate_session(
            reference_model(distance), scheme, 23_836_243_437, seed=1
        )
        tallies.append((tally, scheme))
    lps = [lp for t, s in tallies for lp in _compose_lps(monkeypatch, t, s, config)]
    # The calibration tally is symmetric (2 LPs), each sampled one not (3 LPs).
    assert len(lps) == 2 + 3 * 4
    for c, a, b in lps:
        assert _assert_bitwise_equal(c, a, b) == "optimal"


def test_design_programs_match_reference(monkeypatch):
    # The design tools solve on expected tallies: one scheme search and a
    # fixed-scheme distance grid, every LP held to the reference loop.
    lps = _captured_lps(monkeypatch, optimize_scheme, reference_model(150.0),
                        100 * PULSES, stages=1)
    searched = len(lps)
    lps += _captured_lps(monkeypatch, range_curve, reference_model(), PULSES,
                         [100.0, 124.0, 148.0, 172.0])
    assert (searched, len(lps) - searched) == (54, 2 * 4)
    statuses = [_assert_bitwise_equal(c, a, b) for c, a, b in lps]
    assert statuses.count("optimal") == len(lps)
