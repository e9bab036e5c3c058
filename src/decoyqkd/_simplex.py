"""Small dense two-phase simplex solver.

The constraint systems produced by the decoy analysis are tiny (tens of
variables and rows), so rather than pulling in an external LP dependency the
pipeline carries its own tableau simplex.  It is deliberately boring:
explicit slack/artificial columns, Dantzig pricing with a Bland fallback for
anti-cycling, and absolute tolerances.  The pivot loop works on hoisted
views of the tableau and a few whole-array numpy calls per pivot, but
keeps the floating-point operations, and their order, of the plain
loop it replaced, so every solution is bit-identical to that loop's
(``tests/test_simplex.py`` holds it as the oracle).  From pivot to pivot
it keeps the basic costs ``cb`` (one entry changes per pivot) and one
ratio buffer.  It does not zero the basic columns' reduced costs: each
basic column stays an exact unit vector, so its reduced cost comes out
exactly 0.  The reduced costs stay one ``cb @ tab[:, :allow_cols]``
product over the same columns, because OpenBLAS's gemv sums a column in
an order that depends on the column count (not on the row stride).

The entering column is an unbounded direction when its ratio test finds
no row: every ratio rhs / column over its entries above the tolerance is
infinite.  For finite ratios that is "no entry above the tolerance".

Those tolerances assume O(1) coefficients, which the decoy LPs do not have:
the b1 LP at the reference operating point has weights from 2.6e-33 to 1
and a cap 1/y1 of about 1.5e5.  At cutoffs 6 and 10 the solver sits up to
1.7e-5 relative below a HiGHS oracle on some random systems; which is
right stays open until an exact certificate checks the optimum (the open
``FOUND:`` line on this gap in CHANGES.md).

Problems are stated in one form only,

    minimize c.x  subject to  a_ub @ x <= b_ub,  x >= 0,

with ``b_ub`` of any sign.  Callers write variable bounds as rows and
substitute equalities into their columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LPResult", "solve_lp", "SimplexError"]

_TOL = 1e-11
_MAX_ITER = 20000


class SimplexError(RuntimeError):
    """Raised when the solver exceeds its iteration budget (never expected)."""


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


def solve_lp(c, a_ub, b_ub) -> LPResult:
    """Minimize ``c.x`` s.t. ``a_ub @ x <= b_ub`` and ``x >= 0``.

    Parameters
    ----------
    c : array-like, shape (n,)
    a_ub : array-like, shape (m, n)
    b_ub : array-like, shape (m,)
    """
    c = np.asarray(c, dtype=float)
    b = np.asarray(b_ub, dtype=float)
    a = np.asarray(a_ub, dtype=float).reshape(len(b), len(c))
    m, n = a.shape

    # Orient rows so the right-hand side is nonnegative; rows flipped this
    # way lose their identity slack and get an artificial instead.
    neg = b < 0
    # After flipping: original "<=" rows keep slack +1; flipped rows have
    # slack coefficient -1 and need an artificial.
    slack_sign = np.where(neg, -1.0, 1.0)
    art_rows = np.flatnonzero(neg)
    n_art = art_rows.size

    # Column layout: [ structural (n) | slacks (m) | artificials (n_art) ]
    width = n + m + n_art
    tab = np.zeros((m, width + 1))
    np.multiply(a, slack_sign[:, None], out=tab[:, :n])  # exact negation where flipped
    tab.reshape(-1)[n :: width + 2] = slack_sign  # the slacks' diagonal, (i, n + i)
    np.multiply(b, slack_sign, out=tab[:, -1])
    basis = np.arange(n, n + m)  # slacks

    if n_art:
        artificials = np.arange(n + m, width)
        tab[art_rows, artificials] = 1.0
        basis[art_rows] = artificials
        # Phase 1: minimize the sum of artificials.
        cost1 = np.zeros(width)
        cost1[n + m :] = 1.0
        val = _run_simplex(tab, basis, cost1, allow_cols=width)
        if val is None:
            raise SimplexError("phase 1 exceeded iteration budget")
        if val > 1e-7:
            return LPResult("infeasible", None, None)
        _evict_artificials(tab, basis, n + m)

    cost2 = np.zeros(width)
    cost2[:n] = c
    if _run_simplex(tab, basis, cost2, allow_cols=n + m) is None:
        return LPResult("unbounded", None, None)

    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = tab[structural, -1]
    return LPResult("optimal", x, float(c @ x))


def _run_simplex(tab, basis, cost, allow_cols):
    """Run simplex iterations in place.  Returns objective, or None if unbounded."""
    m = tab.shape[0]
    priced = tab[:, :allow_cols]
    cost_priced = cost[:allow_cols]
    rhs = tab[:, -1]
    cb = cost[basis]
    ratios = np.empty(m)
    bland = False
    for iteration in range(_MAX_ITER):
        # Reduced costs: r = cost - cost_B . B^-1 A  (tableau is already B^-1 A).
        # Basic columns are exact unit vectors, so theirs come out exactly 0.
        r = cost_priced - cb @ priced

        if bland:
            candidates = np.flatnonzero(r < -_TOL)
            if candidates.size == 0:
                return float(cb @ rhs)
            col = int(candidates[0])
        else:
            col = int(r.argmin())
            if r[col] >= -_TOL:
                return float(cb @ rhs)

        column = tab[:, col]
        ratios.fill(np.inf)
        np.divide(rhs, column, out=ratios, where=column > _TOL)
        row = int(ratios.argmin())
        if ratios[row] == np.inf:
            return None  # no row bounds the step: unbounded in this direction
        if bland:
            # Bland tie-break: smallest basis index among minimal ratios.
            best = ratios[row]
            ties = np.flatnonzero(np.abs(ratios - best) <= 1e-12 * (1.0 + abs(best)))
            row = int(ties[basis[ties].argmin()])

        _pivot(tab, row, col)
        basis[row] = col
        cb[row] = cost[col]

        if iteration == 4 * (tab.shape[1] + m):
            bland = True  # degeneracy suspected; switch to anti-cycling rule
    raise SimplexError("simplex exceeded iteration budget")


def _pivot(tab, row, col):
    # The update itself leaves column ``col`` the exact unit vector: p / p
    # is 1, each other row gets f - f * 1 = +0 and the pivot row 1 - 0.
    pivot_row = tab[row]
    pivot_row /= pivot_row[col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= factors[:, None] * pivot_row


def _evict_artificials(tab, basis, n_real):
    """Pivot any artificial still basic (at zero) onto a real column.

    A real column always qualifies.  In a flipped row the slack column
    starts as the exact negation of the artificial's column, and
    ``_pivot``'s divide and ``x - f*y`` steps are sign-symmetric in IEEE
    arithmetic, so the two columns stay exact negations through every
    pivot.  The row where an artificial is basic, where its own column
    holds 1, thus holds exactly -1 in its slack's column, and the
    ``> 1e-9`` scan stops at that column at the latest.
    """
    for i in np.flatnonzero(basis >= n_real):  # a pivot in row i moves basis[i] alone
        pivot_col = int(np.flatnonzero(np.abs(tab[i, :n_real]) > 1e-9)[0])
        _pivot(tab, i, pivot_col)
        basis[i] = pivot_col
    # Artificial columns are dead from here on: zero them so they are never
    # priced back in.
    tab[:, n_real:-1] = 0.0
