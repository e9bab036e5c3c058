"""Small dense two-phase simplex solver.

The constraint systems produced by the decoy analysis are tiny (tens of
variables and rows), so rather than pulling in an external LP dependency the
pipeline carries its own tableau simplex.  It is deliberately boring:
explicit slack/artificial columns, Dantzig pricing with a Bland fallback for
anti-cycling, and absolute tolerances.

Those tolerances assume O(1) coefficients, which the decoy LPs do not have:
the b1 LP at the reference operating point has weights from 2.6e-33 to 1
and a cap 1/y1 of about 1.5e5.  At cutoffs 6 and 10 the solver sits up to
1.7e-5 relative below a HiGHS oracle on some random systems; which is
right stays open until an exact certificate checks the optimum (ROADMAP
item 1).

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
    a = np.where(neg[:, None], -a, a)
    b = np.where(neg, -b, b)
    # After flipping: original "<=" rows keep slack +1; flipped rows have
    # slack coefficient -1 and need an artificial.
    slack_sign = np.where(neg, -1.0, 1.0)
    art_rows = np.where(neg)[0]
    n_art = len(art_rows)

    # Column layout: [ structural (n) | slacks (m) | artificials (n_art) ]
    width = n + m + n_art
    tab = np.zeros((m, width + 1))
    tab[:, :n] = a
    tab[np.arange(m), n + np.arange(m)] = slack_sign
    for i, row in enumerate(art_rows):
        tab[row, n + m + i] = 1.0
    tab[:, -1] = b

    basis = np.empty(m, dtype=int)
    basis[:] = n + np.arange(m)  # slacks
    for i, row in enumerate(art_rows):
        basis[row] = n + m + i

    if n_art:
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
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tab[i, -1]
    return LPResult("optimal", x, float(c @ x))


def _run_simplex(tab, basis, cost, allow_cols):
    """Run simplex iterations in place.  Returns objective, or None if unbounded."""
    m = tab.shape[0]
    bland = False
    for iteration in range(_MAX_ITER):
        # Reduced costs: r = cost - cost_B . B^-1 A  (tableau is already B^-1 A).
        cb = cost[basis]
        r = cost[:allow_cols] - cb @ tab[:, :allow_cols]
        r[basis[basis < allow_cols]] = 0.0  # exact zeros for basic columns

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
            return None  # unbounded in this direction
        ratios = np.full(m, np.inf)
        ratios[positive] = tab[positive, -1] / column[positive]
        row = int(np.argmin(ratios))
        if bland:
            # Bland tie-break: smallest basis index among minimal ratios.
            best = ratios[row]
            ties = np.where(np.abs(ratios - best) <= 1e-12 * (1.0 + abs(best)))[0]
            row = int(min(ties, key=lambda i: basis[i]))

        _pivot(tab, row, col)
        basis[row] = col

        if iteration == 4 * (tab.shape[1] + m):
            bland = True  # degeneracy suspected; switch to anti-cycling rule
    raise SimplexError("simplex exceeded iteration budget")


def _pivot(tab, row, col):
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    tab[:, col] = 0.0
    tab[row, col] = 1.0


def _evict_artificials(tab, basis, n_real):
    """Pivot any artificial still basic (at zero) onto a real column."""
    m = tab.shape[0]
    for i in range(m):
        if basis[i] >= n_real:
            pivot_col = None
            for j in range(n_real):
                if abs(tab[i, j]) > 1e-9:
                    pivot_col = j
                    break
            if pivot_col is None:
                # Redundant row: zero it out; it can never bind again.
                tab[i, :] = 0.0
                continue
            _pivot(tab, i, pivot_col)
            basis[i] = pivot_col
    # Artificial columns are dead from here on: zero them so they are never
    # priced back in.
    tab[:, n_real:-1] = 0.0
