"""In-house dense two-phase simplex solver.

The paper computed its upper bounds with the commercial Lingo 9.0
package.  The primary replacement in this library is HiGHS (via
scipy), but to keep the substrate fully self-contained we also provide
a from-scratch simplex implementation: a classic two-phase tableau
method with Bland's anti-cycling rule, operating on dense arrays.

It is intended for *small* instances (unit tests, didactic use, and
cross-validation of the HiGHS path); :func:`solve_dense_lp` refuses
problems above a size guard rather than grinding.

Standard-form reduction
-----------------------
:class:`~repro.lp.formulation.LPProblem` is a maximization over
variables with box bounds.  We reduce to ``min ĉ·w, Â w = b̂, w ≥ 0``:

* bounded variables ``0 ≤ v ≤ u`` keep their lower bound and gain a slack
  row ``v + s = u``;
* upper-bounded-only variables ``v ≤ u`` substitute ``w = u - v ≥ 0``;
* fully free variables split ``v = w⁺ - w⁻``;
* every ``≤`` row gains a slack variable;
* rows with negative right-hand side are negated;
* phase 1 introduces artificial variables and minimizes their sum;
  phase 2 minimizes the (negated) original objective from the feasible
  basis found.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.exceptions import SolverError
from ..core.numeric import is_zero
from .formulation import LPProblem

__all__ = ["simplex_min", "solve_dense_lp", "SimplexResult", "SIZE_GUARD"]

#: Maximum variable count :func:`solve_dense_lp` accepts.
SIZE_GUARD = 3_000

_EPS = 1e-9


@dataclass
class SimplexResult:
    """Raw outcome of :func:`simplex_min`."""

    x: np.ndarray
    objective: float
    iterations: int


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """In-place tableau pivot on (row, col)."""
    T[row] /= T[row, col]
    pivot_col = T[:, col].copy()
    pivot_col[row] = 0.0
    # Rank-1 update of all other rows (vectorized — the O(mn) kernel).
    T -= np.outer(pivot_col, T[row])
    basis[row] = col


def _run_phase(
    T: np.ndarray, basis: np.ndarray, n_cols: int, max_iter: int
) -> int:
    """Iterate pivots until optimality; returns iteration count.

    ``T`` is the tableau with the objective in the last row and RHS in
    the last column.  Bland's rule: entering variable = lowest-index
    column with negative reduced cost; leaving row = min-ratio with
    lowest basis index tie-break.
    """
    iterations = 0
    m = T.shape[0] - 1
    while True:
        reduced = T[-1, :n_cols]
        entering_candidates = np.flatnonzero(reduced < -_EPS)
        if entering_candidates.size == 0:
            return iterations
        col = int(entering_candidates[0])  # Bland: smallest index
        column = T[:m, col]
        positive = column > _EPS
        if not positive.any():
            raise SolverError("LP is unbounded")
        ratios = np.full(m, np.inf)
        ratios[positive] = T[:m, -1][positive] / column[positive]
        best = ratios.min()
        ties = np.flatnonzero(ratios <= best + _EPS)
        row = int(ties[np.argmin(basis[ties])])  # Bland tie-break
        _pivot(T, basis, row, col)
        iterations += 1
        if iterations > max_iter:
            raise SolverError(
                f"simplex exceeded {max_iter} iterations (cycling guard)"
            )


def simplex_min(
    A: np.ndarray, b: np.ndarray, c: np.ndarray, max_iter: int | None = None
) -> SimplexResult:
    """Two-phase simplex: ``min c·x`` s.t. ``A x = b``, ``x ≥ 0``.

    Raises :class:`~repro.core.exceptions.SolverError` when the problem
    is infeasible or unbounded.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).copy()
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise SolverError("inconsistent LP dimensions")
    if max_iter is None:
        max_iter = 50 * (m + n) + 1_000

    A = A.copy()
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0

    # ---- phase 1 ------------------------------------------------------------
    # Tableau columns: [original n | artificial m | rhs]
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    basis = np.arange(n, n + m)
    # Phase-1 objective: minimize sum of artificials -> reduced costs.
    T[-1, :n] = -A.sum(axis=0)
    T[-1, -1] = -b.sum()
    it1 = _run_phase(T, basis, n + m, max_iter)
    if T[-1, -1] < -1e-7:
        raise SolverError("LP is infeasible")

    # Drive any artificial variables out of the basis (degenerate case).
    for row in range(m):
        if basis[row] >= n:
            pivot_cols = np.flatnonzero(np.abs(T[row, :n]) > _EPS)
            if pivot_cols.size:
                _pivot(T, basis, row, int(pivot_cols[0]))
            # else: redundant row; the artificial stays basic at 0.

    # ---- phase 2 ------------------------------------------------------------
    T2 = np.zeros((m + 1, n + 1))
    T2[:m, :n] = T[:m, :n]
    T2[:m, -1] = T[:m, -1]
    T2[-1, :n] = c
    # Make reduced costs consistent with the current basis.
    for row in range(m):
        col = basis[row]
        if col < n and abs(T2[-1, col]) > 0:
            T2[-1] -= T2[-1, col] * T2[row]
    # Lock out any still-basic artificials by forbidding their columns
    # (they are absent from T2 entirely, so nothing to do).
    it2 = _run_phase(T2, basis, n, max_iter)

    x = np.zeros(n)
    for row in range(m):
        if basis[row] < n:
            x[basis[row]] = T2[row, -1]
    return SimplexResult(x=x, objective=float(c @ x), iterations=it1 + it2)


def _standardize(
    problem: LPProblem,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Reduce an :class:`LPProblem` to ``min c·w, A w = b, w ≥ 0``.

    Returns ``(A, b, c, recover)`` where ``recover`` maps a standard-form
    solution back to the original variable vector.
    """
    n = problem.n_vars
    A_ub = problem.A_ub.toarray() if problem.A_ub.shape[0] else np.zeros((0, n))
    A_eq = problem.A_eq.toarray() if problem.A_eq.shape[0] else np.zeros((0, n))
    b_ub = np.asarray(problem.b_ub, dtype=float)
    b_eq = np.asarray(problem.b_eq, dtype=float)
    c_max = np.asarray(problem.c, dtype=float)

    # Per-variable transform: v = scale * w_primary (+ offset) [+ -w_secondary]
    cols: list[np.ndarray] = []       # coefficient columns in (ub; eq) rows
    costs: list[float] = []
    recover_terms: list[tuple[int, float]] = []  # (std col, scale) per var
    offsets = np.zeros(n)
    extra_rows: list[np.ndarray] = []
    extra_rhs: list[float] = []

    stacked = np.vstack([A_ub, A_eq]) if (A_ub.size or A_eq.size) else np.zeros((0, n))
    n_ub = A_ub.shape[0]

    std_cols: list[tuple[int, float]] = []
    col_count = 0
    col_map: list[list[tuple[int, float]]] = []
    for v in range(n):
        lo, hi = problem.bounds[v]
        terms: list[tuple[int, float]] = []
        if lo is not None and is_zero(lo):
            terms.append((col_count, 1.0))
            col_count += 1
            if hi is not None:
                # v <= hi becomes an extra ≤ row handled below via slack.
                row = np.zeros(n)
                row[v] = 1.0
                extra_rows.append(row)
                extra_rhs.append(float(hi))
        elif lo is None and hi is not None:
            # v = hi - w, w >= 0
            offsets[v] = float(hi)
            terms.append((col_count, -1.0))
            col_count += 1
        elif lo is None and hi is None:
            terms.append((col_count, 1.0))
            terms.append((col_count + 1, -1.0))
            col_count += 2
        else:
            # general finite lower bound: shift v = lo + w
            offsets[v] = float(lo)
            terms.append((col_count, 1.0))
            col_count += 1
            if hi is not None:
                row = np.zeros(n)
                row[v] = 1.0
                extra_rows.append(row)
                extra_rhs.append(float(hi))
        col_map.append(terms)

    all_ub = np.vstack([A_ub] + [r[None, :] for r in extra_rows]) if (
        A_ub.size or extra_rows
    ) else np.zeros((0, n))
    all_b_ub = np.concatenate([b_ub, np.asarray(extra_rhs)]) if (
        b_ub.size or extra_rhs
    ) else np.zeros(0)
    m_ub = all_ub.shape[0]
    m_eq = A_eq.shape[0]
    m = m_ub + m_eq
    n_std = col_count + m_ub  # + one slack per ≤ row

    A = np.zeros((m, n_std))
    b = np.zeros(m)
    c = np.zeros(n_std)
    orig = np.vstack([all_ub, A_eq]) if m else np.zeros((0, n))
    rhs = np.concatenate([all_b_ub, b_eq]) if m else np.zeros(0)

    for v in range(n):
        col_orig = orig[:, v] if m else np.zeros(0)
        for std_col, scale in col_map[v]:
            A[:, std_col] += scale * col_orig
            c[std_col] += -scale * c_max[v]  # minimize -c_max·v
    # constant offsets move to the RHS
    if m:
        rhs = rhs - orig @ offsets
    b[:] = rhs
    for r in range(m_ub):
        A[r, col_count + r] = 1.0

    def recover(w: np.ndarray) -> np.ndarray:
        v = offsets.copy()
        for vi in range(n):
            for std_col, scale in col_map[vi]:
                v[vi] += scale * w[std_col]
        return v

    return A, b, c, recover


def solve_dense_lp(problem: LPProblem) -> np.ndarray:
    """Solve a (small) :class:`LPProblem` with the in-house simplex.

    Raises :class:`SolverError` for problems larger than
    :data:`SIZE_GUARD` variables — use HiGHS for those.
    """
    if problem.n_vars > SIZE_GUARD:
        raise SolverError(
            f"{problem.n_vars} variables exceed the dense-simplex guard "
            f"({SIZE_GUARD}); use HiGHS (repro.lp.solve_lp)"
        )
    A, b, c, recover = _standardize(problem)
    result = simplex_min(A, b, c)
    return recover(result.x)
