"""Dual coordinate descent for the linear SVM with active-set shrinking.

Solves min_alpha 0.5 alpha' Q alpha - sum(alpha) s.t. 0 <= alpha_i <= C,
Q_ij = y_i y_j x_i . x_j, without ever materializing Q: the primal vector
w = sum_j alpha_j y_j x_j is maintained incrementally, so each coordinate
gradient is y_i w.x_i - 1 at sparse cost, and alpha' Q alpha = ||w||^2.

A row without features has Q_ii = 0 and a dual gradient of -1 whatever
alpha is, so its coordinate starts at C, its optimum, and is never swept.

Coordinates pinned at a bound with a gradient pushing further out are
moved to a shrunk set and skipped in later sweeps.  When a sweep over the
active set passes the tolerance test, one vectorized KKT pass computes
every gradient, G = y * (X w) - 1, at the point about to be returned: a
sweep judges each coordinate before the later updates of that sweep, so
its own test does not judge the returned point, shrunk or not.
Convergence is declared only when the max projected gradient over all
rows with features is below tol.  Otherwise sweeps resume: with shrinking,
over every coordinate the shrink rule would not pin at G; without it,
over every row with features.  So shrinking can change the work done but
never the optimality test the answer passes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dataio import Dataset
from .linear_models import PrimalModel


@dataclass
class DualState:
    """Box-constrained dual iterate plus the maintained primal vector."""

    alpha: np.ndarray
    w: np.ndarray
    qdiag: np.ndarray
    C: float
    active: np.ndarray          # bool mask, True = still swept
    n_zero_diag: int = 0        # coordinates with no features, at C, never swept

    @classmethod
    def init(cls, dataset: Dataset, C: float) -> DualState:
        if C <= 0:
            raise ValueError("C must be > 0")
        qdiag = dataset.norms_sq.copy()
        active = qdiag > 0.0
        return cls(alpha=np.where(active, 0.0, C), w=np.zeros(dataset.n_features),
                   qdiag=qdiag, C=C, active=active,
                   n_zero_diag=int(active.size - active.sum()))

    def dual_objective(self) -> float:
        return 0.5 * float(self.w @ self.w) - float(self.alpha.sum())


@dataclass
class SolveResult:
    state: DualState
    curve: list[tuple[int, int, float, float, int, float]] = field(
        default_factory=list)
    # curve rows: (n_updates, n_evals, elapsed_s, dual_objective, n_active,
    # max_pg), one per sweep and one per KKT check; max_pg is the sweep's
    # max |projected gradient| over the coordinates it judged, or the
    # check's over all rows with features
    converged: bool = False
    n_sweeps: int = 0
    n_updates: int = 0
    n_evals: int = 0
    n_failed_checks: int = 0
    # Indices the heuristic had pinned when the tolerance test last passed
    # (the set the KKT check judged).  None when shrinking is off.
    shrunk_at_convergence: np.ndarray | None = None

    def primal_model(self, dataset: Dataset) -> PrimalModel:
        lam = 1.0 / (self.state.C * len(dataset))
        return PrimalModel(w=self.state.w, lam=lam, C=self.state.C)


def coordinate_gradient(w: np.ndarray, row: tuple[float, np.ndarray, np.ndarray]) -> float:
    """y * w.x - 1 for a row as ``Dataset.row`` returns it."""
    y, idx, val = row
    return y * float(w[idx].dot(val)) - 1.0


def projected_gradient(alpha_i: float, grad: float, C: float) -> float:
    """Gradient with the components blocked by the box zeroed out."""
    if alpha_i <= 0.0:
        return min(grad, 0.0)
    if alpha_i >= C:
        return max(grad, 0.0)
    return grad


def projected_gradients(alpha: np.ndarray, grad: np.ndarray,
                        C: float) -> np.ndarray:
    """Array form of projected_gradient."""
    return np.where(alpha <= 0.0, np.minimum(grad, 0.0),
                    np.where(alpha >= C, np.maximum(grad, 0.0), grad))


def _shrink_candidate(alpha_i: float, grad: float, C: float, eps: float) -> bool:
    """True when the coordinate sits at a bound the gradient keeps pushing
    into: alpha = 0 with grad > eps, or alpha = C with grad < -eps."""
    if alpha_i <= 0.0:
        return grad > eps
    if alpha_i >= C:
        return grad < -eps
    return False


def _shrink_candidates(alpha: np.ndarray, grad: np.ndarray, C: float,
                       eps: float) -> np.ndarray:
    """Array form of _shrink_candidate."""
    return np.where(alpha <= 0.0, grad > eps, (alpha >= C) & (grad < -eps))


def solve(dataset: Dataset, C: float, tol: float = 1e-4, max_epochs: int = 1000,
          use_shrinking: bool = True, eps_shrink: float = 0.1,
          seed: int = 0) -> SolveResult:
    """Random-permutation coordinate sweeps until the max projected gradient
    over the active set drops below tol.

    With shrinking, bound-pinned coordinates collected during a sweep are
    deactivated after it.  Once the active set passes the tol test, one KKT
    pass judges every row with features at the current point: below tol it
    converges.  Otherwise sweeps resume, and with shrinking the active set
    becomes the rows the shrink rule would not pin there.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    t0 = time.perf_counter()
    state = DualState.init(dataset, C)
    rng = np.random.default_rng(seed)
    result = SolveResult(state=state)
    alpha, w, qdiag = state.alpha, state.w, state.qdiag
    has_features = qdiag > 0.0
    qd = qdiag.tolist()     # Python floats: scalar arithmetic beats numpy scalars

    def record(max_pg: float) -> None:
        result.curve.append((result.n_updates, result.n_evals,
                             time.perf_counter() - t0,
                             state.dual_objective(),
                             int(state.active.sum()), max_pg))

    for _ in range(max_epochs):
        idx = np.flatnonzero(state.active)
        max_pg = 0.0
        to_shrink: list[int] = []
        for i in idx[rng.permutation(idx.size)].tolist():
            row = dataset.row(i)
            grad = coordinate_gradient(w, row)
            alpha_i = alpha.item(i)
            if use_shrinking and _shrink_candidate(alpha_i, grad, C, eps_shrink):
                to_shrink.append(i)
                continue
            pg = projected_gradient(alpha_i, grad, C)
            max_pg = max(max_pg, abs(pg))
            if pg != 0.0:
                new = min(max(alpha_i - grad / qd[i], 0.0), C)
                delta = new - alpha_i
                if delta != 0.0:
                    alpha[i] = new
                    y, cols, vals = row
                    w[cols] += (delta * y) * vals
                    result.n_updates += 1
        result.n_evals += idx.size
        state.active[to_shrink] = False
        result.n_sweeps += 1
        record(max_pg)
        if max_pg >= tol:
            continue
        if use_shrinking:
            result.shrunk_at_convergence = np.flatnonzero(has_features & ~state.active)
        # KKT check at the point being returned, over every coordinate
        grad_all = dataset.labels * (dataset.X @ w) - 1.0
        result.n_evals += len(dataset)
        pg_all = np.abs(projected_gradients(alpha, grad_all, C))[has_features]
        kkt = float(pg_all.max(initial=0.0))
        if kkt < tol:
            record(kkt)
            result.converged = True
            break
        result.n_failed_checks += 1
        if use_shrinking:
            state.active = has_features & ~_shrink_candidates(alpha, grad_all, C,
                                                              eps_shrink)
        record(kkt)
    return result
