"""Dual coordinate descent for the linear SVM with active-set shrinking.

Solves min_alpha 0.5 alpha' Q alpha - sum(alpha) s.t. 0 <= alpha_i <= C,
Q_ij = y_i y_j x_i . x_j, without ever materializing Q: the primal vector
w = sum_j alpha_j y_j x_j is maintained incrementally, so each coordinate
gradient is y_i w.x_i - 1 at sparse cost, and alpha' Q alpha = ||w||^2.

Coordinates pinned at a bound with a gradient pushing further out are
moved to a shrunk set and skipped in later sweeps.  Convergence is only
declared after a verification sweep over the full index set with the
shrunk set cleared, so shrinking can change the work done but never the
answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dataio import Dataset
from .linear_models import PrimalModel, svm_objective


@dataclass
class DualState:
    """Box-constrained dual iterate plus the maintained primal vector."""

    alpha: np.ndarray
    w: np.ndarray
    qdiag: np.ndarray
    C: float
    active: np.ndarray          # bool mask, True = still swept
    n_zero_diag: int = 0        # coordinates with no features, never swept

    @classmethod
    def init(cls, dataset: Dataset, C: float) -> DualState:
        if C <= 0:
            raise ValueError("C must be > 0")
        n = len(dataset)
        qdiag = dataset.norms_sq.copy()
        active = qdiag > 0.0
        return cls(alpha=np.zeros(n), w=np.zeros(dataset.n_features),
                   qdiag=qdiag, C=C, active=active,
                   n_zero_diag=int(n - active.sum()))

    def recompute_w(self, dataset: Dataset) -> np.ndarray:
        """Sum alpha_j y_j x_j from scratch, for consistency checks."""
        return dataset.X.T @ (self.alpha * dataset.labels)

    def dual_objective(self) -> float:
        return 0.5 * float(self.w @ self.w) - float(self.alpha.sum())


@dataclass
class SolveResult:
    state: DualState
    curve: list[tuple[int, int, float, float, int]] = field(default_factory=list)
    # curve rows: (n_updates, n_evals, elapsed_s, dual_objective, n_active)
    converged: bool = False
    n_sweeps: int = 0
    n_updates: int = 0
    n_evals: int = 0
    # Indices the heuristic had pinned when the tolerance test last passed
    # (just before the verification sweep).  None when shrinking is off.
    shrunk_at_convergence: np.ndarray | None = None

    def primal_model(self, dataset: Dataset) -> PrimalModel:
        lam = 1.0 / (self.state.C * len(dataset))
        return PrimalModel(w=self.state.w, lam=lam, C=self.state.C)


def coordinate_gradient(state: DualState, dataset: Dataset, i: int) -> float:
    inst = dataset.instances[i]
    return inst.label * float(state.w[inst.indices] @ inst.values) - 1.0


def projected_gradient(alpha_i: float, grad: float, C: float) -> float:
    """Gradient with the components blocked by the box zeroed out."""
    if alpha_i <= 0.0:
        return min(grad, 0.0)
    if alpha_i >= C:
        return max(grad, 0.0)
    return grad


def _shrink_candidate(alpha_i: float, grad: float, C: float, eps: float) -> bool:
    """True when the coordinate sits at a bound the gradient keeps pushing
    into: alpha = 0 with grad > eps, or alpha = C with grad < -eps."""
    if alpha_i <= 0.0:
        return grad > eps
    if alpha_i >= C:
        return grad < -eps
    return False


def solve(dataset: Dataset, C: float, tol: float = 1e-4, max_epochs: int = 1000,
          use_shrinking: bool = True, eps_shrink: float = 0.1,
          seed: int = 0) -> SolveResult:
    """Random-permutation coordinate sweeps until the max projected gradient
    over the active set drops below tol.

    With shrinking, bound-pinned coordinates collected during a sweep are
    deactivated after it.  Once the active set passes the tol test, all
    coordinates are reactivated and one verification sweep must pass the
    same test before convergence is declared; otherwise sweeps resume on
    the full set.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    t0 = time.perf_counter()
    state = DualState.init(dataset, C)
    rng = np.random.default_rng(seed)
    result = SolveResult(state=state)
    n = len(dataset)
    verifying = False

    for _ in range(max_epochs):
        idx = np.flatnonzero(state.active)
        if idx.size == 0:
            if use_shrinking and not verifying:
                # Everything pinned by the heuristic: verify before trusting it.
                result.shrunk_at_convergence = np.flatnonzero(
                    ~state.active & (state.qdiag > 0.0))
                state.active = state.qdiag > 0.0
                verifying = True
                continue
            result.converged = True
            break
        order = idx[rng.permutation(idx.size)]
        max_pg = 0.0
        to_shrink: list[int] = []
        for i in order:
            i = int(i)
            grad = coordinate_gradient(state, dataset, i)
            result.n_evals += 1
            alpha_i = state.alpha[i]
            if use_shrinking and not verifying and _shrink_candidate(
                    alpha_i, grad, state.C, eps_shrink):
                to_shrink.append(i)
                continue
            pg = projected_gradient(alpha_i, grad, state.C)
            max_pg = max(max_pg, abs(pg))
            if pg != 0.0:
                new = min(max(alpha_i - grad / state.qdiag[i], 0.0), state.C)
                delta = new - alpha_i
                if delta != 0.0:
                    state.alpha[i] = new
                    inst = dataset.instances[i]
                    state.w[inst.indices] += (delta * inst.label) * inst.values
                    result.n_updates += 1
        for i in to_shrink:
            state.active[i] = False
        result.n_sweeps += 1
        result.curve.append((result.n_updates, result.n_evals,
                             time.perf_counter() - t0,
                             state.dual_objective(),
                             int(state.active.sum())))
        if max_pg < tol:
            if verifying or not use_shrinking:
                result.converged = True
                break
            # Certify on the full set, not just the survivors.
            result.shrunk_at_convergence = np.flatnonzero(
                ~state.active & (state.qdiag > 0.0))
            state.active = state.qdiag > 0.0
            verifying = True
        elif verifying:
            verifying = False
    return result


def duality_gap(result: SolveResult, dataset: Dataset) -> float:
    """Primal objective minus the (negated, max-form) dual objective."""
    primal = svm_objective(result.primal_model(dataset), dataset)
    return primal - (-result.state.dual_objective())
