"""Loss and gradient kernels shared by all solvers.

Hinge loss and the L2-regularized SVM objective with penalty C on the loss
sum (models also carry the strong-convexity modulus lambda of the
equivalent mean-loss form, tied by C = 1/(lambda*N)), the clamped sigmoid
and cross-entropy of the batch-filtering assistant, and finite sums of
quadratics with certified convexity constants for the convergence harness.

All operations are pure given their inputs; models are value types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .dataio import Dataset, SparseInstance

SIGMOID_CLAMP = 1e-9


@dataclass
class PrimalModel:
    """Dense weight vector with the regularization constants of both forms.

    ``lam`` is the strong-convexity modulus of the mean-loss form; ``C`` the
    equivalent per-loss penalty of the sum form.  Both describe the same
    minimizer when C = 1/(lam*N) for the dataset at hand.
    """

    w: np.ndarray
    lam: float
    C: float

    def __post_init__(self) -> None:
        self.w = np.asarray(self.w, dtype=np.float64)
        if self.lam <= 0 or self.C <= 0:
            raise ValueError("lam and C must be positive")

    @classmethod
    def zeros(cls, n_features: int, lam: float, n_instances: int) -> "PrimalModel":
        return cls(w=np.zeros(n_features), lam=lam, C=1.0 / (lam * n_instances))


def _dot(w: np.ndarray, inst: "SparseInstance") -> float:
    if inst.nnz and inst.indices[-1] >= w.shape[0]:
        raise IndexError(
            f"feature index {int(inst.indices[-1])} outside model dimension {w.shape[0]}")
    return float(w[inst.indices] @ inst.values)


def hinge_loss(model: PrimalModel, inst: "SparseInstance") -> float:
    """max(1 - y * w.x, 0); never negative."""
    return max(1.0 - inst.label * _dot(model.w, inst), 0.0)


def svm_objective(model: PrimalModel, dataset: "Dataset") -> float:
    """Exact full objective 0.5*||w||^2 + C * sum_i hinge_i, vectorized."""
    margins = dataset.labels * (dataset.X @ model.w)
    hinge = np.maximum(1.0 - margins, 0.0)
    return 0.5 * float(model.w @ model.w) + model.C * float(hinge.sum())


def sigmoid(z: float | np.ndarray) -> float | np.ndarray:
    z = np.clip(z, -40.0, 40.0)
    return 1.0 / (1.0 + np.exp(-z))


def cross_entropy(p: float, z: int) -> float:
    p = min(max(p, SIGMOID_CLAMP), 1.0 - SIGMOID_CLAMP)
    return -(z * np.log(p) + (1 - z) * np.log(1.0 - p))


@dataclass
class ComponentProblem:
    """Finite sum F(w) = (1/N) sum_i f_i(w) of quadratics f_i(w) =
    (mu/2)||w - c_i||^2 with certified constants.

    mu is the strong-convexity modulus, D the radius of the admissible ball
    containing the minimizer, G a bound on ||grad f_i(w)|| over that ball
    (analytic for this family: mu*(D + max_i ||c_i||)), M the smoothness
    constant (mu for quadratics).
    """

    centers: np.ndarray
    mu: float
    D: float
    G: float
    M: float
    _w_star: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=np.float64))
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        self._w_star = self.centers.mean(axis=0)

    @classmethod
    def from_centers(cls, centers: np.ndarray, mu: float,
                     D: float | None = None) -> "ComponentProblem":
        centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        max_c = float(np.linalg.norm(centers, axis=1).max())
        if D is None:
            D = max_c
        elif D < max_c - 1e-12:
            # The admissible ball must still contain the minimizer; the mean
            # of the centers always lies within max_c of the origin.
            mean_norm = float(np.linalg.norm(centers.mean(axis=0)))
            if D < mean_norm:
                raise ValueError("D too small to contain the minimizer")
        G = mu * (D + max_c)
        return cls(centers=centers, mu=mu, D=float(D), G=G, M=mu)

    @property
    def n(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def w_star(self) -> np.ndarray:
        return self._w_star

    def component_value(self, i: int, w: np.ndarray) -> float:
        d = w - self.centers[i]
        return 0.5 * self.mu * float(d @ d)

    def component_grad(self, i: int, w: np.ndarray) -> np.ndarray:
        return self.mu * (w - self.centers[i])

    def value(self, w: np.ndarray) -> float:
        d = w[None, :] - self.centers
        return 0.5 * self.mu * float(np.mean(np.einsum("ij,ij->i", d, d)))

    def grad(self, w: np.ndarray) -> np.ndarray:
        return self.mu * (w - self._w_star)

    def value_star(self) -> float:
        return self.value(self._w_star)

    def project(self, w: np.ndarray) -> np.ndarray:
        """Projection onto the admissible ball of radius D."""
        nw = float(np.linalg.norm(w))
        if nw > self.D and nw > 0.0:
            return w * (self.D / nw)
        return w
