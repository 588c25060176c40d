"""Loss and gradient kernels shared by all solvers.

Hinge loss and the L2-regularized SVM objective with penalty C on the loss
sum (models also carry the strong-convexity modulus lambda of the
equivalent mean-loss form, tied by C = 1/(lambda*N)), the clamped sigmoid
of the batch-filtering assistant, and finite sums of quadratics with
certified convexity constants for the convergence harness.

All operations are pure given their inputs; models are value types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .dataio import Dataset

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
        # A copy, so steps on the model never write into the caller's array.
        self.w = np.array(self.w, dtype=np.float64)
        if self.lam <= 0 or self.C <= 0:
            raise ValueError("lam and C must be positive")

    @classmethod
    def zeros(cls, n_features: int, lam: float, n_instances: int) -> "PrimalModel":
        return cls(w=np.zeros(n_features), lam=lam, C=1.0 / (lam * n_instances))


def hinge_loss(model: PrimalModel, dataset: "Dataset",
               i: "int | tuple[float, np.ndarray, np.ndarray]") -> float:
    """max(1 - y * w.x, 0) on row i; never negative.

    i is a row index, or the row itself as ``dataset.row`` returns it, for a
    caller that has read the row already and reuses that read.
    """
    w = model.w
    if dataset.n_features > w.shape[0]:
        raise IndexError(f"{dataset.n_features} features outside model dimension {len(w)}")
    y, idx, val = i if isinstance(i, tuple) else dataset.row(i)
    return max(1.0 - y * float(w[idx].dot(val)), 0.0)


def svm_objective(model: PrimalModel, dataset: "Dataset") -> float:
    """Exact full objective 0.5*||w||^2 + C * sum_i hinge_i, vectorized."""
    margins = dataset.labels * (dataset.X @ model.w)
    hinge = np.maximum(1.0 - margins, 0.0)
    return 0.5 * float(model.w @ model.w) + model.C * float(hinge.sum())


def sigmoid(z: float) -> float:
    """Logistic function of one float, with z clamped to [-40, 40].

    np.exp, not math.exp: the two differ in the last bit on a few percent
    of inputs, and the pipeline's outputs are pinned to numpy's exp.
    """
    z = min(max(z, -40.0), 40.0)
    return 1.0 / (1.0 + float(np.exp(-z)))


@dataclass
class ComponentProblem:
    """Finite sum F(w) = (1/N) sum_i f_i(w) of quadratics f_i(w) =
    (mu/2)||w - c_i||^2 with certified constants.

    mu is the strong-convexity modulus (and, for quadratics, the smoothness
    constant too), D the radius of the admissible ball containing the
    minimizer, G a bound on ||grad f_i(w)|| over that ball (analytic for
    this family: mu*(D + max_i ||c_i||)).
    """

    centers: np.ndarray
    mu: float
    D: float
    G: float
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
        return cls(centers=centers, mu=mu, D=float(D), G=G)

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

    def project(self, w: np.ndarray) -> np.ndarray:
        """Projection onto the admissible ball of radius D."""
        nw = float(np.linalg.norm(w))
        if nw > self.D and nw > 0.0:
            return w * (self.D / nw)
        return w
