"""Dataset loading and synthetic problem generators.

The on-disk format is libsvm text: one instance per line,

    <label> <index>:<value> <index>:<value> ...

with whitespace separation, a label of +1 or -1, 1-based strictly
increasing feature indices and ``#`` starting a comment that runs to the
end of the line.  Indices are shifted to 0-based in memory so dense weight
vectors index naturally; serialization shifts back.  Files ending in
``.gz`` are transparently decompressed.

Synthetic generators produce (a) linearly separable SVM data with optional
label noise and (b) finite sums of quadratics with known minimizer and
certified constants, both pure functions of their arguments including the
seed.
"""

from __future__ import annotations

import gzip
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .linear_models import ComponentProblem


class ParseError(ValueError):
    """Malformed libsvm input; message carries the 1-based line number."""


@dataclass
class SparseInstance:
    """One labeled example with a sparse feature vector.

    ``indices`` are 0-based, strictly increasing; ``norm_sq`` caches
    ``sum(values**2)`` because the dual solver needs it per coordinate
    update.  Treated as immutable after construction.
    """

    label: float
    indices: np.ndarray
    values: np.ndarray
    norm_sq: float = field(default=-1.0)

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.indices.shape != self.values.shape:
            raise ValueError("indices and values must have equal length")
        if self.indices.size:
            if self.indices[0] < 0:
                raise ValueError("feature indices must be >= 0")
            if np.any(np.diff(self.indices) <= 0):
                raise ValueError("feature indices must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature values must be finite")
        if self.norm_sq < 0.0:
            self.norm_sq = float(self.values @ self.values)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


class Dataset:
    """An in-memory list of +1/-1 labeled instances plus cached label,
    squared-norm and CSR arrays.

    Immutable after construction; safe to share read-only across workers.
    """

    def __init__(self, instances: list[SparseInstance], n_features: int | None = None,
                 name: str = ""):
        if not instances:
            raise ValueError("empty dataset")
        max_idx = max((int(inst.indices[-1]) for inst in instances if inst.nnz), default=-1)
        if n_features is None:
            n_features = max_idx + 1
        elif n_features < max_idx + 1:
            raise ValueError("n_features smaller than largest feature index")
        self.instances = instances
        self.n_features = int(n_features)
        self.name = name
        self._labels: np.ndarray | None = None
        self._norms_sq: np.ndarray | None = None
        self._X: sp.csr_matrix | None = None
        bad = np.flatnonzero(np.abs(self.labels) != 1.0)
        if bad.size:
            raise ValueError(f"instance {int(bad[0])}: label "
                             f"{float(self.labels[bad[0]])!r} is not +1 or -1")

    def __len__(self) -> int:
        return len(self.instances)

    def __iter__(self) -> Iterator[SparseInstance]:
        return iter(self.instances)

    @property
    def labels(self) -> np.ndarray:
        if self._labels is None:
            self._labels = np.array([inst.label for inst in self.instances])
        return self._labels

    @property
    def X(self) -> sp.csr_matrix:
        """CSR design matrix, built lazily and cached."""
        if self._X is None:
            indptr = np.zeros(len(self.instances) + 1, dtype=np.int64)
            indptr[1:] = np.cumsum([inst.nnz for inst in self.instances])
            indices = np.concatenate([inst.indices for inst in self.instances]) \
                if indptr[-1] else np.zeros(0, dtype=np.int64)
            data = np.concatenate([inst.values for inst in self.instances]) \
                if indptr[-1] else np.zeros(0)
            self._X = sp.csr_matrix((data, indices, indptr),
                                    shape=(len(self.instances), self.n_features))
        return self._X

    @property
    def norms_sq(self) -> np.ndarray:
        if self._norms_sq is None:
            self._norms_sq = np.array([inst.norm_sq for inst in self.instances])
        return self._norms_sq


def _parse_line(line: str, lineno: int) -> SparseInstance | None:
    text = line.split("#", 1)[0].strip()
    if not text:
        return None
    parts = text.split()
    try:
        label = float(parts[0])
    except ValueError:
        raise ParseError(f"line {lineno}: bad label {parts[0]!r}") from None
    if label not in (1.0, -1.0):
        raise ParseError(f"line {lineno}: label {parts[0]!r} is not +1 or -1")
    idxs: list[int] = []
    vals: list[float] = []
    prev = 0
    for tok in parts[1:]:
        pair = tok.split(":")
        if len(pair) != 2:
            raise ParseError(f"line {lineno}: bad feature token {tok!r}")
        try:
            idx = int(pair[0])
            val = float(pair[1])
        except ValueError:
            raise ParseError(f"line {lineno}: bad feature token {tok!r}") from None
        if idx < 1:
            raise ParseError(f"line {lineno}: feature index {idx} must be >= 1")
        if idx <= prev:
            raise ParseError(f"line {lineno}: feature indices not increasing at {tok!r}")
        if not np.isfinite(val):
            raise ParseError(f"line {lineno}: non-finite value at {tok!r}")
        prev = idx
        idxs.append(idx - 1)  # 1-based on disk, 0-based in memory
        vals.append(val)
    return SparseInstance(label=label, indices=np.array(idxs, dtype=np.int64),
                          values=np.array(vals))


def parse_libsvm(source: str | Iterable[str], name: str = "") -> Dataset:
    """Parse libsvm-format text into a Dataset, preserving line order.

    ``source`` is a string or an iterable of lines.  Raises ParseError with
    the offending line number on malformed input, including a label other
    than +1 or -1, and on empty input.
    """
    lines = io.StringIO(source) if isinstance(source, str) else source
    instances: list[SparseInstance] = []
    for lineno, line in enumerate(lines, start=1):
        inst = _parse_line(line, lineno)
        if inst is not None:
            instances.append(inst)
    if not instances:
        raise ParseError("empty dataset")
    return Dataset(instances, name=name)


def load_libsvm(path: str | Path) -> Dataset:
    """Load a libsvm file; gzip-compressed when the name ends with .gz."""
    path = Path(path)
    opener = gzip.open if path.name.endswith(".gz") else open
    with opener(path, "rt") as fh:  # type: ignore[operator]
        return parse_libsvm(fh, name=path.name)


def to_libsvm(dataset: Dataset) -> str:
    """Serialize back to libsvm text (indices shifted to 1-based).

    Values use shortest round-tripping decimal form, so
    parse(to_libsvm(parse(text))) reproduces labels, indices and values.
    """
    out: list[str] = []
    for inst in dataset.instances:
        toks = [f"{inst.label:.17g}"]
        toks += [f"{int(i) + 1}:{v:.17g}" for i, v in zip(inst.indices, inst.values)]
        out.append(" ".join(toks))
    return "\n".join(out) + "\n"


def save_libsvm(dataset: Dataset, path: str | Path) -> None:
    path = Path(path)
    data = to_libsvm(dataset)
    if path.name.endswith(".gz"):
        with gzip.open(path, "wt") as fh:
            fh.write(data)
    else:
        path.write_text(data)


def synth_strongly_convex(N: int, dim: int, mu: float, spread: float,
                          seed: int) -> ComponentProblem:
    """Finite sum of quadratics F(w) = (1/N) sum_i (mu/2)||w - c_i||^2.

    Centers are drawn uniformly in the ball of radius ``spread``; the
    minimizer is the center mean and the certified constants (mu, G, D, M)
    come in closed form: D = spread, G = mu*(D + max_i ||c_i||), M = mu.
    """
    if N < 1 or dim < 1:
        raise ValueError("N and dim must be >= 1")
    if mu <= 0:
        raise ValueError("mu must be positive")
    if spread < 0:
        raise ValueError("spread must be >= 0")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((N, dim))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms == 0] = 1.0
    radii = spread * rng.random(N) ** (1.0 / dim)
    centers = dirs * (radii / norms)[:, None]
    return ComponentProblem.from_centers(centers, mu=mu, D=spread)


def synth_svm(N: int, dim: int, margin: float, flip_prob: float,
              seed: int) -> Dataset:
    """Linearly separable binary data at the given margin with label noise.

    Points are unit-scale gaussians pushed away from the separating
    hyperplane until |u.x| >= margin, labeled by the side of the plane,
    then flipped independently with probability ``flip_prob``.  With
    flip_prob = 0 the separator u/margin has zero hinge training error.
    """
    if not 0.0 <= flip_prob < 0.5:
        raise ValueError("flip_prob must be in [0, 0.5)")
    if margin <= 0:
        raise ValueError("margin must be positive")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    pts = rng.standard_normal((N, dim)) / np.sqrt(dim)
    s = pts @ u
    side = np.where(s >= 0.0, 1.0, -1.0)
    # Push points inside the margin band out along u; keeps determinism and
    # guarantees |u.x| >= margin exactly.
    shift = np.where(np.abs(s) < margin, side * margin - s, 0.0)
    pts += shift[:, None] * u
    labels = np.where(rng.random(N) < flip_prob, -side, side)
    instances = [
        SparseInstance(label=float(labels[i]),
                       indices=np.arange(dim, dtype=np.int64),
                       values=pts[i].astype(np.float64))
        for i in range(N)
    ]
    return Dataset(instances, n_features=dim,
                   name=f"synth_svm(N={N},dim={dim},margin={margin},"
                        f"flip={flip_prob},seed={seed})")
