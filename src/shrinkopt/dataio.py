"""Dataset loading and synthetic problem generators.

A Dataset is one set of CSR arrays, the layout LIBLINEAR uses: ``labels``
(+1 or -1 per row), ``indptr`` (row i owns positions indptr[i]:indptr[i+1]),
``indices`` (int64, 0-based, strictly increasing within a row) and ``data``
(finite float64 values), plus ``norms_sq`` computed once, in bulk.  ``X`` is
a scipy CSR matrix over the same ``data``, and ``row(i)`` slices row i out
of the arrays as (label, indices, values) views: the solvers read rows
without copying, and no per-row object is built.  Validation runs once, in
bulk, when a Dataset is built.

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
import math
from array import array
from dataclasses import dataclass, field
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .linear_models import ComponentProblem


class ParseError(ValueError):
    """Malformed libsvm input; message carries the 1-based line number."""


def _row_problem(indices: np.ndarray, values: np.ndarray) -> str | None:
    """What makes one row's feature arrays invalid, or None."""
    if indices.shape != values.shape:
        return "indices and values must have equal length"
    if indices.size and indices[0] < 0:
        return "feature indices must be >= 0"
    if np.any(np.diff(indices) <= 0):
        return "feature indices must be strictly increasing"
    if not np.all(np.isfinite(values)):
        return "feature values must be finite"
    return None


@dataclass
class SparseInstance:
    """One labeled example with a sparse feature vector.

    ``indices`` are 0-based, strictly increasing; ``norm_sq`` caches
    ``values @ values`` because the dual solver needs it per coordinate
    update.  Treated as immutable after construction.  ``Dataset.instances``
    builds them as views into the Dataset's arrays.
    """

    label: float
    indices: np.ndarray
    values: np.ndarray
    norm_sq: float = field(default=-1.0)

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=np.float64)
        problem = _row_problem(self.indices, self.values)
        if problem:
            raise ValueError(problem)
        if self.norm_sq < 0.0:
            self.norm_sq = float(self.values @ self.values)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)


def segment_dots(a: np.ndarray, b: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``a_s @ b_s`` for each segment s of the flat arrays a and b, which are
    the segments of the given lengths back to back; an empty segment's dot
    is 0.  All segments of one length go through one stacked matmul, which
    takes the same BLAS dot per segment and so matches the per-segment
    ``float(a_s @ b_s)`` to the bit; an einsum or a reduceat sum does not."""
    n = lengths.size
    L = int(lengths.max()) if n else 0
    if n * L == a.size:             # every segment has length L
        u, v = a.reshape(n, L), b.reshape(n, L)
        return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]
    out = np.zeros(n)
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(lengths, kind="stable")
    for seg in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        L = int(lengths[seg[0]])
        if L:
            pos = starts[seg, None] + np.arange(L)
            u = a[pos]
            v = u if b is a else b[pos]
            out[seg] = np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]
    return out


def _first_invalid_row(labels: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
                       data: np.ndarray) -> int | None:
    """The first row whose label is not +1 or -1, or whose indices are
    negative or not strictly increasing, or whose values are not finite."""
    bad = np.flatnonzero((labels != 1.0) & (labels != -1.0))
    first = int(bad[0]) if bad.size else None
    rising = np.ones(indices.size, dtype=bool)
    rising[1:] = indices[1:] > indices[:-1]
    starts = indptr[:-1]
    rising[starts[starts < indices.size]] = True    # a row's first index
    pos = np.flatnonzero(~(rising & (indices >= 0) & np.isfinite(data)))
    if pos.size:
        row = int(np.searchsorted(indptr, pos[0], side="right")) - 1
        first = row if first is None else min(first, row)
    return first


class Dataset:
    """+1/-1 labeled rows held as one set of CSR arrays.

    ``labels``, ``indptr``, ``indices`` (int64), ``data`` and ``norms_sq``
    are the layout; ``X`` is a scipy CSR matrix over ``data``; ``row(i)``
    is row i as (label, indices, values) views.  No per-row object is
    built: ``instances`` makes SparseInstance rows on first access.
    ``Dataset(instances)`` packs rows into the arrays.  Pickles as its arrays.

    Immutable after construction; safe to share read-only across workers.
    """

    def __init__(self, instances: list[SparseInstance], n_features: int | None = None,
                 name: str = ""):
        indptr = np.zeros(len(instances) + 1, dtype=np.int64)
        indptr[1:] = np.cumsum([inst.nnz for inst in instances])
        self._set_arrays(
            np.array([inst.label for inst in instances], dtype=np.float64), indptr,
            np.concatenate([np.zeros(0, np.int64), *(inst.indices for inst in instances)]),
            np.concatenate([np.zeros(0), *(inst.values for inst in instances)]),
            n_features, name)

    @classmethod
    def _from_csr(cls, labels: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
                  data: np.ndarray, n_features: int | None = None,
                  name: str = "") -> "Dataset":
        ds = cls.__new__(cls)
        ds._set_arrays(labels, indptr, indices, data, n_features, name)
        return ds

    def _set_arrays(self, labels: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
                    data: np.ndarray, n_features: int | None, name: str) -> None:
        if not labels.size:
            raise ValueError("empty dataset")
        bad = _first_invalid_row(labels, indptr, indices, data)
        if bad is not None:
            lo, hi = indptr[bad], indptr[bad + 1]
            problem = (f"label {float(labels[bad])!r} is not +1 or -1"
                       if abs(labels[bad]) != 1.0
                       else _row_problem(indices[lo:hi], data[lo:hi]))
            raise ValueError(f"instance {bad}: {problem}")
        max_idx = int(indices.max()) if indices.size else -1
        if n_features is None:
            n_features = max_idx + 1
        elif n_features < max_idx + 1:
            raise ValueError("n_features smaller than largest feature index")
        self.indptr, self.indices, self.data = indptr, indices, data
        self.n_features = int(n_features)
        self.name = name
        self._labels: np.ndarray | None = labels
        self._X: sp.csr_matrix | None = None
        self._rows: list[SparseInstance] | None = None
        lengths = np.diff(indptr)
        cols, vals = indices[indptr[0]:indptr[-1]], data[indptr[0]:indptr[-1]]
        self._norms_sq = segment_dots(vals, vals, lengths)
        # Rows all of one length L (dense rows, or a fixed nnz) are also held
        # as (n, L) views, so gather takes them as blocks.  With 10k dense
        # rows of 16 columns the plain Boss loop ran about 1.14x as many steps
        # per second that way as through the general path (two shared x86
        # cores).
        L = int(lengths[0])
        self._blocks = ((labels, lengths, cols.reshape(-1, L), vals.reshape(-1, L))
                        if L and (lengths == L).all() else None)
        # Python ints and floats: the per-arrival reads in row() stay cheap.
        self._bounds: list[int] = indptr.tolist()
        self._row_labels: list[float] = labels.tolist()

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def row(self, i: int) -> tuple[float, np.ndarray, np.ndarray]:
        """Row i as (label, feature indices, values); the arrays are views."""
        lo, hi = self._bounds[i], self._bounds[i + 1]
        return self._row_labels[i], self.indices[lo:hi], self.data[lo:hi]

    def gather(self, rows: Sequence[int]
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The given rows, in the order given, as (labels, lengths, feature
        indices, values), read from the arrays ``row`` reads.  The indices
        and values of the rows lie back to back in two new arrays, the
        layout ``segment_dots`` reads."""
        if self._blocks is not None:
            r = np.array(rows, dtype=np.int64)
            labels, lengths, cols, vals = self._blocks
            return labels[r], lengths[r], cols[r].ravel(), vals[r].ravel()
        bounds = self._bounds
        shift, lengths, total = [], [], 0
        for i in rows:
            lo, hi = bounds[i], bounds[i + 1]
            shift.append(lo - total)
            lengths.append(hi - lo)
            total += hi - lo
        lengths = np.array(lengths, dtype=np.int64)
        pos = np.array(shift, dtype=np.int64).repeat(lengths) + np.arange(total)
        return (np.array([self._row_labels[i] for i in rows]), lengths,
                self.indices[pos], self.data[pos])

    @property
    def instances(self) -> list[SparseInstance]:
        """Every row as a SparseInstance over views of the arrays, built on
        first access and cached; no solver reads it."""
        if self._rows is None:
            bounds, norms = self._bounds, self._norms_sq.tolist()
            self._rows = [SparseInstance(y, self.indices[lo:hi], self.data[lo:hi], norm_sq)
                          for y, norm_sq, lo, hi in zip(self._row_labels, norms,
                                                        bounds, bounds[1:])]
        return self._rows

    def __reduce__(self):
        return (Dataset._from_csr, (self.labels, self.indptr, self.indices, self.data,
                                    self.n_features, self.name))

    @property
    def labels(self) -> np.ndarray:
        if self._labels is None:
            self._labels = np.array([inst.label for inst in self.instances])
        return self._labels

    @property
    def X(self) -> sp.csr_matrix:
        """CSR design matrix over ``data``, built on first use and cached.

        It shares ``data`` but not the index arrays: scipy narrows them to
        int32 copies, 4 bytes per nonzero.  That copy is kept on purpose.
        Every objective snapshot runs ``X @ w``, and over int64 indices that
        product took 7-15% longer on the 10k x 16 dense set and the 10k x
        1e5 sparse set with 16 nonzeros per row (one BLAS thread).
        """
        if self._X is None:
            self._X = sp.csr_matrix((self.data, self.indices, self.indptr),
                                    shape=(len(self), self.n_features))
        return self._X

    @property
    def norms_sq(self) -> np.ndarray:
        """Each row's ``values @ values``, computed when the Dataset is built."""
        return self._norms_sq


def _line_error(line: str, lineno: int) -> ParseError:
    """The first problem on a line the reader rejected, worded as a ParseError."""
    parts = line.split("#", 1)[0].split()
    try:
        label = float(parts[0])
    except ValueError:
        return ParseError(f"line {lineno}: bad label {parts[0]!r}")
    if label not in (1.0, -1.0):
        return ParseError(f"line {lineno}: label {parts[0]!r} is not +1 or -1")
    prev = 0
    for tok in parts[1:]:
        head, _, tail = tok.partition(":")
        try:
            idx, val = int(head), float(tail)
        except ValueError:
            return ParseError(f"line {lineno}: bad feature token {tok!r}")
        if idx < 1:
            return ParseError(f"line {lineno}: feature index {idx} must be >= 1")
        if idx <= prev:
            return ParseError(f"line {lineno}: feature indices not increasing at {tok!r}")
        if not math.isfinite(val):
            return ParseError(f"line {lineno}: non-finite value at {tok!r}")
        prev = idx
    # Only an index past the int64 range passes every check above.
    return ParseError(f"line {lineno}: feature index out of range")


def dense_dataset(labels: np.ndarray, points: np.ndarray, name: str = "") -> Dataset:
    """A Dataset of the rows of an (N, dim) array, every column stored,
    zeros too."""
    N, dim = points.shape
    return Dataset._from_csr(labels, np.arange(0, N * dim + 1, dim, dtype=np.int64),
                             np.tile(np.arange(dim, dtype=np.int64), N), points.ravel(),
                             n_features=dim, name=name)


def parse_libsvm(source: str | Iterable[str], name: str = "") -> Dataset:
    """Parse libsvm-format text into a Dataset, preserving line order.

    ``source`` is a string or an iterable of lines.  Raises ParseError with
    the offending line number on malformed input, including a label other
    than +1 or -1, and on empty input.

    One pass appends every row to flat typed buffers, converting with
    ``int`` and ``float``, which reject a malformed token.  The numeric
    rules (label +1 or -1, index >= 1, indices strictly increasing, finite
    values) are checked in bulk afterwards.  The first failure, in line
    order, is worded by reading its line again.
    """
    if isinstance(source, str):
        lines: Iterable[str] = source.split("\n")
    elif hasattr(source, "seek"):
        lines = source          # a file: read again from the start to word an error
    else:
        lines = list(source)
    labels, indices, data = array("d"), array("q"), array("d")
    indptr, linenos = array("q", [0]), array("q")
    stop = 0                    # the first line that failed to convert
    for lineno, line in enumerate(lines, start=1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        feats = parts[1:]
        try:
            label = float(parts[0])
            if feats:
                # A token without exactly one colon leaves a tail that is
                # empty or holds a colon, and float rejects both.
                heads, _, tails = zip(*map(str.partition, feats, repeat(":")))
                indices.extend(map(int, heads))
                data.extend(map(float, tails))
        except (ValueError, OverflowError):
            stop = lineno
            break
        labels.append(label)
        linenos.append(lineno)
        indptr.append(len(indices))
    lab = np.frombuffer(labels, dtype=np.float64)
    ptr = np.frombuffer(indptr, dtype=np.int64)
    ind = np.frombuffer(indices, dtype=np.int64)[:indptr[-1]]
    ind -= 1                    # 1-based on disk, 0-based in memory
    val = np.frombuffer(data, dtype=np.float64)[:indptr[-1]]
    # Rows before a line that failed to convert may break a numeric rule.
    bad = _first_invalid_row(lab, ptr, ind, val)
    if bad is not None:
        stop = linenos[bad]
    if not stop:
        if not lab.size:
            raise ParseError("empty dataset")
        return Dataset._from_csr(lab, ptr, ind, val, name=name)
    if hasattr(lines, "seek"):
        lines.seek(0)
    raise _line_error(next(islice(lines, stop - 1, None)), stop)


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
    indices = (dataset.indices + 1).tolist()
    values = dataset.data.tolist()
    bounds = dataset.indptr.tolist()
    out: list[str] = []
    for label, lo, hi in zip(dataset.labels.tolist(), bounds, bounds[1:]):
        toks = [f"{label:.17g}"]
        toks += [f"{i}:{v:.17g}" for i, v in zip(indices[lo:hi], values[lo:hi])]
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
    minimizer is the center mean and the certified constants (mu, G, D)
    come in closed form: D = spread, G = mu*(D + max_i ||c_i||).
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
    return dense_dataset(labels, pts, name=f"synth_svm(N={N},dim={dim},margin={margin},"
                                           f"flip={flip_prob},seed={seed})")
