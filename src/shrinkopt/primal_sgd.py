"""Projected stochastic subgradient SVM solver with shrinking batch policies.

The base update is the classic 1/(lam*k) step on the mean-loss objective,
followed by projection onto the ball of radius 1/sqrt(lam).  Four
interchangeable policies decide which arriving instances actually update
the model:

    plain   every arrival updates;
    sk      hard shrinking: update only when the criterion value (hinge
            loss, or loss-gradient norm) is at least the threshold T;
    sk_bs   soft shrinking: below-threshold arrivals update with
            probability max(floor_prob, value/T), so every instance keeps a
            nonzero selection probability;
    is      importance sampling: arrivals are drawn from a pre-sampled
            chunk with probability proportional to loss-gradient norm and
            the update is inverse-probability weighted to stay unbiased
            for the chunk mean.

The step counter k advances only on performed updates, so shrinking both
saves updates and keeps step sizes larger for longer.  A CostLedger tracks
updates, criterion evaluations, weight refreshes and solver wall time;
objective snapshots pause the clock so instrumentation never pollutes the
time axis.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .dataio import Dataset, segment_dots
from .linear_models import PrimalModel, hinge_loss, svm_objective

PLAIN = "plain"
SK = "sk"
SK_BS = "sk_bs"
IS = "is"

POLICY_KINDS = (PLAIN, SK, SK_BS, IS)
CRITERIA = ("loss", "grad_norm")

DEFAULT_FLOOR_PROB = 0.1
DEFAULT_CHUNK_SIZE = 4096
WEIGHT_SMOOTHING = 1e-8


class PolicyError(ValueError):
    """An operation was called with a policy kind it does not support."""


@dataclass
class BatchPolicy:
    """Batch-selection rule plus the mutable state it needs mid-run.

    threshold is T for sk/sk_bs.  Importance sampling keeps
    a uniformly pre-sampled chunk of instance indices, probabilities over
    the chunk refreshed every refresh_period updates, and the running
    update count since the last refresh.
    """

    kind: str
    threshold: float = 0.0
    criterion: str = "loss"
    floor_prob: float = DEFAULT_FLOOR_PROB
    chunk_size: int = DEFAULT_CHUNK_SIZE
    refresh_period: int | None = None
    # runtime state (importance sampling only)
    chunk: np.ndarray | None = field(default=None, repr=False)
    probs: np.ndarray | None = field(default=None, repr=False)
    _cdf: np.ndarray | None = field(default=None, repr=False)
    since_refresh: int = 0

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if not 0.0 < self.floor_prob <= 1.0:
            raise ValueError("floor_prob must be in (0, 1]")
        if self.threshold < 0:
            raise ValueError("threshold must be >= 0")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.refresh_period is not None and self.refresh_period < 1:
            raise ValueError("refresh_period must be >= 1")

    @property
    def effective_refresh_period(self) -> int:
        return self.chunk_size if self.refresh_period is None else self.refresh_period

    def label(self) -> str:
        return {PLAIN: "Plain", SK: "SK", SK_BS: "SK_BS", IS: "IS"}[self.kind]


@dataclass
class CostLedger:
    """Monotone counters for the cost axes the curves are plotted against."""

    n_updates: int = 0
    n_evals: int = 0
    n_weight_refreshes: int = 0
    elapsed: float = 0.0


@dataclass
class CurvePoint:
    n_updates: int
    n_evals: int
    elapsed: float
    objective: float


class BatchForward(NamedTuple):
    """A batch's rows as ``Dataset.gather`` returns them, and each row's
    margin y * w.x at the w it was taken at."""

    labels: np.ndarray
    lengths: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    margins: np.ndarray


def batch_forward(model: PrimalModel, dataset: Dataset, rows: Sequence[int]) -> BatchForward:
    """Gather the rows once and take all their margins, bit-equal to each
    row's own y * float(w[idx].dot(val))."""
    y, lengths, cols, vals = dataset.gather(rows)
    return BatchForward(y, lengths, cols, vals,
                        y * segment_dots(model.w[cols], vals, lengths))


class RowRead:
    """Row i as ``Dataset.row`` returns it, and whether its hinge was active
    at the w it was read at.  The shrink decision fills it; a kept arrival's
    step reuses it once instead of reading the row again."""

    __slots__ = ("i", "row", "active")

    def __init__(self) -> None:
        self.i: int | None = None
        self.row: tuple[float, np.ndarray, np.ndarray] | None = None
        self.active = False


def pegasos_step(model: PrimalModel, dataset: Dataset, rows: Sequence[int], k: int,
                 ledger: CostLedger | None = None, loss_weight: float = 1.0,
                 forward: BatchForward | None = None,
                 read: RowRead | None = None) -> PrimalModel:
    """One projected subgradient step on the mean loss of a batch of rows.

    w <- (1 - eta*lam) w + (eta * loss_weight / |batch|) * sum y x over the
    batch rows whose hinge is active at the pre-step w, eta = 1/(lam*k)
    with k >= 1, then projection onto the ball of radius 1/sqrt(lam).
    loss_weight carries the inverse-probability factor for importance
    sampling; 1 otherwise.  Counts one update per call.

    forward, when given, is ``batch_forward(model, dataset, rows)`` taken at
    the pre-step w.  The step then reuses its rows and margins and adds the
    active rows with one ``np.add.at`` in batch order, which leaves the same
    w bytes as adding them one row at a time.  read, when given, is the
    single row of ``rows`` as a shrink decision read it at the pre-step w;
    the step reuses its row and activity and marks it used, so a read of
    another row, or one already stepped on, raises ValueError.  Without
    either, each row is read on its own, which costs less for a single row.
    """
    if k < 1:
        raise ValueError("step index k must be >= 1")
    w = model.w
    eta = 1.0 / (model.lam * k)
    scale = eta * loss_weight / len(rows)
    if forward is None:
        # Margins must be read before the shrink factor rescales w.
        if read is not None:
            if len(rows) != 1 or read.i is None or rows[0] != read.i:
                raise ValueError(f"read of row {read.i} does not match rows {rows}")
            read.i = None
            active = (read.row,) if read.active else ()
        else:
            active = []
            for i in rows:
                y, idx, val = row = dataset.row(i)
                if y * float(w[idx].dot(val)) < 1.0:
                    active.append(row)
        w *= 1.0 - eta * model.lam
        for y, idx, val in active:
            w[idx] += (scale * y) * val
    else:
        y, lengths, cols, vals, margins = forward
        # Inactive rows are left out, not added at 0: -0.0 + 0.0 is +0.0.
        on = (margins < 1.0).repeat(lengths)
        w *= 1.0 - eta * model.lam
        np.add.at(w, cols[on], (scale * y).repeat(lengths)[on] * vals[on])
    radius = 1.0 / math.sqrt(model.lam)
    nw_sq = w.dot(w)
    if nw_sq > radius * radius:
        w *= radius / math.sqrt(nw_sq)
    if ledger is not None:
        ledger.n_updates += 1
    return model


def criterion_value(policy: BatchPolicy, model: PrimalModel, dataset: Dataset,
                    i: int, read: RowRead | None = None) -> float:
    """Shrink-criterion value for arriving row i.

    loss: the hinge loss itself.  grad_norm: the loss-subgradient norm,
    which for the hinge is ||x|| when active and 0 otherwise, so the
    dataset's cached row norm is reused.  The row is read once; read, when
    given, receives it with its activity.  For the loss the activity is
    hinge > 0, which for a finite margin m holds exactly when m < 1.  For
    the norm it is the margin test itself: a row of stored zeros is active
    with value 0.
    """
    row = dataset.row(i)
    if policy.criterion == "loss":
        value = hinge_loss(model, dataset, row)
        active = value > 0.0
    else:
        y, idx, val = row
        active = y * float(model.w[idx].dot(val)) < 1.0
        value = math.sqrt(dataset.norms_sq[i]) if active else 0.0
    if read is not None:
        read.i = i
        read.row = row
        read.active = active
    return value


def shrink_decide(policy: BatchPolicy, model: PrimalModel, dataset: Dataset, i: int,
                  rng: np.random.Generator,
                  ledger: CostLedger | None = None,
                  read: RowRead | None = None) -> bool:
    """Keep (True) or skip (False) arriving row i; counts one eval.

    sk keeps iff value >= T.  sk_bs keeps above-threshold arrivals and
    otherwise keeps with probability max(floor_prob, value/T).  read, when
    given, receives the row and activity the criterion read.
    """
    if policy.kind not in (SK, SK_BS):
        raise PolicyError(f"shrink_decide not defined for policy {policy.kind!r}")
    if ledger is not None:
        ledger.n_evals += 1
    value = criterion_value(policy, model, dataset, i, read)
    keep = value >= policy.threshold
    if not keep and policy.kind == SK_BS:
        keep = bool(rng.random() < max(policy.floor_prob, value / policy.threshold))
    # Hard shrinking must never update below the threshold.
    assert policy.kind != SK or not keep or value >= policy.threshold
    return keep


def refresh_importance_weights(model: PrimalModel, dataset: Dataset,
                               policy: BatchPolicy, rng: np.random.Generator,
                               ledger: CostLedger | None = None) -> BatchPolicy:
    """Re-sample the chunk uniformly and recompute its sampling weights.

    Weights are proportional to the loss-gradient norm with additive
    smoothing before normalization, so no chunk member ever gets zero
    probability and an all-inactive chunk degrades to uniform.  The scoring
    pass is real work: its wall time goes into the ledger, one eval per
    scored instance.
    """
    if policy.kind != IS:
        raise PolicyError("refresh_importance_weights requires an importance policy")
    t0 = time.perf_counter()
    n = len(dataset)
    size = min(policy.chunk_size, n)
    chunk = rng.choice(n, size=size, replace=False)
    margins = dataset.labels[chunk] * (dataset.X[chunk] @ model.w)
    scores = np.where(margins < 1.0, np.sqrt(dataset.norms_sq[chunk]), 0.0)
    scores = scores + WEIGHT_SMOOTHING
    probs = scores / scores.sum()
    policy.chunk = chunk
    policy.probs = probs
    policy._cdf = np.cumsum(probs)
    policy.since_refresh = 0
    if ledger is not None:
        ledger.n_weight_refreshes += 1
        ledger.n_evals += size
        ledger.elapsed += time.perf_counter() - t0
    return policy


def importance_draws(policy: BatchPolicy, rng: np.random.Generator, m: int
                     ) -> tuple[list[int], list[float]]:
    """m chunk members drawn from the current importance weights, with their
    loss weights 1/(|chunk| * p_j).

    The m uniforms come from one ``rng.random(m)``, the same doubles as m
    one-at-a-time draws, and the lookups are the same IEEE operations taken
    as arrays, so the draws equal m draws made one by one.
    """
    n_chunk = len(policy.chunk)
    j = np.minimum(np.searchsorted(policy._cdf, rng.random(m), side="right"), n_chunk - 1)
    return policy.chunk[j].tolist(), (1.0 / (n_chunk * policy.probs[j])).tolist()


def is_step(model: PrimalModel, policy: BatchPolicy, dataset: Dataset, k: int,
            draw: tuple[int, float], ledger: CostLedger | None = None) -> int:
    """Update on one chunk member drawn from the importance distribution.

    draw is a (row, weight) pair that ``importance_draws`` took from the
    current weights; the loss gradient is scaled by the weight
    1/(|chunk| * p_i), which makes the expected weighted gradient equal the
    chunk's mean loss gradient.  Refuses to run on weights staler than the
    refresh period.
    """
    if policy.kind != IS:
        raise PolicyError("is_step requires an importance policy")
    if policy.probs is None or policy.chunk is None:
        raise PolicyError("importance weights never refreshed")
    if policy.since_refresh >= policy.effective_refresh_period:
        raise PolicyError("importance weights stale beyond the refresh period")
    i, weight = draw
    pegasos_step(model, dataset, (i,), k, ledger, loss_weight=weight)
    policy.since_refresh += 1
    return i


def epoch_eval_schedule(n_instances: int, n_epochs: int, points_per_epoch: int = 1) -> list[int]:
    """Arrival counts at which to snapshot the objective; always includes the
    final arrival."""
    total = n_instances * n_epochs
    step = max(1, n_instances // max(1, points_per_epoch))
    sched = list(range(step, total + 1, step))
    if not sched or sched[-1] != total:
        sched.append(total)
    return sched


def run_sgd(dataset: Dataset, policy: BatchPolicy, lam: float, n_epochs: int,
            seed: int, eval_schedule: list[int] | None = None,
            ) -> tuple[PrimalModel, CostLedger, list[CurvePoint]]:
    """Run one policy for n_epochs passes worth of arrivals.

    Non-importance policies walk a fresh random permutation each epoch and
    consult the shrink rule per arrival; importance sampling draws every
    arrival from the current chunk, refreshing weights (and re-sampling the
    chunk) every refresh_period updates.  Deterministic given (dataset,
    policy, seed); snapshots are taken off the clock.
    """
    if n_epochs < 1:
        raise ValueError("n_epochs must be >= 1")
    n = len(dataset)
    rng = np.random.default_rng(seed)
    model = PrimalModel.zeros(dataset.n_features, lam, n)
    ledger = CostLedger()
    if eval_schedule is None:
        eval_schedule = epoch_eval_schedule(n, n_epochs)
    schedule = sorted(set(eval_schedule))
    curve: list[CurvePoint] = []
    total = n * n_epochs
    next_snap = 0  # position in schedule

    def snapshot() -> None:
        curve.append(CurvePoint(ledger.n_updates, ledger.n_evals,
                                ledger.elapsed, svm_objective(model, dataset)))

    if policy.kind == IS:
        period = policy.effective_refresh_period
        refresh_importance_weights(model, dataset, policy, rng, ledger)
        work_start = time.perf_counter()
        arrival = 0
        while arrival < total:
            if policy.since_refresh >= period:
                ledger.elapsed += time.perf_counter() - work_start
                refresh_importance_weights(model, dataset, policy, rng, ledger)
                work_start = time.perf_counter()
            # The draws stop at the next refresh, whose chunk comes from the
            # same stream.
            m = min(period - policy.since_refresh, total - arrival)
            for draw in zip(*importance_draws(policy, rng, m)):
                arrival += 1
                is_step(model, policy, dataset, ledger.n_updates + 1, draw, ledger)
                if next_snap < len(schedule) and arrival == schedule[next_snap]:
                    ledger.elapsed += time.perf_counter() - work_start
                    snapshot()
                    next_snap += 1
                    work_start = time.perf_counter()
        ledger.elapsed += time.perf_counter() - work_start
        return model, ledger, curve

    decide = policy.kind in (SK, SK_BS)
    read = RowRead() if decide else None
    arrival = 0
    work_start = time.perf_counter()
    for _ in range(n_epochs):
        for i in rng.permutation(n).tolist():
            arrival += 1
            if decide:
                keep = shrink_decide(policy, model, dataset, i, rng, ledger, read)
            else:
                ledger.n_evals += 1
                keep = True
            if keep:
                pegasos_step(model, dataset, (i,), ledger.n_updates + 1, ledger, read=read)
            if next_snap < len(schedule) and arrival == schedule[next_snap]:
                ledger.elapsed += time.perf_counter() - work_start
                snapshot()
                next_snap += 1
                work_start = time.perf_counter()
    ledger.elapsed += time.perf_counter() - work_start
    return model, ledger, curve
