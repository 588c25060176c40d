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
            for the chunk mean;
    theorem every arrival with loss-gradient norm at most grad_bound/k is
            skipped, the decaying gate used by the convergence harness.

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
from typing import Sequence

import numpy as np

from .dataio import Dataset, SparseInstance
from .linear_models import PrimalModel, hinge_loss, svm_objective

PLAIN = "plain"
SK = "sk"
SK_BS = "sk_bs"
IS = "is"
THEOREM = "theorem"

POLICY_KINDS = (PLAIN, SK, SK_BS, IS, THEOREM)
CRITERIA = ("loss", "grad_norm")

DEFAULT_FLOOR_PROB = 0.1
DEFAULT_CHUNK_SIZE = 4096
WEIGHT_SMOOTHING = 1e-8


class PolicyError(ValueError):
    """An operation was called with a policy kind it does not support."""


@dataclass
class BatchPolicy:
    """Batch-selection rule plus the mutable state it needs mid-run.

    threshold is T for sk/sk_bs and the gradient bound for the theorem
    kind (whose gate at step k is threshold/k).  Importance sampling keeps
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
        if self.kind == THEOREM:
            self.criterion = "grad_norm"

    @property
    def effective_refresh_period(self) -> int:
        return self.chunk_size if self.refresh_period is None else self.refresh_period

    def label(self) -> str:
        return {PLAIN: "Plain", SK: "SK", SK_BS: "SK_BS", IS: "IS",
                THEOREM: "TheoremMode"}[self.kind]


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


def pegasos_step(model: PrimalModel, insts: Sequence[SparseInstance], k: int,
                 ledger: CostLedger | None = None, loss_weight: float = 1.0) -> PrimalModel:
    """One projected subgradient step on the mean loss of a batch, in place.

    w <- (1 - eta*lam) w + (eta * loss_weight / |batch|) * sum y x over the
    batch members whose hinge is active at the pre-step w, eta = 1/(lam*k)
    with k >= 1, then projection onto the ball of radius 1/sqrt(lam).
    loss_weight carries the inverse-probability factor for importance
    sampling; 1 otherwise.  Counts one update per call.
    """
    if k < 1:
        raise ValueError("step index k must be >= 1")
    w = model.w
    eta = 1.0 / (model.lam * k)
    # Margins must be read before the shrink factor rescales w.
    active = []
    for inst in insts:
        if inst.label * float(w[inst.indices] @ inst.values) < 1.0:
            active.append(inst)
    w *= 1.0 - eta * model.lam
    scale = eta * loss_weight / len(insts)
    for inst in active:
        w[inst.indices] += (scale * inst.label) * inst.values
    radius = 1.0 / math.sqrt(model.lam)
    nw_sq = float(w @ w)
    if nw_sq > radius * radius:
        w *= radius / math.sqrt(nw_sq)
    if ledger is not None:
        ledger.n_updates += 1
    return model


def criterion_value(policy: BatchPolicy, model: PrimalModel, inst: SparseInstance) -> float:
    """Shrink-criterion value for one arrival.

    loss: the hinge loss itself.  grad_norm: the loss-subgradient norm,
    which for the hinge is ||x|| when active and 0 otherwise, so the cached
    instance norm is reused instead of touching the features again.
    """
    if policy.criterion == "loss":
        return hinge_loss(model, inst)
    active = inst.label * float(model.w[inst.indices] @ inst.values) < 1.0
    return math.sqrt(inst.norm_sq) if active else 0.0


def shrink_decide(policy: BatchPolicy, model: PrimalModel, inst: SparseInstance,
                  k: int, rng: np.random.Generator,
                  ledger: CostLedger | None = None) -> bool:
    """Keep (True) or skip (False) one arriving instance; counts one eval.

    sk keeps iff value >= T.  sk_bs keeps above-threshold arrivals and
    otherwise keeps with probability max(floor_prob, value/T).  theorem
    keeps iff the gradient norm exceeds threshold/k.
    """
    if policy.kind not in (SK, SK_BS, THEOREM):
        raise PolicyError(f"shrink_decide not defined for policy {policy.kind!r}")
    if ledger is not None:
        ledger.n_evals += 1
    value = criterion_value(policy, model, inst)
    if policy.kind == THEOREM:
        return value > policy.threshold / k
    if value >= policy.threshold:
        return True
    if policy.kind == SK:
        return False
    accept = max(policy.floor_prob, value / policy.threshold)
    return bool(rng.random() < accept)


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


def is_step(model: PrimalModel, policy: BatchPolicy, dataset: Dataset, k: int,
            rng: np.random.Generator, ledger: CostLedger | None = None) -> int:
    """Draw one chunk member from the importance distribution and update.

    The loss gradient is scaled by 1/(|chunk| * p_i), which makes the
    expected weighted gradient equal the chunk's mean loss gradient.
    Refuses to run on weights staler than the refresh period.
    """
    if policy.kind != IS:
        raise PolicyError("is_step requires an importance policy")
    if policy.probs is None or policy.chunk is None:
        raise PolicyError("importance weights never refreshed")
    if policy.since_refresh >= policy.effective_refresh_period:
        raise PolicyError("importance weights stale beyond the refresh period")
    j = int(np.searchsorted(policy._cdf, rng.random(), side="right"))
    j = min(j, len(policy.chunk) - 1)
    i = int(policy.chunk[j])
    weight = 1.0 / (len(policy.chunk) * float(policy.probs[j]))
    pegasos_step(model, (dataset.instances[i],), k, ledger, loss_weight=weight)
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
        for arrival in range(1, total + 1):
            if policy.since_refresh >= period:
                ledger.elapsed += time.perf_counter() - work_start
                refresh_importance_weights(model, dataset, policy, rng, ledger)
                work_start = time.perf_counter()
            is_step(model, policy, dataset, ledger.n_updates + 1, rng, ledger)
            if next_snap < len(schedule) and arrival == schedule[next_snap]:
                ledger.elapsed += time.perf_counter() - work_start
                snapshot()
                next_snap += 1
                work_start = time.perf_counter()
        ledger.elapsed += time.perf_counter() - work_start
        return model, ledger, curve

    decide = policy.kind in (SK, SK_BS, THEOREM)
    arrival = 0
    work_start = time.perf_counter()
    for _ in range(n_epochs):
        for i in rng.permutation(n):
            arrival += 1
            inst = dataset.instances[i]
            if decide:
                keep = shrink_decide(policy, model, inst, ledger.n_updates + 1,
                                     rng, ledger)
                if policy.kind == SK:
                    # Hard shrinking must never update below the threshold.
                    assert not keep or criterion_value(policy, model, inst) >= policy.threshold
            else:
                ledger.n_evals += 1
                keep = True
            if keep:
                pegasos_step(model, (inst,), ledger.n_updates + 1, ledger)
            if next_snap < len(schedule) and arrival == schedule[next_snap]:
                ledger.elapsed += time.perf_counter() - work_start
                snapshot()
                next_snap += 1
                work_start = time.perf_counter()
    ledger.elapsed += time.perf_counter() - work_start
    return model, ledger, curve
