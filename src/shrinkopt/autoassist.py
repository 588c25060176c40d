"""Two-role training pipeline: a main learner (the boss) fed filtered
mini-batches by a lightweight logistic helper (the assistant).

The assistant scores candidate instances and accepts each with probability
gamma + (1 - gamma) * g(x), where g is its own prediction that the boss
still loses on x.  It trains itself online on (index, loss) reports coming
back from the boss: the binary target is 1 when the reported loss exceeds
a threshold T, which by default tracks a moving quantile of recent losses.

Both directions of traffic go through bounded FIFO channels, so the same
step functions can run either strictly alternating on one thread (the
byte-deterministic reference driver) or as two concurrent workers that
only exchange messages.  A no-assistant loop over the same candidate
stream serves as the throughput baseline.
"""

from __future__ import annotations

import math
import threading
import time
import traceback
from bisect import bisect_left, insort
from collections import Counter, deque
from dataclasses import dataclass, field

import numpy as np

from .dataio import Dataset, dense_dataset
from .linear_models import (
    SIGMOID_CLAMP,
    ComponentProblem,
    PrimalModel,
    hinge_loss,  # noqa: F401  (a module attribute the traced benchmark patches)
    sigmoid,
    svm_objective,
)
from .primal_sgd import batch_forward, pegasos_step

STARVATION_FACTOR = 100
# run_async gives up on its workers once no boss step has completed for this
# many seconds.
STALL_TIMEOUT_S = 60.0

METRIC_KEYS = ("step", "model_version", "objective", "acceptance_rate",
               "boss_idle_s", "assistant_idle_s", "q_boss_occupancy",
               "q_assistant_occupancy", "starvation_events")


# ---------------------------------------------------------------------------
# assistant


@dataclass
class ThresholdPolicy:
    """Loss threshold for the assistant's binary labels.

    fixed: T is a constant.  quantile: T is the q-quantile (midpoint rule)
    of the last `window` reported losses, refreshed after each report; the
    initial T applies until the first losses arrive.

    The window is kept twice: in arrival order, to know which loss leaves
    next, and as a sorted list that each loss enters and leaves by
    bisection.  T is then read off the two order statistics around
    h = (n - 1) q with numpy's own midpoint formula, so it equals
    np.quantile(window, q, method="midpoint") without re-sorting.
    """

    kind: str = "quantile"
    T: float = 0.0
    q: float = 0.5
    window: int = 1000
    _losses: deque = field(default_factory=deque, repr=False)
    _sorted: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "quantile"):
            raise ValueError(f"unknown threshold kind {self.kind!r}")
        if self.kind == "quantile" and not 0.0 < self.q < 1.0:
            raise ValueError("quantile q must be in (0, 1)")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        self._losses = deque(self._losses, maxlen=self.window)
        self._sorted = sorted(self._losses)

    @property
    def current(self) -> float:
        return self.T

    def extend(self, losses) -> None:
        if self.kind == "fixed":
            return
        losses = [float(loss) for loss in losses]
        if not all(map(math.isfinite, losses)):
            raise ValueError("losses must be finite")
        window, ordered = self._losses, self._sorted
        for loss in losses:
            if len(window) == self.window:
                del ordered[bisect_left(ordered, window[0])]
            window.append(loss)
            insort(ordered, loss)
        if not ordered:
            return
        h = (len(ordered) - 1) * self.q
        lo, hi = ordered[math.floor(h)], ordered[math.ceil(h)]
        self.T = lo if lo == hi else hi - (hi - lo) * 0.5


@dataclass
class AssistantModel:
    """Online logistic scorer over instance features.

    g(x) = sigmoid(phi . x + bias), clamped away from exact 0 and 1.  The
    optional label feature appends the instance label as one extra input
    with its own weight.
    """

    phi: np.ndarray
    bias: float = 0.0
    learning_rate: float = 0.1
    gamma: float = 0.1
    threshold: ThresholdPolicy = field(default_factory=ThresholdPolicy)
    use_label_feature: bool = False
    label_weight: float = 0.0
    n_reports: int = 0
    last_seq: int = -1

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")

    @classmethod
    def zeros(cls, n_features: int, **kw) -> AssistantModel:
        return cls(phi=np.zeros(n_features), **kw)

    def score(self, dataset: Dataset, i: int) -> float:
        """g(x) for row i."""
        return self._g(*dataset.row(i))

    def _g(self, y: float, idx: np.ndarray, val: np.ndarray) -> float:
        z = float(self.phi[idx].dot(val)) + self.bias
        if self.use_label_feature:
            z += self.label_weight * y
        p = sigmoid(z)
        return min(max(p, SIGMOID_CLAMP), 1.0 - SIGMOID_CLAMP)

    def train_on_pair(self, dataset: Dataset, i: int, z_label: int) -> None:
        """One cross-entropy SGD step on row i toward the binary target."""
        y, idx, val = dataset.row(i)
        err = self._g(y, idx, val) - z_label
        lr = self.learning_rate
        self.phi[idx] -= (lr * err) * val
        self.bias -= lr * err
        if self.use_label_feature:
            self.label_weight -= lr * err * y


def label_from_loss(loss: float, T: float) -> int:
    """1 iff the boss still loses more than T on the instance; strict."""
    if not math.isfinite(loss):
        raise ValueError("loss must be finite")
    return 1 if loss > T else 0


def assistant_train_step(assistant: AssistantModel, report: LossReport,
                         dataset: Dataset) -> AssistantModel:
    """Consume one loss report: label each pair against the pre-report T,
    take one SGD step per pair, then feed the losses to the threshold."""
    T = assistant.threshold.current
    for i, loss in report.pairs:
        assistant.train_on_pair(dataset, i, label_from_loss(loss, T))
    assistant.threshold.extend(loss for _, loss in report.pairs)
    if report.seq <= assistant.last_seq:
        raise ValueError("loss reports arrived out of order")
    assistant.last_seq = report.seq
    assistant.n_reports += 1
    return assistant


# ---------------------------------------------------------------------------
# messages and channels


@dataclass
class BossBatch:
    indices: list[int]
    seq: int = 0


@dataclass
class LossReport:
    pairs: list[tuple[int, float]]
    version: int = 0
    seq: int = 0


class BoundedChannel:
    """Bounded FIFO between one producer and one consumer thread.

    on_full = "block": put waits for space (or times out).  "drop_oldest":
    put evicts the head and counts it, never blocking.  get returns None on
    timeout or once the channel is closed and drained; close() is the
    shutdown signal and wakes all waiters.
    """

    def __init__(self, capacity: int, on_full: str = "block") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if on_full not in ("block", "drop_oldest"):
            raise ValueError(f"unknown on_full policy {on_full!r}")
        self._cap = capacity
        self._on_full = on_full
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._closed = False
        self.dropped = 0

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def put(self, item, timeout: float | None = None) -> bool:
        with self._cond:
            if self._closed:
                return False
            if self._on_full == "drop_oldest":
                if len(self._items) >= self._cap:
                    self._items.popleft()
                    self.dropped += 1
                self._items.append(item)
                self._cond.notify_all()
                return True
            end = None if timeout is None else time.monotonic() + timeout
            while len(self._items) >= self._cap and not self._closed:
                rem = None if end is None else end - time.monotonic()
                if rem is not None and rem <= 0:
                    return False
                self._cond.wait(rem)
            if self._closed:
                return False
            self._items.append(item)
            self._cond.notify_all()
            return True

    def get(self, timeout: float | None = None):
        with self._cond:
            end = None if timeout is None else time.monotonic() + timeout
            while not self._items and not self._closed:
                rem = None if end is None else end - time.monotonic()
                if rem is not None and rem <= 0:
                    return None
                self._cond.wait(rem)
            if self._items:
                item = self._items.popleft()
                self._cond.notify_all()
                return item
            return None

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()


# ---------------------------------------------------------------------------
# batch sampling


class IndexStream:
    """Candidate index source: fresh random permutation per epoch, or
    literal iid uniform draws when mode = "uniform"."""

    def __init__(self, n: int, rng: np.random.Generator,
                 mode: str = "permutation") -> None:
        if n < 1:
            raise ValueError("need a nonempty index range")
        if mode not in ("permutation", "uniform"):
            raise ValueError(f"unknown stream mode {mode!r}")
        self._n = n
        self._rng = rng
        self._mode = mode
        self._perm = rng.permutation(n) if mode == "permutation" else None
        self._pos = 0

    def next(self) -> int:
        if self._mode == "uniform":
            return int(self._rng.integers(self._n))
        if self._pos >= self._n:
            self._perm = self._rng.permutation(self._n)
            self._pos = 0
        i = int(self._perm[self._pos])
        self._pos += 1
        return i

    def take(self, count: int) -> list[int]:
        """The next count indices, the same as count calls to next()."""
        if self._mode == "uniform":
            return self._rng.integers(self._n, size=count).tolist()
        out: list[int] = []
        while len(out) < count:
            if self._pos >= self._n:
                self._perm = self._rng.permutation(self._n)
                self._pos = 0
            part = self._perm[self._pos:self._pos + count - len(out)]
            self._pos += part.size
            out += part.tolist()
        return out


@dataclass
class SamplerStats:
    candidates: int = 0
    accepted: int = 0
    starvation_events: int = 0


def accept_candidate(assistant: AssistantModel, dataset: Dataset, i: int,
                     c: float) -> bool:
    """Two-stage rule on one uniform draw c: accept outright with the base
    probability, else accept when the rescaled remainder falls under g(x).
    Overall acceptance probability is gamma + (1 - gamma) * g(x)."""
    if c < assistant.gamma:
        return True
    return (c - assistant.gamma) / (1.0 - assistant.gamma) < assistant.score(dataset, i)


def sample_batch(assistant: AssistantModel, dataset: Dataset, batch_size: int,
                 rng: np.random.Generator, stream: IndexStream | None = None,
                 stats: SamplerStats | None = None, seq: int = 0) -> BossBatch:
    """Fill a batch of exactly batch_size accepted candidates.

    If the two-stage rule has not filled the batch after
    STARVATION_FACTOR * batch_size draws, the remaining slots take the next
    stream entries unconditionally and one starvation event is counted, so
    the sampler terminates for every input.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if stream is None:
        stream = IndexStream(len(dataset), rng, mode="uniform")
    limit = STARVATION_FACTOR * batch_size
    indices: list[int] = []
    drawn = 0
    starved = False
    while len(indices) < batch_size:
        if drawn >= limit and not starved:
            starved = True
            if stats is not None:
                stats.starvation_events += 1
        i = stream.next()
        if not starved:
            drawn += 1
            if stats is not None:
                stats.candidates += 1
            if not accept_candidate(assistant, dataset, i, float(rng.random())):
                continue
            if stats is not None:
                stats.accepted += 1
        indices.append(i)
    return BossBatch(indices, seq)


# ---------------------------------------------------------------------------
# desk-scale bosses


class PegasosBoss:
    """Linear SVM boss: projected subgradient steps on the mean hinge
    gradient of each batch, step size 1/(lam * version)."""

    def __init__(self, dataset: Dataset, lam: float) -> None:
        self.dataset = dataset
        self.model = PrimalModel.zeros(dataset.n_features, lam, len(dataset))
        self.version = 0
        self._forward: tuple = (-1, None, None)     # (version, rows, BatchForward)

    def losses(self, indices) -> list[float]:
        """The batch's hinge losses from one forward pass, which is kept for
        an update of the same batch at the same version."""
        rows = list(indices)
        forward = batch_forward(self.model, self.dataset, rows)
        self._forward = (self.version, rows, forward)
        return np.maximum(1.0 - forward.margins, 0.0).tolist()

    def update(self, indices) -> None:
        version, rows, forward = self._forward
        if version != self.version or rows != list(indices):
            forward = None
        pegasos_step(self.model, self.dataset, indices, self.version + 1, forward=forward)
        self.version += 1

    def objective(self) -> float:
        return svm_objective(self.model, self.dataset)


class QuadraticBoss:
    """Strongly convex finite-sum boss; its dataset is the centers, labeled +1."""

    def __init__(self, problem: ComponentProblem) -> None:
        self.problem = problem
        self.w = np.zeros(problem.dim)
        self.version = 0
        self.dataset = dense_dataset(np.ones(problem.n), problem.centers)

    def losses(self, indices) -> list[float]:
        return [self.problem.component_value(i, self.w) for i in indices]

    def update(self, indices) -> None:
        k = self.version + 1
        g = np.zeros(self.problem.dim)
        for i in indices:
            g += self.problem.component_grad(i, self.w)
        g /= len(indices)
        self.w = self.problem.project(self.w - g / (self.problem.mu * k))
        self.version += 1

    def objective(self) -> float:
        return self.problem.value(self.w)


def boss_step(boss, batch: BossBatch) -> LossReport:
    """Forward, report, then update: the report's losses and version tag
    always reflect the model that computed them, never a newer one."""
    if not batch.indices:
        raise ValueError("empty batch")
    version = boss.version
    losses = boss.losses(batch.indices)
    boss.update(batch.indices)
    return LossReport(pairs=list(zip(batch.indices, losses)),
                      version=version, seq=batch.seq)


# ---------------------------------------------------------------------------
# drivers


@dataclass
class PipelineConfig:
    batch_size: int = 8
    n_boss_steps: int = 100
    k_low_water: int = 8
    cap_boss: int = 16
    cap_assistant: int = 64
    metrics_every: int = 10
    seed: int = 0
    candidate_mode: str = "permutation"
    boss_cost_s: float = 0.0       # injected per-step cost, simulating device time
    assistant_cost_s: float = 0.0
    get_timeout_s: float = 0.05

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.n_boss_steps < 1:
            raise ValueError("n_boss_steps must be >= 1")
        if not self.cap_boss >= self.k_low_water >= 1:
            raise ValueError("need cap_boss >= k_low_water >= 1")
        if self.cap_assistant < 1:
            raise ValueError("cap_assistant must be >= 1")
        if self.metrics_every < 1:
            raise ValueError("metrics_every must be >= 1")
        if self.candidate_mode not in ("permutation", "uniform"):
            raise ValueError(f"unknown candidate_mode {self.candidate_mode!r}")


@dataclass
class PipelineResult:
    boss: object
    assistant: AssistantModel | None
    metrics: list[dict]
    stats: SamplerStats
    elapsed_s: float = 0.0
    # boss updates per second of elapsed_s less instrumentation_s, the time
    # spent writing metric lines (each reads the full objective)
    throughput: float = 0.0
    instrumentation_s: float = 0.0
    boss_idle_s: float = 0.0
    assistant_idle_s: float = 0.0
    q_boss_hist: dict[int, int] = field(default_factory=dict)
    q_assistant_hist: dict[int, int] = field(default_factory=dict)
    reports_dropped: int = 0
    steps_done: int = 0
    failure: str | None = None


@dataclass
class _AssistantCtx:
    """Everything the assistant side owns: its model, the candidate stream
    and acceptance rng, plus the channel endpoints."""

    config: PipelineConfig
    assistant: AssistantModel
    dataset: Dataset
    stream: IndexStream
    accept_rng: np.random.Generator
    bq: BoundedChannel
    aq: BoundedChannel
    stats: SamplerStats
    seq: int = 0


def _pipeline_rngs(seed: int):
    a, b = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(a), np.random.default_rng(b)


def _assistant_refill_tick(ctx: _AssistantCtx,
                           stop: threading.Event | None = None) -> bool:
    """Sample one batch and enqueue it; retries a full queue until told to
    stop.  Returns whether the batch was delivered."""
    batch = sample_batch(ctx.assistant, ctx.dataset, ctx.config.batch_size,
                         ctx.accept_rng, ctx.stream, ctx.stats, ctx.seq)
    ctx.seq += 1
    while True:
        if ctx.bq.put(batch, timeout=ctx.config.get_timeout_s):
            return True
        if ctx.bq.closed or (stop is not None and stop.is_set()):
            return False


def _assistant_train_tick(ctx: _AssistantCtx, timeout: float = 0.0) -> bool:
    """Train on one queued loss report if there is one."""
    report = ctx.aq.get(timeout=timeout)
    if report is None:
        return False
    assistant_train_step(ctx.assistant, report, ctx.dataset)
    if ctx.config.assistant_cost_s:
        time.sleep(ctx.config.assistant_cost_s)
    return True


def _metric_line(metrics: list[dict], step: int, boss, stats: SamplerStats,
                 window: tuple[int, int], boss_idle: float, assistant_idle: float,
                 occ_b: int, occ_a: int) -> float:
    """Append one metric line; returns the seconds that took, which the
    drivers keep off the throughput clock."""
    t0 = time.perf_counter()
    dc = stats.candidates - window[0]
    da = stats.accepted - window[1]
    metrics.append({
        "step": step,
        "model_version": boss.version,
        "objective": boss.objective(),
        "acceptance_rate": da / dc if dc else 0.0,
        "boss_idle_s": boss_idle,
        "assistant_idle_s": assistant_idle,
        "q_boss_occupancy": occ_b,
        "q_assistant_occupancy": occ_a,
        "starvation_events": stats.starvation_events,
    })
    return time.perf_counter() - t0


def run_interleaved(boss, assistant: AssistantModel,
                    config: PipelineConfig) -> PipelineResult:
    """Single-thread reference driver with a fixed phase order per step:
    top the boss queue up to k, run the boss once, drain all loss reports.
    Byte-deterministic given the seed."""
    stream_rng, accept_rng = _pipeline_rngs(config.seed)
    ctx = _AssistantCtx(
        config=config, assistant=assistant, dataset=boss.dataset,
        stream=IndexStream(len(boss.dataset), stream_rng, config.candidate_mode),
        accept_rng=accept_rng,
        bq=BoundedChannel(config.cap_boss, "block"),
        aq=BoundedChannel(config.cap_assistant, "drop_oldest"),
        stats=SamplerStats(),
    )
    metrics: list[dict] = []
    window = (0, 0)
    instrumentation = 0.0
    t0 = time.perf_counter()
    for step in range(1, config.n_boss_steps + 1):
        while len(ctx.bq) < config.k_low_water:
            _assistant_refill_tick(ctx)
        batch = ctx.bq.get(timeout=0.0)
        report = boss_step(boss, batch)
        if config.boss_cost_s:
            time.sleep(config.boss_cost_s)
        ctx.aq.put(report)
        while _assistant_train_tick(ctx):
            pass
        if step % config.metrics_every == 0 or step == config.n_boss_steps:
            instrumentation += _metric_line(metrics, step, boss, ctx.stats, window,
                                            0.0, 0.0, len(ctx.bq), len(ctx.aq))
            window = (ctx.stats.candidates, ctx.stats.accepted)
    elapsed = time.perf_counter() - t0
    return PipelineResult(
        boss=boss, assistant=assistant, metrics=metrics, stats=ctx.stats,
        elapsed_s=elapsed, throughput=config.n_boss_steps / (elapsed - instrumentation),
        instrumentation_s=instrumentation,
        reports_dropped=ctx.aq.dropped, steps_done=config.n_boss_steps)


def run_async(boss, assistant: AssistantModel,
              config: PipelineConfig) -> PipelineResult:
    """Concurrent driver: the assistant worker keeps the boss queue topped
    up (training on loss reports otherwise), the boss worker consumes
    batches and pushes reports back.  Models are never shared; only
    messages cross between the threads.  A worker exception stops both
    sides and is reported on the result with partial metrics kept.  So is
    a stall: when no boss step completes for STALL_TIMEOUT_S, the driver
    shuts the channels and returns without waiting on the stuck worker
    (both run as daemon threads)."""
    stream_rng, accept_rng = _pipeline_rngs(config.seed)
    ctx = _AssistantCtx(
        config=config, assistant=assistant, dataset=boss.dataset,
        stream=IndexStream(len(boss.dataset), stream_rng, config.candidate_mode),
        accept_rng=accept_rng,
        bq=BoundedChannel(config.cap_boss, "block"),
        aq=BoundedChannel(config.cap_assistant, "drop_oldest"),
        stats=SamplerStats(),
    )
    stop = threading.Event()
    failures: list[str] = []
    metrics: list[dict] = []
    idle = {"boss": 0.0, "assistant": 0.0}
    hist_b: Counter = Counter()
    hist_a: Counter = Counter()
    done = {"steps": 0, "instrumentation": 0.0}

    def shut_down() -> None:
        stop.set()
        ctx.bq.close()
        ctx.aq.close()

    def assistant_worker() -> None:
        try:
            while not stop.is_set():
                if len(ctx.bq) < config.k_low_water:
                    _assistant_refill_tick(ctx, stop)
                else:
                    t = time.perf_counter()
                    if not _assistant_train_tick(ctx, timeout=config.get_timeout_s):
                        idle["assistant"] += time.perf_counter() - t
        except Exception:
            failures.append(traceback.format_exc())
            shut_down()

    def boss_worker() -> None:
        try:
            window = (0, 0)
            for step in range(1, config.n_boss_steps + 1):
                hist_b[len(ctx.bq)] += 1
                hist_a[len(ctx.aq)] += 1
                t = time.perf_counter()
                batch = None
                while batch is None and not stop.is_set():
                    batch = ctx.bq.get(timeout=config.get_timeout_s)
                idle["boss"] += time.perf_counter() - t
                if batch is None:
                    break
                report = boss_step(boss, batch)
                if config.boss_cost_s:
                    time.sleep(config.boss_cost_s)
                ctx.aq.put(report)
                done["steps"] = step
                if step % config.metrics_every == 0 or step == config.n_boss_steps:
                    done["instrumentation"] += _metric_line(
                        metrics, step, boss, ctx.stats, window, idle["boss"],
                        idle["assistant"], len(ctx.bq), len(ctx.aq))
                    window = (ctx.stats.candidates, ctx.stats.accepted)
        except Exception:
            failures.append(traceback.format_exc())
        finally:
            shut_down()

    threads = [threading.Thread(target=assistant_worker, name="assistant", daemon=True),
               threading.Thread(target=boss_worker, name="boss", daemon=True)]
    t0 = time.perf_counter()
    for th in threads:
        th.start()
    # Join in slices; between them, check that the boss is still stepping.
    slice_s = max(config.get_timeout_s, STALL_TIMEOUT_S / 100)
    seen, since, stalled = 0, t0, False
    for th in threads:
        while th.is_alive() and not stalled:
            th.join(slice_s)
            now = time.perf_counter()
            if done["steps"] != seen:
                seen, since = done["steps"], now
            stalled = th.is_alive() and now - since > STALL_TIMEOUT_S
    if stalled:
        failures.append(f"stalled: no boss step completed in {STALL_TIMEOUT_S:g} s "
                        f"(after {seen} steps)")
        shut_down()
    elapsed = time.perf_counter() - t0
    working = elapsed - done["instrumentation"]
    return PipelineResult(
        boss=boss, assistant=assistant, metrics=metrics, stats=ctx.stats,
        elapsed_s=elapsed, throughput=done["steps"] / working if working > 0 else 0.0,
        instrumentation_s=done["instrumentation"],
        boss_idle_s=idle["boss"], assistant_idle_s=idle["assistant"],
        q_boss_hist=dict(sorted(hist_b.items())),
        q_assistant_hist=dict(sorted(hist_a.items())),
        reports_dropped=ctx.aq.dropped, steps_done=done["steps"],
        failure="\n".join(failures) or None)


def run_plain_loop(boss, config: PipelineConfig) -> PipelineResult:
    """No-assistant baseline: batches come straight off the candidate
    stream with the same injected boss cost.  Shares the stream rng layout
    with the pipeline drivers, so a gamma=1 pipeline sees identical
    batches."""
    stream_rng, _ = _pipeline_rngs(config.seed)
    stream = IndexStream(len(boss.dataset), stream_rng, config.candidate_mode)
    stats = SamplerStats()
    metrics: list[dict] = []
    instrumentation = 0.0
    t0 = time.perf_counter()
    for step in range(1, config.n_boss_steps + 1):
        boss_step(boss, BossBatch(stream.take(config.batch_size), step - 1))
        if config.boss_cost_s:
            time.sleep(config.boss_cost_s)
        if step % config.metrics_every == 0 or step == config.n_boss_steps:
            instrumentation += _metric_line(metrics, step, boss, stats, (0, 0),
                                            0.0, 0.0, 0, 0)
    elapsed = time.perf_counter() - t0
    return PipelineResult(
        boss=boss, assistant=None, metrics=metrics, stats=stats,
        elapsed_s=elapsed, throughput=config.n_boss_steps / (elapsed - instrumentation),
        instrumentation_s=instrumentation, steps_done=config.n_boss_steps)
