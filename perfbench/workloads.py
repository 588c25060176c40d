"""Workload definitions, input generation and the five benchmark stages.

Every stage calls the package through module and class attributes
(``dual_cd.solve``, ``primal_sgd.run_sgd``, ...), so the tracer in
``tracing.py`` sees each call when it patches those attributes.  Every
operation's outputs are checked against the benchmark's own copy of the
data or against properties the method must have; a failed check fails
the operation and makes the run incorrect.

Single-thread stages are timed on the process CPU clock, which equals
wall time while the process has a CPU and leaves out time the host takes
away from this virtual machine; run_async, which sleeps, is timed on the
wall clock.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from shrinkopt import autoassist, dataio, dual_cd, primal_sgd, theorem_harness
from shrinkopt.experiments import certification_failures

RACE_KINDS = ("plain", "sk", "is")
DRIVERS = ("plain", "interleaved", "async")


@dataclass(frozen=True)
class Workload:
    name: str
    source: str                 # "synth": synth_svm; "libsvm": generated text
    n: int
    dim: int
    lam: float
    dual_tol: float
    dual_seeds: int             # shrinking dual solves per round
    gap_rtol: float             # allowed (P(w) - D(alpha)) / P(w)
    race_seeds: int             # run_sgd seeds per policy per round
    race_epochs: int
    snap_every: int             # arrivals between objective snapshots
    target_factor: float        # target = factor * D(alpha)
    pipe_steps: dict            # driver -> n_boss_steps of one run
    cert_n: int
    cert_dim: int
    cert_steps: int
    repeats: int = 8            # per round: set-ups, runs per pipeline driver, certifications
    nnz: int = 16               # libsvm rows: nonzeros per row
    hot: int = 32               # libsvm rows: features that carry the label
    n_signal: int = 4           # libsvm rows: hot features per row
    margin: float = 0.1         # synth_svm
    flip_prob: float = 0.05     # label noise, both sources
    threshold: float = 0.1      # sk policy threshold (acceptance test C2)
    is_chunk: int = 4096        # is policy chunk (acceptance test C3)
    is_refresh: int = 512
    batch_size: int = 8         # pipeline settings of acceptance test C6
    k_low_water: int = 4
    cap_boss: int = 8
    cap_assistant: int = 64
    gamma: float = 0.3
    boss_cost_s: float = 0.001  # injected into run_async only
    cert_mu: float = 1.0
    cert_spread: float = 1.0
    cert_seeds: int = 30


WORKLOADS = {
    "dense_small": Workload(
        name="dense_small", source="synth", n=10_000, dim=16, lam=0.05,
        dual_tol=1e-3, dual_seeds=4, gap_rtol=1e-6,
        race_seeds=32, race_epochs=1, snap_every=50, target_factor=1.005,
        pipe_steps={"plain": 1000, "interleaved": 200, "async": 150},
        cert_n=100, cert_dim=10, cert_steps=2000),
    "sparse_wide": Workload(
        name="sparse_wide", source="libsvm", n=10_000, dim=100_000, lam=0.05,
        dual_tol=1e-3, dual_seeds=3, gap_rtol=1e-6,
        race_seeds=16, race_epochs=1, snap_every=25, target_factor=1.01,
        pipe_steps={"plain": 500, "interleaved": 200, "async": 125},
        cert_n=100, cert_dim=1000, cert_steps=1000),
}


class CheckFailed(Exception):
    """A program output disagreed with the benchmark's own computation."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Rows:
    """The benchmark's own copy of the data: a scipy CSR matrix and labels."""

    X: sp.csr_matrix
    y: np.ndarray


def libsvm_rows(wl: Workload, seed: int) -> tuple[str, np.ndarray, np.ndarray, np.ndarray]:
    """Text-like sparse rows in libsvm format, a pure function of the seed.

    Each row has ``n_signal`` features drawn from ``hot`` label-carrying
    columns and ``nnz - n_signal`` noise features drawn from a Zipf-like
    popularity over the remaining columns; columns are scattered by a
    random permutation.  Labels are the sign of a planted weight vector on
    the hot columns, flipped with probability ``flip_prob``.  Values have
    at most four decimals and are written with ``repr``, so parsing must
    reproduce them exactly.  Returns (text, indices, values, labels) with
    0-based indices of shape (n, nnz).
    """
    rng = np.random.default_rng([seed, 7])
    perm = rng.permutation(wl.dim)
    n_noise = wl.nnz - wl.n_signal
    popularity = np.cumsum(1.0 / (np.arange(wl.dim - wl.hot) + 20.0))
    popularity /= popularity[-1]
    u = rng.standard_normal(wl.hot)
    idx = np.empty((wl.n, wl.nnz), dtype=np.int64)
    vals = np.empty((wl.n, wl.nnz))
    labels = np.empty(wl.n, dtype=np.int64)
    for r in range(wl.n):
        sig = rng.choice(wl.hot, wl.n_signal, replace=False)
        while True:
            draws = np.searchsorted(popularity, rng.random(2 * n_noise))
            uniq, first = np.unique(draws, return_index=True)
            if uniq.size >= n_noise:
                break
        noise = wl.hot + uniq[np.argsort(first)[:n_noise]]
        sv = np.round(0.5 * rng.standard_normal(wl.n_signal), 4)
        nv = np.round(0.125 * rng.standard_normal(n_noise), 4)
        labels[r] = 1 if float(sv @ u[sig]) >= 0.0 else -1
        cols = perm[np.concatenate([sig, noise])]
        order = np.argsort(cols)
        idx[r] = cols[order]
        vals[r] = np.concatenate([sv, nv])[order]
    flip = rng.random(wl.n) < wl.flip_prob
    labels[flip] = -labels[flip]
    lines = [f"{labels[r]} " + " ".join(f"{i + 1}:{v!r}" for i, v in
                                        zip(idx[r].tolist(), vals[r].tolist()))
             for r in range(wl.n)]
    return "\n".join(lines) + "\n", idx, vals, labels


def rows_of_dataset(ds) -> Rows:
    """Own copy of a Dataset's rows, built without Dataset.X."""
    insts = ds.instances
    indptr = np.zeros(len(insts) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([inst.indices.size for inst in insts])
    X = sp.csr_matrix((np.concatenate([inst.values for inst in insts]),
                       np.concatenate([inst.indices for inst in insts]), indptr),
                      shape=(len(insts), ds.n_features))
    return Rows(X, np.array([inst.label for inst in insts], dtype=np.float64))


@dataclass
class Inputs:
    wl: Workload
    seed: int
    text: str | None                # libsvm text, or None for synth_svm
    ds: object                      # shrinkopt Dataset
    problem: object                 # ComponentProblem for the certification
    rows: Rows                      # own copy; from the generator for libsvm
    setup_s: float                  # CPU time of the first set-up
    expect: tuple | None = None     # generator (indices, values, labels)


def set_up(wl: Workload, seed: int, text: str | None):
    """The program calls setup_s times: synth_svm or parse_libsvm, the first
    Dataset.X and synth_strongly_convex.  Returns (dataset, problem, CPU s)."""
    t0 = time.process_time()
    if text is not None:
        ds = dataio.parse_libsvm(text, name=f"{wl.name}-{seed}")
    else:
        ds = dataio.synth_svm(wl.n, wl.dim, margin=wl.margin, flip_prob=wl.flip_prob,
                              seed=seed)
    ds.X
    problem = dataio.synth_strongly_convex(wl.cert_n, wl.cert_dim, mu=wl.cert_mu,
                                           spread=wl.cert_spread, seed=seed)
    return ds, problem, time.process_time() - t0


def build_inputs(wl: Workload, seed: int) -> Inputs:
    """Make the workload's inputs from the seed; generating the libsvm text
    is not timed."""
    text, expect = None, None
    if wl.source == "libsvm":
        text, idx, vals, labels = libsvm_rows(wl, seed)
        expect = (idx, vals, labels)
    ds, problem, setup_s = set_up(wl, seed, text)
    if expect is not None:
        idx, vals, labels = expect
        indptr = np.arange(0, idx.size + 1, wl.nnz, dtype=np.int64)
        rows = Rows(sp.csr_matrix((vals.ravel(), idx.ravel(), indptr),
                                  shape=(wl.n, ds.n_features)),
                    labels.astype(np.float64))
    else:
        rows = rows_of_dataset(ds)
    return Inputs(wl=wl, seed=seed, text=text, ds=ds, problem=problem, rows=rows,
                  setup_s=setup_s, expect=expect)


# ---------------------------------------------------------------------------
# the benchmark's own computations


def own_objective(rows: Rows, w: np.ndarray, C: float) -> float:
    """0.5 ||w||^2 + C * sum_i max(0, 1 - y_i w.x_i), from the own copy."""
    hinge = np.maximum(1.0 - rows.y * (rows.X @ w), 0.0)
    return 0.5 * float(w @ w) + C * float(hinge.sum())


def check_data(inp: Inputs) -> None:
    """The program's Dataset holds exactly the rows the benchmark expects."""
    ds, rows = inp.ds, inp.rows
    check(len(ds) == rows.X.shape[0], "row count differs")
    if inp.expect is not None:
        idx, vals, labels = inp.expect
        got_idx = np.concatenate([inst.indices for inst in ds.instances])
        got_val = np.concatenate([inst.values for inst in ds.instances])
        check(got_idx.size == idx.size and np.array_equal(got_idx, idx.ravel()),
              "parsed indices differ from the generator's")
        check(np.array_equal(got_val, vals.ravel()),
              "parsed values differ from the generator's")
        check(np.array_equal(ds.labels, labels.astype(np.float64)),
              "parsed labels differ from the generator's")
    X = ds.X
    check(X.shape == rows.X.shape and np.array_equal(X.indptr, rows.X.indptr)
          and np.array_equal(X.indices, rows.X.indices)
          and np.array_equal(X.data, rows.X.data), "Dataset.X differs from the rows")
    check(np.array_equal(ds.labels, rows.y), "Dataset labels differ from the rows")


@dataclass
class DualRef:
    """C and a certified lower bound D(alpha) on the optimum."""

    C: float
    dual: float


def check_dual(inp: Inputs, res) -> DualRef:
    wl, rows = inp.wl, inp.rows
    C = 1.0 / (wl.lam * wl.n)
    alpha = res.state.alpha
    check(res.converged, "dual solve did not converge")
    check(bool(np.all(alpha >= 0.0)) and bool(np.all(alpha <= C)), "alpha outside [0, C]")
    w_own = rows.X.T @ (alpha * rows.y)
    w = res.state.w
    scale = max(1.0, float(np.abs(w_own).max()))
    check(float(np.abs(w - w_own).max()) <= 1e-9 * scale,
          "solver w differs from X^T (alpha * y)")
    dual = float(alpha.sum()) - 0.5 * float(w_own @ w_own)
    primal = own_objective(rows, w_own, C)
    check(dual <= primal * (1.0 + 1e-12), "weak duality violated")
    check(primal - dual <= wl.gap_rtol * primal,
          f"duality gap {(primal - dual) / primal:.2e} above {wl.gap_rtol:g}")
    return DualRef(C=C, dual=dual)


def check_race(inp: Inputs, kind: str, model, ledger, curve, arrivals: int,
               ref: DualRef) -> int:
    """Check one policy run; returns its update count at the first snapshot
    at or below the target."""
    if kind == "plain":
        check(ledger.n_updates == ledger.n_evals == arrivals, "plain ledger identity")
    elif kind == "sk":
        check(ledger.n_updates <= ledger.n_evals == arrivals, "sk ledger identity")
    else:
        check(ledger.n_updates == arrivals, "is ledger identity")
    w = model.w
    check(float(np.linalg.norm(w)) <= (1.0 + 1e-12) / math.sqrt(inp.wl.lam),
          "model outside the 1/sqrt(lam) ball")
    obj = own_objective(inp.rows, w, ref.C)
    check(abs(obj - curve[-1].objective) <= 1e-9 * obj,
          "final objective differs from the last curve point")
    check(obj >= ref.dual * (1.0 - 1e-12), "objective below the dual bound")
    target = inp.wl.target_factor * ref.dual
    hit = next((p.n_updates for p in curve if p.objective <= target), None)
    check(hit is not None, f"{kind} never reached the target")
    return hit


def check_pipeline(inp: Inputs, driver: str, res, steps: int, ref: DualRef) -> None:
    wl = inp.wl
    check(res.failure is None, f"{driver} driver failure: {res.failure}")
    check(res.steps_done == steps, f"{driver} stopped early")
    obj = own_objective(inp.rows, res.boss.model.w, ref.C)
    check(ref.dual * (1.0 - 1e-12) <= obj < ref.C * wl.n,
          f"{driver} final objective {obj} outside [D(alpha), C*N)")
    cand = res.stats.candidates
    if driver != "plain":
        check(cand > 0, f"{driver} sampled no candidates")
        margin = 4.0 * math.sqrt(wl.gamma * (1.0 - wl.gamma) / cand)
        check(res.stats.accepted / cand >= wl.gamma - margin,
              f"{driver} acceptance below gamma")


def check_certification(inp: Inputs, report: dict) -> None:
    problem = inp.problem
    fails = certification_failures(report, -1.3, -0.7)
    check(not fails, "certification gate: " + "; ".join(fails))
    centers = problem.centers
    mu, D = inp.wl.cert_mu, inp.wl.cert_spread
    G = mu * (D + float(np.linalg.norm(centers, axis=1).max()))
    L = max(4.0 * D * D, G * G / (mu * mu) + 4.0 * D * G / mu)
    const = report["constants"]
    check(math.isclose(const["G"], G, rel_tol=1e-12) and
          math.isclose(const["L"], L, rel_tol=1e-12), "certified constants differ")
    ks = np.asarray(report["ks"], dtype=float)
    check(np.allclose(report["bound"], L / ks, rtol=1e-12, atol=0.0),
          "L/k envelope differs")
    check(np.allclose(problem.w_star, centers.mean(axis=0), rtol=0.0, atol=1e-15),
          "minimizer is not the mean of the centers")


# ---------------------------------------------------------------------------
# stages


@dataclass
class Round:
    """What one round measured, plus its operation counts."""

    attempted: int = 0
    failed: int = 0
    seconds: float = 0.0
    errors: list[str] = field(default_factory=list)
    samples: dict[str, list] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)   # median of samples
    extra: dict = field(default_factory=dict)   # raw results for the tracer
    stage: object = field(default=None, repr=False)   # Tracer.stage, or None

    def label(self, name: str):
        """Context naming the stage for the tracer; no-op when untraced."""
        return self.stage(name) if self.stage is not None else nullcontext()

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def op(self, fn, *args):
        """Check one operation's outputs; a failed check fails the operation.
        Returns the check's value, or None when it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except CheckFailed as exc:
            self.failed += 1
            self.errors.append(str(exc))
        return None


def _dual_op(inp: Inputs, rnd: Round, seed: int) -> DualRef | None:
    C = 1.0 / (inp.wl.lam * inp.wl.n)
    t0 = time.process_time()
    with rnd.label("dual"):
        res = dual_cd.solve(inp.ds, C, tol=inp.wl.dual_tol, seed=seed)
    rnd.sample("dual_s", time.process_time() - t0)
    rnd.sample("dual_evals", float(res.n_evals))
    rnd.extra.setdefault("dual", []).append(res)
    return rnd.op(check_dual, inp, res)


def _policy(wl: Workload, kind: str):
    if kind == "sk":
        return primal_sgd.BatchPolicy(kind="sk", threshold=wl.threshold)
    if kind == "is":
        return primal_sgd.BatchPolicy(kind="is", chunk_size=wl.is_chunk,
                                      refresh_period=wl.is_refresh)
    return primal_sgd.BatchPolicy(kind="plain")


def _race_op(inp: Inputs, rnd: Round, ref: DualRef, kind: str, seed: int) -> None:
    wl = inp.wl
    arrivals = wl.n * wl.race_epochs
    schedule = list(range(wl.snap_every, arrivals + 1, wl.snap_every))
    if schedule[-1] != arrivals:
        schedule.append(arrivals)
    t0 = time.process_time()
    with rnd.label(f"race.{kind}"):
        model, ledger, curve = primal_sgd.run_sgd(inp.ds, _policy(wl, kind), wl.lam,
                                                  wl.race_epochs, seed, schedule)
    rnd.sample(f"arrivals_per_s.{kind}", arrivals / (time.process_time() - t0))
    rnd.extra.setdefault(f"race.{kind}", []).append(ledger)
    hit = rnd.op(check_race, inp, kind, model, ledger, curve, arrivals, ref)
    rnd.sample(f"updates_to_target.{kind}", float(ledger.n_updates if hit is None else hit))


def _pipeline_config(wl: Workload, driver: str, steps: int, seed: int):
    return autoassist.PipelineConfig(
        batch_size=wl.batch_size, n_boss_steps=steps, k_low_water=wl.k_low_water,
        cap_boss=wl.cap_boss, cap_assistant=wl.cap_assistant, seed=seed,
        boss_cost_s=wl.boss_cost_s if driver == "async" else 0.0)


def _pipeline_op(inp: Inputs, rnd: Round, ref: DualRef, driver: str, steps: int,
                 seed: int) -> None:
    """The single-thread drivers are timed on the process CPU clock;
    run_async sleeps and runs two threads, so it is timed on the wall clock."""
    wl = inp.wl
    clock = time.perf_counter if driver == "async" else time.process_time
    cfg = _pipeline_config(wl, driver, steps, seed)
    boss = autoassist.PegasosBoss(inp.ds, wl.lam)
    assistant = autoassist.AssistantModel.zeros(inp.ds.n_features, gamma=wl.gamma)
    t0 = clock()
    with rnd.label(f"pipe.{driver}"):
        if driver == "plain":
            res = autoassist.run_plain_loop(boss, cfg)
        elif driver == "interleaved":
            res = autoassist.run_interleaved(boss, assistant, cfg)
        else:
            res = autoassist.run_async(boss, assistant, cfg)
    rnd.sample(f"steps_per_s.{driver}", res.steps_done / (clock() - t0))
    rnd.extra.setdefault(f"pipe.{driver}", []).append(res)
    rnd.op(check_pipeline, inp, driver, res, steps, ref)


def _cert_op(inp: Inputs, rnd: Round, n_steps: int, seed: int) -> None:
    cfg = theorem_harness.TheoremRunConfig(problem=inp.problem, n_steps=n_steps,
                                           n_seeds=inp.wl.cert_seeds, seed=seed)
    t0 = time.process_time()
    with rnd.label("cert"):
        report = theorem_harness.run_certification(cfg)
    rnd.sample("cert_s", time.process_time() - t0)
    rnd.extra.setdefault("cert", []).append(3 * n_steps)
    rnd.op(check_certification, inp, report)


def _setup_op(inp: Inputs, rnd: Round) -> None:
    """Set the inputs up again, timed; the copies are dropped."""
    gc.collect()
    with rnd.label("setup"):
        _, _, seconds = set_up(inp.wl, inp.seed, inp.text)
    rnd.sample("setup_s", seconds)


def _spread(count: int, slots: int) -> set[int]:
    """``count`` slot numbers spread evenly over range(slots)."""
    return {k * slots // count for k in range(count)}


def run_round(inp: Inputs, stage=None) -> Round:
    """One round: the data check, then the race seeds in order with the
    dual solves, set-ups, pipeline runs and certifications spread evenly
    between them, so that every metric samples the whole round.  The first dual
    solve certifies the optimum the later checks use.  Each metric is the
    median of its samples.

    ``stage`` is a tracer's stage context factory, or None when untraced.
    """
    wl = inp.wl
    rnd = Round(stage=stage)
    with rnd.label("data"):
        rnd.op(check_data, inp)
    slots = wl.race_seeds
    dual_at, repeat_at = _spread(wl.dual_seeds, slots), _spread(wl.repeats, slots)
    ref = None
    for i in range(slots):
        if i in dual_at:
            got = _dual_op(inp, rnd, seed=len(rnd.extra.get("dual", ())))
            ref = ref or got
            if ref is None:
                return rnd      # no certified optimum to race against
        for kind in RACE_KINDS:
            _race_op(inp, rnd, ref, kind, seed=i)
        if i in repeat_at:
            _setup_op(inp, rnd)
            run = len(rnd.extra.get("cert", ()))
            for driver in DRIVERS:
                _pipeline_op(inp, rnd, ref, driver, wl.pipe_steps[driver], seed=run)
            _cert_op(inp, rnd, wl.cert_steps, seed=run)
    rnd.values = {name: statistics.median(vals) for name, vals in rnd.samples.items()}
    return rnd


def warm_up(inp: Inputs) -> None:
    """Untimed run of every stage once; counted in no round."""
    wl = inp.wl
    rnd = Round()
    ref = _dual_op(inp, rnd, seed=0) or DualRef(1.0 / (wl.lam * wl.n), 0.0)
    for kind in RACE_KINDS:
        _race_op(inp, rnd, ref, kind, seed=0)
    for driver in DRIVERS:
        _pipeline_op(inp, rnd, ref, driver, wl.pipe_steps[driver], seed=0)
    _cert_op(inp, rnd, 1000, seed=0)

