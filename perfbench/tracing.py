"""Spans around the package's public functions, for the traced run.

The package calls its own functions through module globals and class
attributes, so replacing those attributes with timing wrappers sees every
call, from every thread.  Each wrapped call is a span (id, parent, name,
stage, start, end, thread).  Per (stage, name) the tracer keeps the call
count, total time and self time (total minus the time of child spans); the
first ``span_cap`` spans are also kept whole and written out at the end.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from shrinkopt import autoassist, dataio, dual_cd, primal_sgd, theorem_harness

# (owner, attribute, span name).  linear_models functions are patched where
# they are imported, since callers look them up in their own module.
TARGETS = [
    (dataio, "synth_svm", "dataio.synth_svm"),
    (dataio, "parse_libsvm", "dataio.parse_libsvm"),
    (dataio, "synth_strongly_convex", "dataio.synth_strongly_convex"),
    (dataio.Dataset, "X", "dataio.Dataset.X"),
    (dataio.Dataset, "norms_sq", "dataio.Dataset.norms_sq"),
    (dual_cd, "solve", "dual_cd.solve"),
    (dual_cd, "coordinate_gradient", "dual_cd.coordinate_gradient"),
    (primal_sgd, "run_sgd", "primal_sgd.run_sgd"),
    (primal_sgd, "pegasos_step", "primal_sgd.pegasos_step"),
    (primal_sgd, "shrink_decide", "primal_sgd.shrink_decide"),
    (primal_sgd, "criterion_value", "primal_sgd.criterion_value"),
    (primal_sgd, "refresh_importance_weights", "primal_sgd.refresh_importance_weights"),
    (primal_sgd, "is_step", "primal_sgd.is_step"),
    (primal_sgd, "hinge_loss", "linear_models.hinge_loss"),
    (primal_sgd, "svm_objective", "linear_models.svm_objective"),
    (autoassist, "hinge_loss", "linear_models.hinge_loss"),
    (autoassist, "svm_objective", "linear_models.svm_objective"),
    (autoassist, "sample_batch", "autoassist.sample_batch"),
    (autoassist, "assistant_train_step", "autoassist.assistant_train_step"),
    (autoassist, "boss_step", "autoassist.boss_step"),
    (autoassist, "run_plain_loop", "autoassist.run_plain_loop"),
    (autoassist, "run_interleaved", "autoassist.run_interleaved"),
    (autoassist, "run_async", "autoassist.run_async"),
    (autoassist.AssistantModel, "score", "autoassist.AssistantModel.score"),
    (autoassist.AssistantModel, "train_on_pair", "autoassist.AssistantModel.train_on_pair"),
    (autoassist.ThresholdPolicy, "extend", "autoassist.ThresholdPolicy.extend"),
    (autoassist.PegasosBoss, "update", "autoassist.PegasosBoss.update"),
    (autoassist.PegasosBoss, "losses", "autoassist.PegasosBoss.losses"),
    (autoassist.PegasosBoss, "objective", "autoassist.PegasosBoss.objective"),
    (autoassist.BoundedChannel, "put", "autoassist.BoundedChannel.put"),
    (autoassist.BoundedChannel, "get", "autoassist.BoundedChannel.get"),
    (theorem_harness, "run_certification", "theorem_harness.run_certification"),
]


class _ThreadState:
    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.stack: list[list] = []          # [span id, child seconds]
        self.agg: dict[tuple[str, str], list] = {}   # -> [calls, total, self]
        self.spans: list[tuple] = []


class Tracer:
    """Patches TARGETS while active; safe to use from several threads."""

    def __init__(self, span_cap: int = 100_000) -> None:
        self.span_cap = span_cap
        self.stage_name = ""            # read by every thread, set by one
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count()
        self._saved: list[tuple] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            st = tracer._state()
            parent = st.stack[-1] if st.stack else None
            span_id = next(tracer._ids)
            frame = [span_id, 0.0]
            st.stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                st.stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                key = (tracer.stage_name, name)
                agg = st.agg.get(key)
                if agg is None:
                    agg = st.agg[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if span_id < tracer.span_cap:
                    st.spans.append((span_id, parent[0] if parent else None, name,
                                     key[0], t0, t1, st.thread))

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            original = owner.__dict__[attr]
            if isinstance(original, property):
                wrapped = property(self._wrap(name, original.fget), doc=original.__doc__)
            else:
                wrapped = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def stage(self, name: str):
        previous, self.stage_name = self.stage_name, name
        try:
            yield
        finally:
            self.stage_name = previous

    def totals(self) -> dict[tuple[str, str], list]:
        """(stage, name) -> [calls, total seconds, self seconds], all threads."""
        out: dict[tuple[str, str], list] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for key, (calls, total, self_s) in st.agg.items():
                acc = out.setdefault(key, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
        return out

    def write(self, spans_path: Path, totals_path: Path) -> None:
        """Spans as JSON lines (the first span_cap); totals as one JSON."""
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock:
            states = list(self._states)
        with open(spans_path, "w") as fh:
            for st in states:
                for sid, parent, name, stage, t0, t1, thread in st.spans:
                    fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                         "stage": stage, "start": t0, "end": t1,
                                         "thread": thread}) + "\n")
        totals = [{"stage": stage, "name": name, "calls": c, "total_s": t, "self_s": s}
                  for (stage, name), (c, t, s) in sorted(self.totals().items())]
        totals_path.write_text(json.dumps({"span_cap": self.span_cap,
                                           "spans_seen": next(self._ids),
                                           "totals": totals}, indent=1) + "\n")


def layer_metrics(tracer: Tracer, inp, rnd, parse: tuple[int, float],
                  overhead_share: float) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced round: name -> (value, unit).

    ``parse`` is (bytes, seconds) of one untraced parse_libsvm call on
    the workload's rows.
    """
    totals = tracer.totals()

    def calls(stage: str, name: str) -> int:
        return sum(v[0] for (s, n), v in totals.items()
                   if n == name and s.startswith(stage))

    def seconds(stage: str, name: str) -> float:
        return sum(v[1] for (s, n), v in totals.items()
                   if n == name and s.startswith(stage))

    def mean_us(stage: str, name: str) -> float:
        c = calls(stage, name)
        return 1e6 * seconds(stage, name) / c if c else 0.0

    wl, ex = inp.wl, rnd.extra
    dual, race_is = ex["dual"], ex["race.is"]
    inter, asyn = ex["pipe.interleaved"], ex["pipe.async"]
    dual_evals = sum(r.n_evals for r in dual)
    inter_steps = sum(r.steps_done for r in inter)
    inter_cand = sum(r.stats.candidates for r in inter)
    objective = "linear_models.svm_objective"

    def share(stage: str, part: str, whole: str) -> float:
        total = seconds(stage, whole)
        return seconds(stage, part) / total if total else 0.0

    channel_calls = (calls("pipe.interleaved", "autoassist.BoundedChannel.put")
                     + calls("pipe.interleaved", "autoassist.BoundedChannel.get"))
    channel_s = (seconds("pipe.interleaved", "autoassist.BoundedChannel.put")
                 + seconds("pipe.interleaved", "autoassist.BoundedChannel.get"))
    out = {
        "dataio.load_us_per_row": (
            mean_us("setup", "dataio.parse_libsvm" if inp.text else "dataio.synth_svm")
            / wl.n, "us"),
        "dataio.parse_mb_per_s": (parse[0] / parse[1] / 1e6, "MB/s"),
        "dataio.csr_ms": (mean_us("setup", "dataio.Dataset.X") / 1e3, "ms"),
        "linear_models.objective_ms": (mean_us("", objective) / 1e3, "ms"),
        "linear_models.objective_calls": (float(calls("", objective)), "count"),
        "linear_models.hinge_calls_per_arrival.sk": (
            calls("race.sk", "linear_models.hinge_loss")
            / (len(ex["race.sk"]) * wl.n * wl.race_epochs), "count"),
        "primal_sgd.step_us": (mean_us("race.plain", "primal_sgd.pegasos_step"), "us"),
        "primal_sgd.decide_us": (mean_us("race.sk", "primal_sgd.shrink_decide"), "us"),
        "primal_sgd.is_step_us": (mean_us("race.is", "primal_sgd.is_step"), "us"),
        "primal_sgd.refresh_ms": (
            mean_us("race.is", "primal_sgd.refresh_importance_weights") / 1e3, "ms"),
        "primal_sgd.refresh_evals_per_update": (
            sum(l.n_evals for l in race_is) / sum(l.n_updates for l in race_is), "count"),
        "primal_sgd.snapshot_share": (share("race", objective, "primal_sgd.run_sgd"),
                                      "ratio"),
        "dual_cd.coord_us": (1e6 * seconds("dual", "dual_cd.solve") / dual_evals, "us"),
        "dual_cd.sweeps": (sum(r.n_sweeps for r in dual) / len(dual), "count"),
        "dual_cd.update_ratio": (sum(r.n_updates for r in dual) / dual_evals, "ratio"),
        "theorem_harness.step_us": (
            1e6 * seconds("cert", "theorem_harness.run_certification") / sum(ex["cert"]),
            "us"),
        "autoassist.score_us": (
            mean_us("pipe.interleaved", "autoassist.AssistantModel.score"), "us"),
        "autoassist.sample_us": (
            mean_us("pipe.interleaved", "autoassist.sample_batch"), "us"),
        "autoassist.candidates_per_step": (inter_cand / inter_steps, "count"),
        "autoassist.acceptance_ratio": (
            sum(r.stats.accepted for r in inter) / inter_cand, "ratio"),
        "autoassist.train_us": (
            mean_us("pipe.interleaved", "autoassist.assistant_train_step"), "us"),
        "autoassist.threshold_us": (
            mean_us("pipe.interleaved", "autoassist.ThresholdPolicy.extend"), "us"),
        "autoassist.boss_step_us": (mean_us("pipe.plain", "autoassist.boss_step"), "us"),
        "autoassist.channel_us": (1e6 * channel_s / channel_calls if channel_calls else 0.0,
                                  "us"),
        "autoassist.boss_idle_share.async": (
            sum(r.boss_idle_s for r in asyn) / sum(r.elapsed_s for r in asyn), "ratio"),
        "autoassist.reports_dropped.async": (
            float(sum(r.reports_dropped for r in asyn)), "count"),
        "autoassist.starvation_events": (
            float(sum(r.stats.starvation_events for r in inter + asyn)), "count"),
        "trace.overhead_share": (overhead_share, "ratio"),
    }
    for driver in ("plain", "interleaved", "async"):
        out[f"autoassist.objective_share.{driver}"] = (
            share(f"pipe.{driver}", "autoassist.PegasosBoss.objective",
                  f"autoassist.run_{'plain_loop' if driver == 'plain' else driver}"),
            "ratio")
    return out
