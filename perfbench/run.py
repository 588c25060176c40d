"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload dense_small --seed 1 --seconds 50 --trace 0

Run it from the root of a source checkout: it imports the package from
``src/`` there and exits with an error when that is missing.  It builds
the workload's inputs from the seed, warms every stage up untimed, then
repeats whole rounds of the five stages (data check, dual, race,
pipeline, certification) while the next round still fits in
``--seconds``, and reports each end-to-end metric as the median over
rounds.  With ``--trace 1`` it runs one round untraced and the same round
traced, and reports the per-layer metrics instead.  The last line of
standard output is the result as JSON; run records and span files go to
``perfbench/out/``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS, fixed before numpy loads; no process pool.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"
os.environ.pop("SHRINKOPT_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "dual_s": "s",
    "dual_evals": "count",
    "arrivals_per_s.plain": "1/s",
    "arrivals_per_s.sk": "1/s",
    "arrivals_per_s.is": "1/s",
    "updates_to_target.plain": "count",
    "updates_to_target.sk": "count",
    "updates_to_target.is": "count",
    "steps_per_s.plain": "1/s",
    "steps_per_s.interleaved": "1/s",
    "steps_per_s.async": "1/s",
    "cert_s": "s",
}


def import_package():
    """Import shrinkopt from this checkout's src/, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import shrinkopt
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import shrinkopt from {SRC}: {exc}")
    if not Path(shrinkopt.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: shrinkopt imported from {shrinkopt.__file__}, not {SRC}")
    return shrinkopt


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(inp, seconds: float):
    """Whole rounds while the next one, as long as the last, still fits.
    Each metric is the median of its samples from all rounds."""
    from workloads import run_round
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(run_round(inp))
        last = rounds[-1].seconds = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break
    metrics = {}
    for name in END_TO_END:
        samples = [v for r in rounds for v in r.samples.get(name, ())]
        if samples:
            metrics[name] = statistics.median(samples)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return rounds, metrics, END_TO_END


def traced_run(inp, seed: int):
    """One untraced round, then the same round traced; per-layer figures."""
    from shrinkopt import dataio
    from tracing import Tracer, layer_metrics
    from workloads import run_round
    t0 = time.perf_counter()
    base = run_round(inp)
    untraced_s = base.seconds = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        rnd = run_round(inp, stage=tracer.stage)
        traced_s = rnd.seconds = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    # Time the parser on the workload's rows; synth_svm workloads write them.
    text = inp.text or dataio.to_libsvm(inp.ds)
    t0 = time.process_time()
    dataio.parse_libsvm(text)
    parse = (len(text.encode()), time.process_time() - t0)
    stem = f"{inp.wl.name}-s{seed}"
    tracer.write(OUT / f"spans-{stem}.jsonl", OUT / f"trace-{stem}.json")
    if base.failed or rnd.failed:
        return [base, rnd], {}, {}
    layers = layer_metrics(tracer, inp, rnd, parse, traced_s / untraced_s - 1.0)
    return ([base, rnd], {k: v for k, (v, _) in layers.items()},
            {k: u for k, (_, u) in layers.items()})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_package()
    from workloads import WORKLOADS, build_inputs, warm_up
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    env = environment()
    inp = build_inputs(wl, args.seed)
    warm_up(inp)
    if args.trace:
        rounds, metrics, units = traced_run(inp, args.seed)
    else:
        rounds, metrics, units = timed_run(inp, args.seconds)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    errors = [e for r in rounds for e in r.errors]
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "first_setup_s": inp.setup_s,
              "round_seconds": [r.seconds for r in rounds],
              "rounds": [r.values for r in rounds], "errors": errors}
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": env, "rounds": len(rounds), "errors": errors[:5]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
