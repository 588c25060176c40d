"""Self-test of the benchmark at toy sizes; finishes in well under a minute.

    python3 perfbench/selftest.py

Runs every workload end to end at toy sizes, untraced and traced, and
checks that the reported metric names are exactly those in
BENCHMARK.json.  Then plants one wrong answer per correctness check and
requires the check to reject it, and requires run.py to fail in a
directory that holds only the benchmark.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run  # sets the thread variables before numpy loads

run.import_package()

import numpy as np  # noqa: E402

import workloads as wk  # noqa: E402
from shrinkopt import dual_cd, primal_sgd, theorem_harness  # noqa: E402

HERE = Path(__file__).resolve().parent

TOY = {
    "dense_small": dict(n=2000, dual_seeds=1, race_seeds=2, race_epochs=3,
                        repeats=1, pipe_steps={"plain": 200, "interleaved": 100, "async": 60},
                        cert_steps=1000),
    "sparse_wide": dict(n=2000, dim=5000, dual_seeds=1, race_seeds=2,
                        race_epochs=3, repeats=1,
                        pipe_steps={"plain": 200, "interleaved": 100, "async": 60},
                        cert_dim=50, cert_steps=1000),
}


def rejects(what: str, fn, *args) -> None:
    try:
        fn(*args)
    except wk.CheckFailed as exc:
        print(f"  rejected {what}: {exc}")
        return
    raise AssertionError(f"check accepted {what}")


def end_to_end(inp, spec: dict) -> None:
    rounds, metrics, _ = run.timed_run(inp, seconds=0.0)
    assert len(rounds) == 1 and rounds[0].failed == 0, rounds[0].errors
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}, sorted(metrics)
    assert all(v > 0 for v in metrics.values()), metrics
    rounds, layers, _ = run.traced_run(inp, seed=0)
    assert all(r.failed == 0 for r in rounds), [r.errors for r in rounds]
    assert set(layers) == {m["name"] for m in spec["per_layer"]}, sorted(layers)
    print(f"  {len(metrics)} end-to-end and {len(layers)} per-layer metrics, "
          f"{rounds[1].attempted} operations per round")


def planted_faults(inp) -> None:
    wl = inp.wl
    C = 1.0 / (wl.lam * wl.n)

    res = dual_cd.solve(inp.ds, C, tol=wl.dual_tol, seed=0)
    ref = wk.check_dual(inp, res)
    alpha = res.state.alpha
    alpha[np.flatnonzero((alpha > 0.0) & (alpha < C))[0]] *= 0.999
    rejects("a perturbed dual alpha", wk.check_dual, inp, res)
    res.state.alpha[0] = 2.0 * C
    rejects("an alpha above C", wk.check_dual, inp, res)

    arrivals = wl.n * wl.race_epochs
    model, ledger, curve = primal_sgd.run_sgd(inp.ds, wk._policy(wl, "sk"), wl.lam,
                                              wl.race_epochs, 0,
                                              list(range(50, arrivals + 1, 50)))
    wk.check_race(inp, "sk", model, ledger, curve, arrivals, ref)
    w = model.w.copy()
    model.w *= 2.0 / (np.sqrt(wl.lam) * np.linalg.norm(model.w))
    rejects("a model outside the 1/sqrt(lam) ball", wk.check_race, inp, "sk", model,
            ledger, curve, arrivals, ref)
    model.w[:] = w
    ledger.n_updates = ledger.n_evals + 1
    rejects("an sk ledger with more updates than evals", wk.check_race, inp, "sk", model,
            ledger, curve, arrivals, ref)

    inst = inp.ds.instances[5]
    if inp.expect is not None:
        inst.values[0] += 1e-4
        rejects("a parsed row that differs from the generator's", wk.check_data, inp)
        inst.values[0] -= 1e-4
    inp.ds.X.data[7] += 1e-4
    rejects("a CSR matrix that differs from the rows", wk.check_data, inp)
    inp.ds.X.data[7] -= 1e-4
    inst.label = -inst.label
    inp.ds._labels = None
    rejects("a flipped label", wk.check_data, inp)
    inst.label = -inst.label
    inp.ds._labels = None
    wk.check_data(inp)

    rnd = wk.Round()
    for driver in wk.DRIVERS:
        wk._pipeline_op(inp, rnd, ref, driver, 20, seed=0)
    assert rnd.failed == 0, rnd.errors
    res = rnd.extra["pipe.async"][0]
    res.failure = "worker raised"
    rejects("a driver failure", wk.check_pipeline, inp, "async", res, 20, ref)

    cfg = theorem_harness.TheoremRunConfig(problem=inp.problem, n_steps=1000, seed=0)
    report = theorem_harness.run_certification(cfg)
    wk.check_certification(inp, report)
    report["bound"][3] *= 1.01
    rejects("a wrong L/k envelope", wk.check_certification, inp, report)


def fails_without_source() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                           "dense_small", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"  run.py without src/ exits {proc.returncode}: {proc.stderr.strip()}")


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(wk.WORKLOADS)
    for name, toy in TOY.items():
        print(f"{name} (toy sizes)")
        inp = wk.build_inputs(replace(wk.WORKLOADS[name], **toy), seed=3)
        wk.warm_up(inp)
        end_to_end(inp, spec)
        planted_faults(inp)
    fails_without_source()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
