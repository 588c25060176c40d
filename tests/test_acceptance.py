"""End-to-end acceptance checks.

Each test prints one verdict line (visible under ``pytest -s``) and then
asserts it, so a red run names the failed check directly.  The heavy
cases reuse the frozen configurations whose targets were pinned against
the exact dual solver.
"""

from __future__ import annotations

import math
import time

import numpy as np

from shrinkopt.autoassist import (AssistantModel, PegasosBoss, PipelineConfig,
                                  accept_candidate, run_async,
                                  run_interleaved, run_plain_loop)
from shrinkopt.dataio import SparseInstance, synth_strongly_convex, synth_svm
from shrinkopt.dual_cd import solve as dual_solve
from shrinkopt.experiments import run_experiment
from shrinkopt.linear_models import (PrimalModel, cross_entropy, hinge_loss,
                                     svm_objective)
from shrinkopt.primal_sgd import (BatchPolicy, epoch_eval_schedule,
                                  pegasos_step, run_sgd)
from shrinkopt.theorem_harness import TheoremRunConfig, run_certification


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{name}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def _first_hit(curve, target: float):
    for p in curve:
        if p.objective <= target:
            return p.n_updates, p.elapsed
    return None, None


def _pinned_optimum(dataset, lam: float) -> float:
    res = dual_solve(dataset, 1.0 / (lam * len(dataset)), tol=1e-8,
                     max_epochs=2000, seed=0)
    assert res.converged
    return svm_objective(res.primal_model(dataset), dataset)


def test_c1_averaged_error_bound_certification():
    problem = synth_strongly_convex(100, 10, mu=1.0, spread=1.0, seed=0)
    t0 = time.perf_counter()
    rep = run_certification(TheoremRunConfig(problem=problem, n_steps=100_000,
                                             n_seeds=30, seed=0))
    wall = time.perf_counter() - t0
    slope = rep["slope_last_decade"]
    ok = (rep["violation_fraction_3se"] == 0.0
          and -1.3 <= slope <= -0.7 and wall < 120.0)
    _report("criterion 1", ok,
            f"violations(3se)={rep['violation_fraction_3se']:.4f} "
            f"slope={slope:.3f} wall={wall:.1f}s")


def test_c2_threshold_policies_fewer_updates_to_target():
    ds = synth_svm(10_000, 16, margin=0.1, flip_prob=0.05, seed=42)
    lam, epochs = 0.05, 10
    sched = epoch_eval_schedule(10_000, epochs, 100)
    target = 1.01 * _pinned_optimum(ds, lam)
    kinds = ("plain", "sk", "sk_bs")
    upd: dict[str, list] = {k: [] for k in kinds}
    fin: dict[str, list] = {k: [] for k in kinds}
    for seed in range(10):
        for kind in kinds:
            kw = {} if kind == "plain" else {"threshold": 0.1}
            _, _, curve = run_sgd(ds, BatchPolicy(kind=kind, **kw), lam,
                                  epochs, seed, sched)
            hit, _ = _first_hit(curve, target)
            upd[kind].append(math.inf if hit is None else hit)
            fin[kind].append(curve[-1].objective)
    med = {k: float(np.median(upd[k])) for k in kinds}
    fmed = {k: float(np.median(fin[k])) for k in kinds}
    rel = {k: abs(fmed[k] - fmed["plain"]) / fmed["plain"] for k in ("sk", "sk_bs")}
    ok = (med["sk"] < med["plain"] and med["sk_bs"] < med["plain"]
          and rel["sk"] < 0.01 and rel["sk_bs"] < 0.01)
    _report("criterion 2", ok,
            f"median updates plain={med['plain']:.0f} sk={med['sk']:.0f} "
            f"sk_bs={med['sk_bs']:.0f}; final rel diff sk={rel['sk']:.5f} "
            f"sk_bs={rel['sk_bs']:.5f}")


def test_c3_importance_sampling_overhead_in_time_not_updates():
    ds = synth_svm(10_000, 16, margin=1.2, flip_prob=0.0, seed=42)
    lam, epochs = 0.01, 8
    sched = epoch_eval_schedule(10_000, epochs, 100)
    target = 1.01 * _pinned_optimum(ds, lam)
    hits: dict[str, list] = {"plain": [], "is": []}
    times: dict[str, list] = {"plain": [], "is": []}
    for seed in range(10):
        for kind in ("plain", "is"):
            kw = {} if kind == "plain" else {"chunk_size": 4096,
                                            "refresh_period": 512}
            _, _, curve = run_sgd(ds, BatchPolicy(kind=kind, **kw), lam,
                                  epochs, seed, sched)
            hit, elapsed = _first_hit(curve, target)
            hits[kind].append(math.inf if hit is None else hit)
            times[kind].append(math.inf if elapsed is None else elapsed)
    updates_ratio = float(np.median(hits["is"]) / np.median(hits["plain"]))
    time_ratio = float(np.median(times["is"]) / np.median(times["plain"]))
    ok = updates_ratio <= 1.0 and time_ratio > updates_ratio
    _report("criterion 3",
            ok, f"updates_ratio={updates_ratio:.3f} time_ratio={time_ratio:.3f}")


def test_c4_dual_solver_consistency():
    ds = synth_svm(2000, 10, margin=0.5, flip_prob=0.05, seed=9)
    C = 1.0 / (0.01 * 2000)
    rs = dual_solve(ds, C, tol=1e-8, max_epochs=2000, use_shrinking=True, seed=0)
    rn = dual_solve(ds, C, tol=1e-8, max_epochs=2000, use_shrinking=False, seed=0)
    d_s, d_n = rs.state.dual_objective(), rn.state.dual_objective()
    rel_dual = abs(d_s - d_n) / abs(d_n)
    primal = svm_objective(rs.primal_model(ds), ds)
    rel_gap = abs(primal + d_s) / abs(primal)
    ok = (rs.converged and rn.converged
          and rel_dual < 1e-6 and rel_gap < 1e-4)
    _report("criterion 4",
            ok, f"shrink-vs-plain dual rel diff={rel_dual:.2e} "
            f"duality gap rel={rel_gap:.2e}")


def test_c5_acceptance_law_on_gamma_g_grid():
    bias_for = {0.0: -50.0, 0.4: math.log(0.4 / 0.6), 1.0: 50.0}
    inst = SparseInstance(1, np.array([0], dtype=np.int64), np.array([0.0]))
    rng = np.random.default_rng(123)
    worst = 0.0
    for gamma in (0.0, 0.1, 0.5, 1.0):
        for g, bias in bias_for.items():
            a = AssistantModel.zeros(2, gamma=gamma, bias=bias)
            draws = rng.random(100_000)
            rate = np.mean([accept_candidate(a, inst, float(c)) for c in draws])
            worst = max(worst, abs(rate - (gamma + (1.0 - gamma) * g)))
    ok = worst <= 0.01
    _report("criterion 5", ok,
            f"worst |empirical - gamma+(1-gamma)g| = {worst:.4f} "
            f"over 12 cells x 1e5 draws")


def test_c6_async_equivalence_and_overhead():
    ds = synth_svm(500, 8, margin=0.5, flip_prob=0.1, seed=7)

    def finals(driver):
        out = []
        for seed in range(10):
            cfg = PipelineConfig(batch_size=8, n_boss_steps=150, k_low_water=4,
                                 cap_boss=8, cap_assistant=64,
                                 metrics_every=50, seed=seed)
            r = driver(PegasosBoss(ds, 0.05), AssistantModel.zeros(8, gamma=0.3),
                       cfg)
            assert r.failure is None, r.failure
            out.append(r.boss.objective())
        return np.asarray(out)

    def ci(v):
        half = 2.0 * v.std(ddof=1) / math.sqrt(v.size)
        return v.mean() - half, v.mean() + half

    lo_i, hi_i = ci(finals(run_interleaved))
    lo_a, hi_a = ci(finals(run_async))
    overlap = lo_i <= hi_a and lo_a <= hi_i

    cost_cfg = PipelineConfig(batch_size=8, n_boss_steps=100, k_low_water=4,
                              cap_boss=8, cap_assistant=64, metrics_every=50,
                              seed=0, boss_cost_s=0.008, assistant_cost_s=0.0008)
    ra = run_async(PegasosBoss(ds, 0.05), AssistantModel.zeros(8, gamma=0.3),
                   cost_cfg)
    rp = run_plain_loop(PegasosBoss(ds, 0.05), cost_cfg)
    idle_frac = ra.boss_idle_s / ra.elapsed_s
    thr_ratio = ra.throughput / rp.throughput
    ok = overlap and ra.failure is None and idle_frac < 0.05 and thr_ratio >= 0.9
    _report("criterion 6", ok,
            f"95% intervals interleaved=[{lo_i:.3f},{hi_i:.3f}] "
            f"async=[{lo_a:.3f},{hi_a:.3f}] overlap={overlap}; "
            f"idle_frac={idle_frac:.4f} throughput_ratio={thr_ratio:.3f}")


def test_c7_byte_identical_artifacts(tmp_path):
    primal = {
        "task": "svm_primal", "n": "200", "dim": "5", "margin": "0.1",
        "flip_prob": "0.05", "data_seed": "1", "lam": "0.05", "n_epochs": "4",
        "policies": "plain,sk", "threshold": "0.1", "points_per_epoch": "5",
        "target_factor": "1.1", "record_time": "false", "seeds": "0,1",
    }
    dual = {
        "task": "svm_dual", "n": "150", "dim": "4", "margin": "0.5",
        "flip_prob": "0.05", "data_seed": "2", "lam": "0.02", "tol": "1e-6",
        "record_time": "false", "seeds": "0",
    }
    mismatches = []
    for label, cfg, files in (
            ("svm_primal", primal, ("curves_plain.csv", "curves_sk.csv",
                                    "summary.json")),
            ("svm_dual", dual, ("curves_dual.csv", "summary.json"))):
        dirs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{label}_{rep}"
            run_experiment(dict(cfg, out_dir=str(out)))
            dirs.append(out)
        for name in files:
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                mismatches.append(f"{label}/{name}")
    ok = not mismatches
    _report("criterion 7", ok,
            "all rerun artifacts byte-identical" if ok
            else f"differing files: {', '.join(mismatches)}")


def test_c8_gradients_match_central_differences():
    # The checks differentiate the steps that train: the loss part of
    # pegasos_step, and the assistant's cross-entropy step at learning rate 1.
    rng = np.random.default_rng(5)
    h, tol = 1e-6, 1e-5
    worst = 0.0

    checked = 0
    while checked < 20:
        dim = 8
        lam, k = 0.01, 100   # eta = 1/(lam k) = 1, and no projection fires
        model = PrimalModel(rng.normal(size=dim), lam=lam, C=0.1)
        idx = np.sort(rng.choice(dim, size=4, replace=False)).astype(np.int64)
        inst = SparseInstance(int(rng.choice([-1, 1])), idx,
                              rng.normal(size=4))
        if abs(inst.label * float(model.w[idx] @ inst.values) - 1.0) < 1e-3:
            continue
        stepped = PrimalModel(model.w.copy(), lam=lam, C=0.1)
        pegasos_step(stepped, (inst,), k)
        assert float(np.linalg.norm(stepped.w)) < 1.0 / math.sqrt(lam)
        # w_new = (1 - 1/k) w - eta g
        grad = ((1.0 - 1.0 / k) * model.w - stepped.w) * (lam * k)
        for j in range(dim):
            model.w[j] += h
            up = hinge_loss(model, inst)
            model.w[j] -= 2 * h
            dn = hinge_loss(model, inst)
            model.w[j] += h
            worst = max(worst, abs(grad[j] - (up - dn) / (2 * h)))
        checked += 1

    for _ in range(20):
        dim = 6
        a = AssistantModel(phi=rng.normal(size=dim), bias=float(rng.normal()),
                           learning_rate=1.0)
        idx = np.sort(rng.choice(dim, size=3, replace=False)).astype(np.int64)
        inst = SparseInstance(1, idx, rng.normal(size=3))
        z = int(rng.integers(2))
        b = AssistantModel(phi=a.phi.copy(), bias=a.bias, learning_rate=1.0)
        b.train_on_pair(inst, z)
        gvec, gb = a.phi - b.phi, a.bias - b.bias
        for j in range(dim):
            a.phi[j] += h
            up = cross_entropy(a.score(inst), z)
            a.phi[j] -= 2 * h
            dn = cross_entropy(a.score(inst), z)
            a.phi[j] += h
            worst = max(worst, abs(gvec[j] - (up - dn) / (2 * h)))
        a.bias += h
        up = cross_entropy(a.score(inst), z)
        a.bias -= 2 * h
        dn = cross_entropy(a.score(inst), z)
        a.bias += h
        worst = max(worst, abs(gb - (up - dn) / (2 * h)))

    ok = worst <= tol
    _report("criterion 8", ok,
            f"worst |analytic - central difference| = {worst:.2e} "
            f"at 20 pegasos_step hinge + 20 assistant logistic points")
