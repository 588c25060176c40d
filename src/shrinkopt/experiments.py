"""Experiment front end: configs in, plot-ready CSV/JSON out.

Config files are flat ``key = value`` text, one experiment per file;
blank lines and ``#`` comments are ignored and CLI ``--set key=value``
flags override file keys.  Every run writes curve/metric files, a
``summary.json`` with per-policy medians and IQRs, and a ``manifest.json``
holding the fully resolved config and its hash, so any artifact can be
regenerated from its manifest alone.

Verbs: ``run <config>``, ``compare <summary.json ...>``,
``certify-theorem <config>``.  Exit codes: 0 success, 2 config error,
3 failed certification check.  Set SHRINKOPT_WORKERS to fan seeds out
over a process pool.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .autoassist import (
    AssistantModel,
    PegasosBoss,
    PipelineConfig,
    QuadraticBoss,
    ThresholdPolicy,
    run_async,
    run_interleaved,
    run_plain_loop,
)
from .dataio import Dataset, load_libsvm, synth_strongly_convex, synth_svm
from .dual_cd import solve as dual_solve
from .linear_models import svm_objective
from .primal_sgd import (IS, POLICY_KINDS, SK, SK_BS, BatchPolicy,
                         epoch_eval_schedule, run_sgd)
from .theorem_harness import TheoremRunConfig, run_certification

WORKERS_ENV = "SHRINKOPT_WORKERS"

CURVE_HEADER = "policy,seed,n_updates,n_evals,elapsed_s,objective"


class ConfigError(Exception):
    """Invalid or missing configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config format

_DATA_DEFAULTS = {
    "data": "synth",            # "synth" or a libsvm-format file path
    "n": "1000",
    "dim": "20",
    "margin": "1.0",
    "flip_prob": "0.01",
    "data_seed": "0",
}

DEFAULTS: dict[str, dict[str, str]] = {
    "svm_primal": {
        **_DATA_DEFAULTS,
        "lam": "0.001",
        "n_epochs": "10",
        "policies": "plain,sk,sk_bs,is",
        "threshold": "0.1",
        "criterion": "loss",
        "floor_prob": "0.1",
        "chunk_size": "4096",
        "refresh_period": "",   # empty = one refresh per chunk_size updates
        "points_per_epoch": "10",
        "target_factor": "1.01",
        "dual_tol": "1e-8",
        "dual_max_epochs": "2000",
        "record_time": "true",
        "seeds": "0",
    },
    "svm_dual": {
        **_DATA_DEFAULTS,
        "lam": "0.001",
        "C": "",                # empty = 1 / (lam * n)
        "tol": "1e-4",
        "max_epochs": "1000",
        "use_shrinking": "true",
        "eps_shrink": "0.1",
        "compare_shrinking": "false",
        "record_time": "true",
        "seeds": "0",
    },
    "theorem": {
        "n": "100",
        "dim": "10",
        "mu": "1.0",
        "spread": "1.0",
        "problem_seed": "0",
        "n_steps": "100000",
        "n_seeds": "30",
        "mode": "shrunk",
        "record_every": "0",
        "cert_seed": "0",
        "slope_min": "-1.3",
        "slope_max": "-0.7",
    },
    "autoassist": {
        **_DATA_DEFAULTS,
        "boss": "svm",          # or "quadratic"
        "mu": "1.0",
        "spread": "1.0",
        "problem_seed": "0",
        "lam": "0.001",
        "driver": "interleaved",  # interleaved | async | plain
        "batch_size": "8",
        "n_boss_steps": "200",
        "k_low_water": "8",
        "cap_boss": "16",
        "cap_assistant": "64",
        "metrics_every": "10",
        "candidate_mode": "permutation",
        "boss_cost_s": "0",
        "assistant_cost_s": "0",
        "gamma": "0.1",
        "learning_rate": "0.1",
        "threshold_kind": "quantile",
        "threshold_T": "0.0",
        "threshold_q": "0.5",
        "threshold_window": "1000",
        "use_label_feature": "false",
        "seeds": "0",
    },
}

TASKS = tuple(DEFAULTS)


def parse_config_text(text: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        cfg[key] = value.strip()
    return cfg


def load_config(path: str, overrides: list[str] = ()) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    cfg = parse_config_text(p.read_text())
    for ov in overrides:
        if "=" not in ov:
            raise ConfigError(f"override must be key=value, got {ov!r}")
        key, _, value = ov.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def config_text(cfg: dict[str, str]) -> str:
    return "".join(f"{k} = {cfg[k]}\n" for k in sorted(cfg))


def config_hash(cfg: dict[str, str]) -> str:
    # out_dir does not change what is computed, only where it lands.
    hashable = {k: v for k, v in cfg.items() if k != "out_dir"}
    return hashlib.sha256(config_text(hashable).encode()).hexdigest()


_MISSING = object()


def get_str(cfg, key, default=_MISSING, choices=None) -> str:
    if key in cfg:
        val = cfg[key]
    elif default is not _MISSING:
        val = default
    else:
        raise ConfigError(f"missing required key {key!r}")
    if choices is not None and val not in choices:
        raise ConfigError(
            f"key {key!r}: expected one of {', '.join(choices)}; got {val!r}")
    return val


def get_int(cfg, key, default=_MISSING, lo=None, hi=None) -> int:
    raw = get_str(cfg, key, default if default is _MISSING else str(default))
    try:
        val = int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None
    _check_range(key, val, lo, hi)
    return val


def get_float(cfg, key, default=_MISSING, lo=None, hi=None) -> float:
    raw = get_str(cfg, key, default if default is _MISSING else str(default))
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from None
    if not math.isfinite(val):
        raise ConfigError(f"key {key!r}: must be finite, got {raw!r}")
    _check_range(key, val, lo, hi)
    return val


def _check_range(key, val, lo, hi) -> None:
    if lo is not None and val < lo:
        raise ConfigError(f"key {key!r}: must be >= {lo}, got {val}")
    if hi is not None and val > hi:
        raise ConfigError(f"key {key!r}: must be <= {hi}, got {val}")


def get_bool(cfg, key, default=_MISSING) -> bool:
    raw = get_str(cfg, key, default if default is _MISSING else str(default)).lower()
    if raw in ("true", "1", "yes", "on"):
        return True
    if raw in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")


def get_seeds(cfg, key="seeds") -> list[int]:
    raw = get_str(cfg, key)
    seeds: list[int] = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        a, sep, b = part.partition("-")
        if sep and a.strip().isdigit() and b.strip().isdigit():
            lo, hi = int(a), int(b)
            if hi < lo:
                raise ConfigError(f"key {key!r}: bad range {part!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            try:
                seeds.append(int(part))
            except ValueError:
                raise ConfigError(f"key {key!r}: bad seed {part!r}") from None
    if not seeds:
        raise ConfigError(f"key {key!r}: at least one seed is required")
    if len(set(seeds)) != len(seeds):
        raise ConfigError(f"key {key!r}: seeds must be distinct")
    return seeds


# ---------------------------------------------------------------------------
# output helpers


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _read_json(path: str) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"file not found: {path}")
    with open(p) as fh:
        return json.load(fh)


def _write_curve_csv(path: Path, rows, extra: str = "") -> None:
    """rows: (policy, seed, n_updates, n_evals, elapsed_s, objective, *extras)."""
    with open(path, "w") as fh:
        fh.write(CURVE_HEADER + extra + "\n")
        for policy, seed, n_upd, n_ev, elapsed, obj, *rest in rows:
            cells = [policy, str(seed), str(n_upd), str(n_ev),
                     _fmt(elapsed), _fmt(obj)] + [str(r) for r in rest]
            fh.write(",".join(cells) + "\n")


def _stat_block(by_seed: dict[int, float | None]) -> dict:
    reached = [v for v in by_seed.values() if v is not None]
    block: dict = {
        "per_seed": {str(s): v for s, v in by_seed.items()},
        "n_reached": len(reached),
        "n_seeds": len(by_seed),
    }
    if reached:
        q25, q75 = np.percentile(reached, [25, 75])
        block["median"] = float(np.median(reached))
        block["iqr"] = [float(q25), float(q75)]
    else:
        block["median"] = None
        block["iqr"] = None
    return block


def _n_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    return max(1, n)


def _map_tasks(fn, tasks: list) -> list:
    workers = min(_n_workers(), len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, tasks))


# ---------------------------------------------------------------------------
# task runners


def _load_dataset(cfg) -> Dataset:
    src = get_str(cfg, "data")
    if src == "synth":
        return synth_svm(
            get_int(cfg, "n", lo=1),
            get_int(cfg, "dim", lo=1),
            margin=get_float(cfg, "margin"),
            flip_prob=get_float(cfg, "flip_prob", lo=0.0),
            seed=get_int(cfg, "data_seed"),
        )
    if not Path(src).is_file():
        raise ConfigError(f"key 'data': file not found: {src}")
    return load_libsvm(src)


def _first_hit(curve, target: float):
    """(n_updates, elapsed) at the first snapshot at or under target."""
    for n_upd, _, elapsed, obj in curve:
        if obj <= target:
            return n_upd, elapsed
    return None, None


def _primal_worker(args):
    dataset, lam, label, pkwargs, seed, n_epochs, schedule = args
    policy = BatchPolicy(**pkwargs)
    _, _, curve = run_sgd(dataset, policy, lam, n_epochs, seed, schedule)
    return label, seed, [(p.n_updates, p.n_evals, p.elapsed, p.objective)
                         for p in curve]


def _run_svm_primal(cfg, out_dir: Path):
    dataset = _load_dataset(cfg)
    n = len(dataset)
    lam = get_float(cfg, "lam")
    if lam <= 0:
        raise ConfigError("key 'lam': must be > 0")
    n_epochs = get_int(cfg, "n_epochs", lo=1)
    seeds = get_seeds(cfg)
    record_time = get_bool(cfg, "record_time")
    names = [s.strip() for s in get_str(cfg, "policies").split(",") if s.strip()]
    if not names:
        raise ConfigError("key 'policies': at least one policy is required")
    for nm in names:
        if nm not in POLICY_KINDS:
            raise ConfigError(
                f"key 'policies': unknown policy {nm!r} "
                f"(choose from {', '.join(POLICY_KINDS)})")
    schedule = epoch_eval_schedule(n, n_epochs, get_int(cfg, "points_per_epoch", lo=1))

    # The dual solver pins the target objective all policies race toward.
    C = 1.0 / (lam * n)
    dual = dual_solve(dataset, C, tol=get_float(cfg, "dual_tol"),
                      max_epochs=get_int(cfg, "dual_max_epochs", lo=1), seed=0)
    opt = svm_objective(dual.primal_model(dataset), dataset)
    target_factor = get_float(cfg, "target_factor", lo=1.0)
    target = target_factor * opt

    criterion = get_str(cfg, "criterion", choices=("loss", "grad_norm"))
    pkwargs: dict[str, dict] = {}
    for nm in names:
        kw: dict = {"kind": nm, "criterion": criterion}
        if nm in (SK, SK_BS):
            kw["threshold"] = get_float(cfg, "threshold", lo=0.0)
        if nm == SK_BS:
            kw["floor_prob"] = get_float(cfg, "floor_prob", lo=0.0, hi=1.0)
        if nm == IS:
            kw["chunk_size"] = get_int(cfg, "chunk_size", lo=1)
            if cfg.get("refresh_period", ""):
                kw["refresh_period"] = get_int(cfg, "refresh_period", lo=1)
        pkwargs[nm] = kw
    labels = {nm: BatchPolicy(**pkwargs[nm]).label() for nm in names}

    tasks = [(dataset, lam, labels[nm], pkwargs[nm], seed, n_epochs, schedule)
             for nm in names for seed in seeds]
    results = _map_tasks(_primal_worker, tasks)
    by_label: dict[str, list] = {labels[nm]: [] for nm in names}
    for label, seed, curve in results:
        by_label[label].append((seed, curve))

    outputs = []
    policies_summary: dict[str, dict] = {}
    for nm in names:
        label = labels[nm]
        rows = []
        upd_by_seed: dict[int, float | None] = {}
        time_by_seed: dict[int, float | None] = {}
        final_by_seed: dict[int, float] = {}
        for seed, curve in by_label[label]:
            for n_upd, n_ev, elapsed, obj in curve:
                rows.append((label, seed, n_upd, n_ev,
                             elapsed if record_time else 0.0, obj))
            n_upd, elapsed = _first_hit(curve, target)
            upd_by_seed[seed] = None if n_upd is None else float(n_upd)
            time_by_seed[seed] = None if elapsed is None else (
                elapsed if record_time else 0.0)
            final_by_seed[seed] = curve[-1][3]
        fname = f"curves_{nm}.csv"
        _write_curve_csv(out_dir / fname, rows)
        outputs.append(fname)
        policies_summary[label] = {
            "updates_to_target": _stat_block(upd_by_seed),
            "time_to_target": _stat_block(time_by_seed),
            "final_objective": _stat_block(final_by_seed),
        }

    summary = {
        "task": "svm_primal",
        "target": target,
        "target_factor": target_factor,
        "opt_objective": opt,
        "dual_converged": dual.converged,
        "record_time": record_time,
        "seeds": seeds,
        "policies": policies_summary,
    }
    _write_json(out_dir / "summary.json", summary)
    outputs.append("summary.json")
    return summary, outputs


def _run_svm_dual(cfg, out_dir: Path):
    dataset = _load_dataset(cfg)
    n = len(dataset)
    lam = get_float(cfg, "lam")
    craw = get_str(cfg, "C")
    if craw:
        C = get_float(cfg, "C")
    else:
        if lam <= 0:
            raise ConfigError("key 'lam': must be > 0")
        C = 1.0 / (lam * n)
    if C <= 0:
        raise ConfigError("key 'C': must be > 0")
    tol = get_float(cfg, "tol")
    if tol <= 0:
        raise ConfigError("key 'tol': must be > 0")
    max_epochs = get_int(cfg, "max_epochs", lo=1)
    eps_shrink = get_float(cfg, "eps_shrink", lo=0.0)
    use_shrinking = get_bool(cfg, "use_shrinking")
    compare = get_bool(cfg, "compare_shrinking")
    record_time = get_bool(cfg, "record_time")
    seeds = get_seeds(cfg)

    variants = [("DualCD" if use_shrinking else "DualCD_NoShrink", use_shrinking)]
    if compare:
        variants.append(("DualCD_NoShrink" if use_shrinking else "DualCD",
                         not use_shrinking))

    rows = []
    per_seed: dict[str, dict] = {}
    for label, shrink in variants:
        for seed in seeds:
            res = dual_solve(dataset, C, tol=tol, max_epochs=max_epochs,
                             use_shrinking=shrink, eps_shrink=eps_shrink,
                             seed=seed)
            for n_upd, n_ev, elapsed, obj, n_active, max_pg in res.curve:
                rows.append((label, seed, n_upd, n_ev,
                             elapsed if record_time else 0.0, obj, n_active,
                             max_pg))
            primal = svm_objective(res.primal_model(dataset), dataset)
            dualobj = res.state.dual_objective()
            per_seed.setdefault(label, {})[str(seed)] = {
                "converged": res.converged,
                "n_sweeps": res.n_sweeps,
                "n_updates": res.n_updates,
                "n_evals": res.n_evals,
                "n_failed_checks": res.n_failed_checks,
                "dual_objective": dualobj,
                "primal_objective": primal,
                "rel_gap": abs(primal + dualobj) / max(abs(primal), 1e-300),
            }
    _write_curve_csv(out_dir / "curves_dual.csv", rows, extra=",n_active,max_pg")
    summary = {
        "task": "svm_dual",
        "C": C,
        "tol": tol,
        "record_time": record_time,
        "seeds": seeds,
        "variants": per_seed,
    }
    _write_json(out_dir / "summary.json", summary)
    return summary, ["curves_dual.csv", "summary.json"]


def _run_theorem(cfg, out_dir: Path):
    try:
        problem = synth_strongly_convex(
            get_int(cfg, "n", lo=1), get_int(cfg, "dim", lo=1),
            mu=get_float(cfg, "mu"), spread=get_float(cfg, "spread"),
            seed=get_int(cfg, "problem_seed"))
        run_cfg = TheoremRunConfig(
            problem=problem,
            n_steps=get_int(cfg, "n_steps"),
            n_seeds=get_int(cfg, "n_seeds"),
            mode=get_str(cfg, "mode", choices=("shrunk", "plain")),
            record_every=get_int(cfg, "record_every"),
            seed=get_int(cfg, "cert_seed"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    report = run_certification(run_cfg)
    _write_json(out_dir / "certification.json", report)
    return report, ["certification.json"]


def _run_autoassist(cfg, out_dir: Path):
    boss_kind = get_str(cfg, "boss", choices=("svm", "quadratic"))
    driver = get_str(cfg, "driver", choices=("interleaved", "async", "plain"))
    seeds = get_seeds(cfg)
    try:
        if boss_kind == "svm":
            dataset = _load_dataset(cfg)
            lam = get_float(cfg, "lam")
            n_features = dataset.n_features

            def make_boss():
                return PegasosBoss(dataset, lam)
        else:
            problem = synth_strongly_convex(
                get_int(cfg, "n", lo=1), get_int(cfg, "dim", lo=1),
                mu=get_float(cfg, "mu"), spread=get_float(cfg, "spread"),
                seed=get_int(cfg, "problem_seed"))
            n_features = problem.dim

            def make_boss():
                return QuadraticBoss(problem)

        def make_assistant():
            return AssistantModel.zeros(
                n_features,
                learning_rate=get_float(cfg, "learning_rate", lo=0.0),
                gamma=get_float(cfg, "gamma"),
                threshold=ThresholdPolicy(
                    kind=get_str(cfg, "threshold_kind", choices=("fixed", "quantile")),
                    T=get_float(cfg, "threshold_T"),
                    q=get_float(cfg, "threshold_q"),
                    window=get_int(cfg, "threshold_window", lo=1)),
                use_label_feature=get_bool(cfg, "use_label_feature"))

        def make_pipeline_config(seed: int) -> PipelineConfig:
            return PipelineConfig(
                batch_size=get_int(cfg, "batch_size", lo=1),
                n_boss_steps=get_int(cfg, "n_boss_steps", lo=1),
                k_low_water=get_int(cfg, "k_low_water", lo=1),
                cap_boss=get_int(cfg, "cap_boss", lo=1),
                cap_assistant=get_int(cfg, "cap_assistant", lo=1),
                metrics_every=get_int(cfg, "metrics_every", lo=1),
                seed=seed,
                candidate_mode=get_str(cfg, "candidate_mode",
                                       choices=("permutation", "uniform")),
                boss_cost_s=get_float(cfg, "boss_cost_s", lo=0.0),
                assistant_cost_s=get_float(cfg, "assistant_cost_s", lo=0.0))

        make_pipeline_config(seeds[0])   # surface validation errors up front
        make_assistant()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    outputs = []
    per_seed: dict[str, dict] = {}
    failed = False
    for seed in seeds:
        boss = make_boss()
        pcfg = make_pipeline_config(seed)
        if driver == "plain":
            result = run_plain_loop(boss, pcfg)
        elif driver == "interleaved":
            result = run_interleaved(boss, make_assistant(), pcfg)
        else:
            result = run_async(boss, make_assistant(), pcfg)
        fname = f"metrics_{seed}.jsonl"
        with open(out_dir / fname, "w") as fh:
            for line in result.metrics:
                fh.write(json.dumps(line) + "\n")
        outputs.append(fname)
        per_seed[str(seed)] = {
            "final_objective": boss.objective(),
            "steps_done": result.steps_done,
            "throughput": result.throughput,
            "boss_idle_s": result.boss_idle_s,
            "assistant_idle_s": result.assistant_idle_s,
            "starvation_events": result.stats.starvation_events,
            "reports_dropped": result.reports_dropped,
            "failure": result.failure,
        }
        failed = failed or result.failure is not None

    finals = [v["final_objective"] for v in per_seed.values()]
    summary = {
        "task": "autoassist",
        "driver": driver,
        "boss": boss_kind,
        "seeds": seeds,
        "median_final_objective": float(np.median(finals)),
        "per_seed": per_seed,
    }
    _write_json(out_dir / "summary.json", summary)
    outputs.append("summary.json")
    if failed:
        (out_dir / "FAILED").write_text(
            "one or more seeds reported a worker failure; see summary.json\n")
    return summary, outputs


_RUNNERS = {
    "svm_primal": _run_svm_primal,
    "svm_dual": _run_svm_dual,
    "theorem": _run_theorem,
    "autoassist": _run_autoassist,
}


def resolve_config(cfg: dict[str, str]) -> dict[str, str]:
    """Fill in per-task defaults and reject unknown keys."""
    task = get_str(cfg, "task", choices=TASKS)
    defaults = DEFAULTS[task]
    unknown = set(cfg) - set(defaults) - {"task", "out_dir"}
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} for task {task!r}")
    resolved = dict(defaults)
    resolved.update(cfg)
    return resolved


def run_experiment(cfg: dict[str, str]):
    """Run one experiment config; returns its summary dict.

    Writes the task's artifact files plus manifest.json into out_dir.  On a
    mid-run failure the partial outputs stay on disk next to a FAILED
    marker holding the traceback.
    """
    resolved = resolve_config(cfg)
    task = resolved["task"]
    out_dir = Path(get_str(resolved, "out_dir"))
    out_dir.mkdir(parents=True, exist_ok=True)
    wall0, proc0 = time.monotonic(), time.process_time()
    try:
        summary, outputs = _RUNNERS[task](resolved, out_dir)
    except ConfigError:
        raise
    except Exception:
        (out_dir / "FAILED").write_text(traceback.format_exc())
        raise
    manifest = {
        "task": task,
        "version": __version__,
        "config_hash": config_hash(resolved),
        "config": {k: resolved[k] for k in sorted(resolved)},
        "seeds": summary.get("seeds", []),
        "outputs": sorted(outputs),
        "wall_time_s": time.monotonic() - wall0,
        "process_time_s": time.process_time() - proc0,
    }
    _write_json(out_dir / "manifest.json", manifest)
    return summary


# ---------------------------------------------------------------------------
# compare


def _boot_ci(vals, rng: np.random.Generator, n_boot: int) -> list[float]:
    arr = np.asarray(vals, dtype=float)
    meds = np.median(rng.choice(arr, size=(n_boot, arr.size), replace=True), axis=1)
    return [float(np.percentile(meds, 2.5)), float(np.percentile(meds, 97.5))]


def _paired_ratios(num: dict[str, float | None],
                   den: dict[str, float | None]) -> list[float]:
    ratios = []
    for seed in den:
        a, b = num.get(seed), den.get(seed)
        if a is not None and b is not None and b != 0:
            ratios.append(a / b)
    return ratios


def compare_policies(summaries: list[dict], baseline: str = "Plain",
                     n_boot: int = 2000, seed: int = 12345) -> dict:
    """Ratio table (policy / baseline) of updates- and time-to-target.

    Ratios are paired per seed; the 95% intervals come from bootstrapped
    medians over the seed pairs.  All summaries must share one target.
    """
    if not summaries:
        raise ConfigError("no summaries given")
    targets = []
    policies: dict[str, dict] = {}
    for s in summaries:
        if "target" not in s or "policies" not in s:
            raise ConfigError("summary lacks 'target'/'policies' "
                              "(expected svm_primal summary.json)")
        targets.append(float(s["target"]))
        for label, entry in s["policies"].items():
            if label in policies:
                raise ConfigError(f"policy {label!r} appears in multiple summaries")
            policies[label] = entry
    for t in targets[1:]:
        if not math.isclose(t, targets[0], rel_tol=1e-12, abs_tol=0.0):
            raise ConfigError(
                f"summaries have mismatched targets: {targets[0]!r} vs {t!r}")
    if baseline not in policies:
        raise ConfigError(f"baseline policy {baseline!r} not found in summaries")

    base_u = policies[baseline]["updates_to_target"]["per_seed"]
    base_t = policies[baseline]["time_to_target"]["per_seed"]
    rng = np.random.default_rng(seed)
    rows = []
    for label, entry in policies.items():
        u_ratios = _paired_ratios(entry["updates_to_target"]["per_seed"], base_u)
        t_ratios = _paired_ratios(entry["time_to_target"]["per_seed"], base_t)
        row = {"policy": label, "n_pairs": len(u_ratios)}
        if u_ratios:
            row["updates_ratio_median"] = float(np.median(u_ratios))
            row["updates_ratio_ci"] = _boot_ci(u_ratios, rng, n_boot)
        else:
            row["updates_ratio_median"] = None
            row["updates_ratio_ci"] = None
        if t_ratios:
            row["time_ratio_median"] = float(np.median(t_ratios))
            row["time_ratio_ci"] = _boot_ci(t_ratios, rng, n_boot)
        else:
            row["time_ratio_median"] = None
            row["time_ratio_ci"] = None
        rows.append(row)
    return {"baseline": baseline, "target": targets[0], "rows": rows}


def _print_compare(result: dict) -> None:
    print(f"baseline: {result['baseline']}    target objective: "
          f"{result['target']:.6g}")
    print(f"{'policy':<16}{'pairs':>6}{'updates ratio':>16}{'95% CI':>22}"
          f"{'time ratio':>14}{'95% CI':>22}")

    def cell(val, width, spec=".3f"):
        return (format(val, spec) if val is not None else "-").rjust(width)

    def ci_cell(ci, width):
        if ci is None:
            return "-".rjust(width)
        return f"[{ci[0]:.3f}, {ci[1]:.3f}]".rjust(width)

    for row in result["rows"]:
        print(f"{row['policy']:<16}{row['n_pairs']:>6}"
              f"{cell(row['updates_ratio_median'], 16)}"
              f"{ci_cell(row['updates_ratio_ci'], 22)}"
              f"{cell(row['time_ratio_median'], 14)}"
              f"{ci_cell(row['time_ratio_ci'], 22)}")


# ---------------------------------------------------------------------------
# certification gate


def certification_failures(report: dict, slope_min: float,
                           slope_max: float) -> list[str]:
    failures = []
    vf = report["violation_fraction_3se"]
    if vf != 0.0:
        failures.append(
            f"averaged error exceeds the L/k bound beyond 3 SE at "
            f"{vf:.1%} of recorded steps")
    slope = report["slope_last_decade"]
    if not math.isfinite(slope) or not slope_min <= slope <= slope_max:
        failures.append(
            f"last-decade log-log slope {slope:.3f} outside "
            f"[{slope_min}, {slope_max}]")
    return failures


def _skip_summary(report: dict) -> str:
    """The gated chain's overall skip fraction and the last decade of steps
    in which it skipped at all, read off the per-decade skip rates."""
    rates = report["skip_rate_per_decade"]
    spans = {}
    for decade in rates:
        lo, hi = decade.split("-")
        spans[decade] = int(hi) - int(lo) + 1
    overall = sum(rates[d] * spans[d] for d in rates) / sum(spans.values())
    last = [d for d, r in rates.items() if r > 0.0]
    return (f"gated chain skipped {overall:.3%} of steps, "
            f"last in steps {last[-1] if last else 'none'}")


# ---------------------------------------------------------------------------
# CLI


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="shrinkopt",
        description="Run and compare shrinking-SGD experiments.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key")
    p_run.add_argument("--out", help="output directory (overrides out_dir)")

    p_cmp = sub.add_parser("compare",
                           help="tabulate policy ratios from summary files")
    p_cmp.add_argument("summaries", nargs="+", help="summary.json files")
    p_cmp.add_argument("--baseline", default="Plain")
    p_cmp.add_argument("--json", dest="json_out",
                       help="also write the table as JSON")

    p_cert = sub.add_parser("certify-theorem",
                            help="run the bound certification and gate on it")
    p_cert.add_argument("config")
    p_cert.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE")
    p_cert.add_argument("--out", help="output directory (overrides out_dir)")

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            cfg = load_config(args.config, args.overrides)
            if args.out:
                cfg["out_dir"] = args.out
            summary = run_experiment(cfg)
            print(f"task {summary.get('task', cfg.get('task'))}: "
                  f"wrote {cfg['out_dir']}")
            return 0

        if args.verb == "compare":
            result = compare_policies([_read_json(p) for p in args.summaries],
                                      baseline=args.baseline)
            _print_compare(result)
            if args.json_out:
                _write_json(Path(args.json_out), result)
            return 0

        cfg = load_config(args.config, args.overrides)
        if args.out:
            cfg["out_dir"] = args.out
        cfg.setdefault("task", "theorem")
        if cfg["task"] != "theorem":
            raise ConfigError("certify-theorem requires task = theorem")
        resolved = resolve_config(cfg)
        slope_min = get_float(resolved, "slope_min")
        slope_max = get_float(resolved, "slope_max")
        report = run_experiment(cfg)
        failures = certification_failures(report, slope_min, slope_max)
        if failures:
            for f in failures:
                print(f"FAIL: {f}")
            print(_skip_summary(report))
            return 3
        print(f"certification passed: slope {report['slope_last_decade']:.3f}, "
              f"no bound violations beyond 3 SE "
              f"(L = {report['constants']['L']:.6g}); {_skip_summary(report)}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
