from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from shrinkopt.autoassist import METRIC_KEYS
from shrinkopt.experiments import (CURVE_HEADER, ConfigError, compare_policies,
                                   config_hash, get_bool, get_float, get_int,
                                   get_seeds, get_str, load_config, main,
                                   parse_config_text, resolve_config,
                                   run_experiment)


def _write_cfg(path: Path, lines: dict[str, str]) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
    return path


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_text_basics():
    cfg = parse_config_text("# comment\n\n a = 1 \nb=x=y\n")
    assert cfg == {"a": "1", "b": "x=y"}


def test_parse_config_text_errors():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("no separator here")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 3")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2")


def test_load_config_overrides(tmp_path):
    p = _write_cfg(tmp_path / "c.cfg", {"a": "1", "b": "2"})
    cfg = load_config(str(p), ["b=9", "c=3"])
    assert cfg == {"a": "1", "b": "9", "c": "3"}
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "missing.cfg"))
    with pytest.raises(ConfigError, match="key=value"):
        load_config(str(p), ["oops"])


def test_config_hash_ignores_out_dir_only():
    base = {"task": "theorem", "n": "10", "out_dir": "a"}
    moved = dict(base, out_dir="elsewhere")
    changed = dict(base, n="11")
    assert config_hash(base) == config_hash(moved)
    assert config_hash(base) != config_hash(changed)


def test_typed_getters():
    cfg = {"i": "5", "f": "2.5", "b": "yes", "s": "red", "inf": "inf"}
    assert get_int(cfg, "i", lo=0, hi=10) == 5
    assert get_float(cfg, "f") == 2.5
    assert get_bool(cfg, "b") is True
    assert get_bool(cfg, "missing", default="off") is False
    assert get_str(cfg, "s", choices=("red", "blue")) == "red"
    for key, fn in (("f", get_int), ("s", get_float), ("s", get_bool)):
        with pytest.raises(ConfigError, match=repr(key)):
            fn(cfg, key)
    with pytest.raises(ConfigError, match="finite"):
        get_float(cfg, "inf")
    with pytest.raises(ConfigError, match=">= 6"):
        get_int(cfg, "i", lo=6)
    with pytest.raises(ConfigError, match="one of"):
        get_str(cfg, "s", choices=("blue",))
    with pytest.raises(ConfigError, match="missing required"):
        get_str(cfg, "absent")


def test_get_seeds_forms():
    assert get_seeds({"seeds": "0,1,2"}) == [0, 1, 2]
    assert get_seeds({"seeds": "3-6"}) == [3, 4, 5, 6]
    assert get_seeds({"seeds": "0, 5-7"}) == [0, 5, 6, 7]
    for bad in ("", "1,1", "5-3", "x"):
        with pytest.raises(ConfigError):
            get_seeds({"seeds": bad})


def test_resolve_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="'lamb'"):
        resolve_config({"task": "svm_primal", "lamb": "0.1"})
    with pytest.raises(ConfigError, match="'task'"):
        resolve_config({"task": "svm_priml"})
    resolved = resolve_config({"task": "svm_primal", "lam": "0.5"})
    assert resolved["lam"] == "0.5"
    assert resolved["n_epochs"] == "10"


# ---------------------------------------------------------------------------
# svm_primal runs


_PRIMAL_CFG = {
    "task": "svm_primal",
    "n": "200",
    "dim": "5",
    "margin": "0.1",
    "flip_prob": "0.05",
    "data_seed": "1",
    "lam": "0.05",
    "n_epochs": "4",
    "policies": "plain,sk",
    "threshold": "0.1",
    "points_per_epoch": "5",
    "target_factor": "1.1",
    "record_time": "false",
    "seeds": "0,1",
}


def _run_primal(tmp_path, name="out", **extra):
    cfg = dict(_PRIMAL_CFG, out_dir=str(tmp_path / name), **extra)
    summary = run_experiment(cfg)
    return cfg, summary, tmp_path / name


def test_svm_primal_run_artifacts(tmp_path):
    cfg, summary, out = _run_primal(tmp_path)
    assert {"curves_plain.csv", "curves_sk.csv", "summary.json",
            "manifest.json"} <= {p.name for p in out.iterdir()}
    assert set(summary["policies"]) == {"Plain", "SK"}
    for entry in summary["policies"].values():
        assert set(entry) == {"updates_to_target", "time_to_target",
                              "final_objective"}
        assert entry["updates_to_target"]["n_reached"] == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == config_hash(manifest["config"])
    assert manifest["outputs"] == sorted(
        ["curves_plain.csv", "curves_sk.csv", "summary.json"])
    assert manifest["seeds"] == [0, 1]
    header = (out / "curves_plain.csv").read_text().splitlines()[0]
    assert header == CURVE_HEADER


def test_svm_primal_summary_matches_csv_reaggregation(tmp_path):
    _, summary, out = _run_primal(tmp_path)
    target = summary["target"]
    for fname, label in (("curves_plain.csv", "Plain"), ("curves_sk.csv", "SK")):
        by_seed: dict[str, list] = {}
        lines = (out / fname).read_text().splitlines()
        assert lines[0] == CURVE_HEADER
        for line in lines[1:]:
            policy, seed, n_upd, _, _, obj = line.split(",")
            assert policy == label
            by_seed.setdefault(seed, []).append((int(n_upd), float(obj)))
        stat = summary["policies"][label]["updates_to_target"]["per_seed"]
        finals = summary["policies"][label]["final_objective"]["per_seed"]
        assert set(by_seed) == set(stat)
        for seed, rows in by_seed.items():
            hit = next((u for u, obj in rows if obj <= target), None)
            assert stat[seed] == (None if hit is None else float(hit))
            assert finals[seed] == rows[-1][1]


def test_svm_primal_regenerates_from_manifest(tmp_path):
    _, _, out_a = _run_primal(tmp_path, "a")
    manifest = json.loads((out_a / "manifest.json").read_text())
    cfg = dict(manifest["config"], out_dir=str(tmp_path / "b"))
    run_experiment(cfg)
    for name in ("curves_plain.csv", "curves_sk.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_svm_primal_parallel_workers_identical(tmp_path, monkeypatch):
    _, _, out_a = _run_primal(tmp_path, "serial")
    monkeypatch.setenv("SHRINKOPT_WORKERS", "2")
    _, _, out_b = _run_primal(tmp_path, "pooled")
    for name in ("curves_plain.csv", "curves_sk.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_svm_primal_rejects_unknown_policy(tmp_path):
    with pytest.raises(ConfigError, match="unknown policy"):
        _run_primal(tmp_path, policies="plain,sgd")


# ---------------------------------------------------------------------------
# compare


def test_compare_policies_self_ratio(tmp_path):
    _, summary, _ = _run_primal(tmp_path)
    result = compare_policies([summary])
    rows = {r["policy"]: r for r in result["rows"]}
    assert rows["Plain"]["updates_ratio_median"] == 1.0
    assert rows["Plain"]["updates_ratio_ci"] == [1.0, 1.0]
    assert rows["SK"]["n_pairs"] == 2
    assert rows["SK"]["updates_ratio_median"] > 0


def test_compare_policies_errors(tmp_path):
    _, summary, _ = _run_primal(tmp_path)
    with pytest.raises(ConfigError, match="no summaries"):
        compare_policies([])
    with pytest.raises(ConfigError, match="svm_primal"):
        compare_policies([{"task": "theorem"}])
    with pytest.raises(ConfigError, match="multiple summaries"):
        compare_policies([summary, summary])
    other = json.loads(json.dumps(summary))
    other["target"] *= 2.0
    other["policies"] = {"IS": other["policies"].pop("Plain")}
    with pytest.raises(ConfigError, match="mismatched targets"):
        compare_policies([summary, other])
    with pytest.raises(ConfigError, match="baseline"):
        compare_policies([summary], baseline="Ghost")


# ---------------------------------------------------------------------------
# svm_dual task


def test_svm_dual_run(tmp_path):
    cfg = {
        "task": "svm_dual", "n": "120", "dim": "4", "margin": "1.0",
        "flip_prob": "0.05", "data_seed": "2", "lam": "0.02", "tol": "1e-6",
        "compare_shrinking": "true", "record_time": "false", "seeds": "0",
        "out_dir": str(tmp_path / "dual"),
    }
    summary = run_experiment(cfg)
    assert set(summary["variants"]) == {"DualCD", "DualCD_NoShrink"}
    for entry in summary["variants"].values():
        info = entry["0"]
        assert info["converged"]
        assert info["rel_gap"] < 1e-3
        assert info["n_evals"] > 0 and info["n_failed_checks"] >= 0
    lines = (tmp_path / "dual" / "curves_dual.csv").read_text().splitlines()
    assert lines[0] == CURVE_HEADER + ",n_active,max_pg"
    # the last row of each variant is its passing test, below tol
    last = {}
    for line in lines[1:]:
        cells = line.split(",")
        last[cells[0]] = float(cells[-1])
    assert set(last) == {"DualCD", "DualCD_NoShrink"}
    assert all(0.0 <= pg < 1e-6 for pg in last.values())


# ---------------------------------------------------------------------------
# theorem task and the certification gate


_THEOREM_CFG = {
    "task": "theorem", "n": "20", "dim": "3", "n_steps": "10000",
    "n_seeds": "30", "record_every": "200",
}


def test_certify_theorem_cli_pass(tmp_path, capsys):
    p = _write_cfg(tmp_path / "t.cfg", _THEOREM_CFG)
    code = main(["certify-theorem", str(p), "--out", str(tmp_path / "cert")])
    out = capsys.readouterr().out
    assert code == 0
    assert "certification passed" in out
    report = json.loads((tmp_path / "cert" / "certification.json").read_text())
    assert report["violation_fraction_3se"] == 0.0
    assert -1.3 <= report["slope_last_decade"] <= -0.7
    # the verdict line names the gated chain's skip fraction over all steps
    # and the last decade in which it skipped at all
    rates = report["skip_rate_per_decade"]
    skipped = rates["1-9"] * 9 + rates["10-99"] * 90 + rates["100-999"] * 900 \
        + rates["1000-9999"] * 9000 + rates["10000-10000"]
    last = max((d for d, r in rates.items() if r > 0), key=lambda d: int(d.split("-")[0]))
    assert f"skipped {skipped / 10_000:.3%} of steps" in out
    assert f"last in steps {last}" in out


def test_certify_theorem_cli_gate_failure(tmp_path, capsys):
    p = _write_cfg(tmp_path / "t.cfg", _THEOREM_CFG)
    code = main(["certify-theorem", str(p), "--out", str(tmp_path / "cert"),
                 "--set", "slope_min=0.5", "--set", "slope_max=0.6"])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


def test_certify_theorem_cli_config_errors(tmp_path, capsys):
    assert main(["certify-theorem", str(tmp_path / "nope.cfg")]) == 2
    p = _write_cfg(tmp_path / "t.cfg", dict(_THEOREM_CFG, bogus="1"))
    assert main(["certify-theorem", str(p), "--out", str(tmp_path / "x")]) == 2
    q = _write_cfg(tmp_path / "p.cfg", {"task": "svm_primal"})
    assert main(["certify-theorem", str(q), "--out", str(tmp_path / "y")]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_cli_requires_out_dir(tmp_path, capsys):
    p = _write_cfg(tmp_path / "t.cfg", _THEOREM_CFG)
    assert main(["run", str(p)]) == 2
    assert "out_dir" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# autoassist task


def test_autoassist_run(tmp_path):
    cfg = {
        "task": "autoassist", "boss": "quadratic", "n": "30", "dim": "4",
        "driver": "interleaved", "n_boss_steps": "30", "metrics_every": "10",
        "batch_size": "4", "k_low_water": "2", "cap_boss": "4",
        "seeds": "0,1", "out_dir": str(tmp_path / "aa"),
    }
    summary = run_experiment(cfg)
    assert math.isfinite(summary["median_final_objective"])
    for seed in ("0", "1"):
        info = summary["per_seed"][seed]
        assert info["steps_done"] == 30
        assert info["failure"] is None
    lines = (tmp_path / "aa" / "metrics_0.jsonl").read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        assert tuple(json.loads(line)) == METRIC_KEYS


def test_run_cli_autoassist_via_argv(tmp_path):
    p = _write_cfg(tmp_path / "a.cfg", {
        "task": "autoassist", "boss": "quadratic", "n": "20", "dim": "3",
        "n_boss_steps": "20", "metrics_every": "10", "batch_size": "4",
        "k_low_water": "2", "cap_boss": "4", "seeds": "0",
    })
    code = main(["run", str(p), "--set", "driver=plain",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "summary.json").is_file()
    assert (tmp_path / "out" / "manifest.json").is_file()
