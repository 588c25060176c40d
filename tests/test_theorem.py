"""Convergence-bound certification harness tests."""

from __future__ import annotations

import numpy as np
import pytest

from shrinkopt.dataio import synth_strongly_convex
from shrinkopt.linear_models import ComponentProblem
from shrinkopt.theorem_harness import (TheoremRunConfig, _run_batch,
                                       bound_constant, run_certification,
                                       uniform_ball)


@pytest.fixture(scope="module")
def small_problem():
    return synth_strongly_convex(20, 3, mu=1.0, spread=1.0, seed=0)


def _ks(*ks):
    return np.asarray(ks, dtype=np.int64)


@pytest.fixture(scope="module")
def cert_report(small_problem):
    cfg = TheoremRunConfig(problem=small_problem, n_steps=10_000,
                           n_seeds=30, seed=0)
    return run_certification(cfg)


def test_bound_constant_examples():
    p = ComponentProblem(centers=np.zeros((1, 2)), mu=1.0, D=1.0, G=1.0, M=1.0)
    assert bound_constant(p) == 5.0
    # large mu leaves only the 4 D^2 branch
    p_big = ComponentProblem(centers=np.zeros((1, 2)), mu=1000.0,
                             D=1.0, G=1.0, M=1000.0)
    assert bound_constant(p_big) == 4.0


def test_config_validation(small_problem):
    TheoremRunConfig(problem=small_problem, n_steps=1000)
    with pytest.raises(ValueError):
        TheoremRunConfig(problem=small_problem, n_steps=999)
    with pytest.raises(ValueError):
        TheoremRunConfig(problem=small_problem, n_steps=1000, n_seeds=29)
    with pytest.raises(ValueError):
        TheoremRunConfig(problem=small_problem, n_steps=1000, mode="fast")
    with pytest.raises(ValueError):
        TheoremRunConfig(problem=small_problem, n_steps=1000, record_every=-1)
    # a zero-radius problem is degenerate for the ball-based initialization
    flat = synth_strongly_convex(1, 2, mu=1.0, spread=0.0, seed=0)
    with pytest.raises(ValueError, match="D must be"):
        TheoremRunConfig(problem=flat, n_steps=1000)
    cfg = TheoremRunConfig(problem=small_problem, n_steps=5000)
    assert cfg.effective_record_every == 50
    assert TheoremRunConfig(problem=small_problem, n_steps=1000,
                            record_every=7).effective_record_every == 7


def test_gate_always_skips_at_k_one(small_problem):
    # at k=1 the gate threshold is G itself, which bounds every component
    # gradient on the ball, so the first step never moves the iterate
    prob = small_problem
    rng = np.random.default_rng(0)
    W0 = uniform_ball(prob.dim, prob.D, rng, size=20)
    idx = rng.integers(prob.n, size=(20, 2))
    errors, skips = _run_batch(prob, idx, W0, True, _ks(1, 2))
    assert skips[0] == 20
    np.testing.assert_array_equal(errors[1], errors[0])


def test_minimizer_is_fixed_point():
    prob = synth_strongly_convex(1, 4, mu=2.0, spread=1.5, seed=3)
    W0 = np.tile(prob.w_star, (3, 1))
    idx = np.zeros((3, 1000), dtype=np.int64)
    for shrink in (True, False):
        # the gradient at w* is exactly zero: the gate drops every step and
        # ungated SGD stays put as well
        errors, skips = _run_batch(prob, idx, W0, shrink, _ks(1, 5, 1000))
        np.testing.assert_array_equal(errors, 0.0)
        assert np.all(skips == (3 if shrink else 0))


def test_expected_applied_gradient_enumeration(small_problem):
    # E over i of the applied gradient equals grad F(w) minus the mass of
    # gated-out components, enumerated exactly
    prob = small_problem
    rng = np.random.default_rng(2)
    w = uniform_ball(prob.dim, 0.5 * prob.D, rng)
    k = 2  # threshold G/k sits inside the spread of component grad norms
    thresh = prob.G / k
    norms = np.array([np.linalg.norm(prob.component_grad(i, w))
                      for i in range(prob.n)])
    assert norms.min() < thresh < norms.max()

    eta = 1.0 / (prob.mu * k)
    applied = []
    for i in range(prob.n):
        g = prob.component_grad(i, w)
        if np.linalg.norm(g) <= thresh:
            applied.append(np.zeros(prob.dim))
        else:
            applied.append(g)
    mean_applied = np.mean(applied, axis=0)

    skipped_mass = np.mean(
        [prob.component_grad(i, w) * (norms[i] <= thresh)
         for i in range(prob.n)], axis=0)
    np.testing.assert_allclose(mean_applied, prob.grad(w) - skipped_mass,
                               rtol=0, atol=1e-12)

    # and the harness realizes exactly this rule for each component: seed i
    # draws component i each step; step 1 is always gated (k=1), step 2 is
    # the k=2 rule, and the error recorded before step 3 shows where it moved
    idx = np.repeat(np.arange(prob.n)[:, None], 3, axis=1)
    errors, skips = _run_batch(prob, idx, np.tile(w, (prob.n, 1)), True,
                               _ks(1, 3))
    assert skips[0] == prob.n
    assert skips[1] == int(np.sum(norms <= thresh))
    for i in range(prob.n):
        expect = w if norms[i] <= thresh else prob.project(
            w - eta * prob.component_grad(i, w))
        assert errors[1, i] == pytest.approx(
            float(np.sum((expect - prob.w_star) ** 2)), rel=1e-12, abs=1e-15)


def test_iterates_stay_in_ball():
    # centers in +/- pairs put w* at the origin (up to rounding), so the
    # recorded distance to w* is the iterate's norm
    rng = np.random.default_rng(4)
    half = uniform_ball(3, 1.0, rng, size=10)
    prob = ComponentProblem.from_centers(np.vstack([half, -half]), mu=1.0)
    w_star_norm = float(np.linalg.norm(prob.w_star))
    assert w_star_norm < 1e-12
    W0 = uniform_ball(prob.dim, prob.D, rng, size=30)
    idx = rng.integers(prob.n, size=(30, 500))
    for shrink in (True, False):
        errors, _ = _run_batch(prob, idx, W0, shrink, np.arange(1, 501))
        assert np.all(np.sqrt(errors) <= prob.D + w_star_norm + 1e-12)


def test_shrink_disabled_is_projected_sgd(small_problem):
    prob = small_problem
    rng = np.random.default_rng(5)
    w = uniform_ball(prob.dim, prob.D, np.random.default_rng(9))
    idx = rng.integers(prob.n, size=199)
    errors, skips = _run_batch(prob, idx[None, :], w[None, :], False,
                               np.arange(1, 200))
    assert not skips.any()
    for k in range(1, 200):
        assert errors[k - 1, 0] == pytest.approx(
            float(np.sum((w - prob.w_star) ** 2)), rel=1e-12, abs=1e-15)
        step = w - (1.0 / (prob.mu * k)) * prob.component_grad(int(idx[k - 1]), w)
        w = prob.project(step)


def test_uniform_ball_shapes_and_radius():
    rng = np.random.default_rng(6)
    one = uniform_ball(5, 2.0, rng)
    assert one.shape == (5,)
    many = uniform_ball(5, 2.0, rng, size=100)
    assert many.shape == (100, 5)
    assert np.all(np.linalg.norm(many, axis=1) <= 2.0 + 1e-12)
    a = uniform_ball(4, 1.0, np.random.default_rng(3))
    b = uniform_ball(4, 1.0, np.random.default_rng(3))
    np.testing.assert_array_equal(a, b)


def test_report_record_grid(cert_report):
    ks = cert_report["ks"]
    assert ks[0] == 1
    assert ks[-1] == 10_000
    assert ks == sorted(set(ks))
    for key in ("avg_err", "se_err", "bound", "avg_err_plain",
                "avg_err_shrunk"):
        assert len(cert_report[key]) == len(ks)


def test_certified_bound_holds(cert_report):
    assert cert_report["violation_fraction_3se"] == 0.0
    # the raw averaged curve should rarely poke above the envelope at all
    assert cert_report["violation_fraction"] <= 0.05


def test_slope_near_inverse_k(cert_report):
    assert -1.3 <= cert_report["slope_last_decade"] <= -0.7


def test_gated_curve_tracks_ungated(cert_report):
    shrunk = np.array(cert_report["avg_err_shrunk"])
    plain = np.array(cert_report["avg_err_plain"])
    assert np.all(shrunk <= 2.0 * plain + 1e-12)


def test_loss_gate_matches_gradient_gate(small_problem):
    # f_i(w) - f_i* = ||grad f_i(w)||^2 / (2 mu) with f_i* = 0 for this
    # family, so a gate on the loss at G^2/(2 mu k^2) is the gradient-norm
    # gate at G/k, and the harness runs only the latter
    prob = small_problem
    rng = np.random.default_rng(8)
    for w in uniform_ball(prob.dim, prob.D, rng, size=50):
        for i in range(prob.n):
            g = prob.component_grad(i, w)
            assert prob.component_value(i, w) == pytest.approx(
                float(g @ g) / (2.0 * prob.mu), rel=1e-12, abs=1e-15)


def test_skip_rate_decays_over_decades(cert_report):
    rates = list(cert_report["skip_rate_per_decade"].values())
    assert rates[0] > 0.0
    for a, b in zip(rates, rates[1:]):
        assert b <= a + 0.02


def test_batch_runner_matches_scalar_steps(small_problem):
    # replay the harness's exact per-seed streams through the scalar step
    prob = small_problem
    cfg = TheoremRunConfig(problem=prob, n_steps=1000, n_seeds=30, seed=42)
    report = run_certification(cfg)
    ks = report["ks"]

    seeds = np.random.SeedSequence(42).spawn(30)
    errors = np.empty((len(ks), 30))
    for s, ss in enumerate(seeds):
        rng = np.random.default_rng(ss)
        w = uniform_ball(prob.dim, prob.D, rng)
        idx = rng.integers(prob.n, size=1000)
        rec = {k: j for j, k in enumerate(ks)}
        for k in range(1, 1001):
            if k in rec:
                errors[rec[k], s] = float(np.sum((w - prob.w_star) ** 2))
            g = prob.component_grad(int(idx[k - 1]), w)
            if np.linalg.norm(g) <= prob.G / k:
                w = prob.project(w)
            else:
                w = prob.project(w - (1.0 / (prob.mu * k)) * g)
    np.testing.assert_allclose(errors.mean(axis=1), report["avg_err"],
                               rtol=1e-10, atol=1e-14)
