"""Loss kernel and quadratic-family tests, with finite-difference oracles."""

from __future__ import annotations

import numpy as np
import pytest

from shrinkopt.dataio import SparseInstance, parse_libsvm, synth_svm
from shrinkopt.linear_models import (ComponentProblem, PrimalModel,
                                     cross_entropy, hinge_loss, svm_objective)
from shrinkopt.primal_sgd import pegasos_step


def _inst(indices, values, label=1.0):
    return SparseInstance(label=label, indices=np.asarray(indices),
                          values=np.asarray(values, dtype=float))


def _model(w, lam=0.1, C=1.0):
    return PrimalModel(w=np.asarray(w, dtype=float), lam=lam, C=C)


def _step_loss_grad(w, inst, lam=0.01, k=100):
    """The loss subgradient pegasos_step applies at w, read back from the
    step: w_new = (1 - 1/k) w - eta g with eta = 1/(lam k), where k keeps
    the step inside the projection ball so no projection fires."""
    w = np.array(w, dtype=float)
    m = _model(w.copy(), lam=lam)
    pegasos_step(m, (inst,), k)
    assert float(np.linalg.norm(m.w)) < 1.0 / np.sqrt(lam)
    return ((1.0 - 1.0 / k) * w - m.w) * (lam * k)


def test_hinge_loss_examples():
    x = _inst([0], [1.0])
    assert hinge_loss(_model([0.0]), x) == 1.0
    assert hinge_loss(_model([2.0]), x) == 0.0
    assert hinge_loss(_model([0.25]), x) == 0.75
    # y * w.x = -0.5 -> loss 1.5
    assert hinge_loss(_model([0.5]), _inst([0], [1.0], label=-1.0)) == 1.5


def test_hinge_dimension_overflow():
    with pytest.raises(IndexError, match="outside model dimension"):
        hinge_loss(_model([1.0, 2.0]), _inst([5], [1.0]))


def test_hinge_subgradient_branches():
    # pegasos_step applies -y*x when y*w.x < 1 and nothing otherwise; at the
    # kink y*w.x = 1 the zero branch is chosen
    x = _inst([0], [1.0])
    np.testing.assert_array_equal(_step_loss_grad([2.0], x), [0.0])
    np.testing.assert_allclose(_step_loss_grad([0.0], x), [-1.0], rtol=1e-12)
    np.testing.assert_array_equal(_step_loss_grad([1.0], x), [0.0])


def test_hinge_subgradient_finite_differences():
    rng = np.random.default_rng(11)
    dim, h = 6, 1e-6
    for _ in range(20):
        w = rng.standard_normal(dim)
        nnz = int(rng.integers(1, dim + 1))
        idx = np.sort(rng.choice(dim, size=nnz, replace=False))
        inst = _inst(idx, rng.standard_normal(nnz),
                     label=float(rng.choice([-1.0, 1.0])))
        margin = inst.label * float(w[inst.indices] @ inst.values)
        if abs(margin - 1.0) < 1e-3:
            continue  # stay off the kink
        dense = _step_loss_grad(w, inst)
        for j in range(dim):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd = (hinge_loss(_model(wp), inst) - hinge_loss(_model(wm), inst)) / (2 * h)
            assert abs(fd - dense[j]) < 1e-5


def test_hinge_nonnegative_zero_iff_margin():
    rng = np.random.default_rng(2)
    for _ in range(200):
        w = rng.standard_normal(4)
        inst = _inst([0, 2], rng.standard_normal(2),
                     label=float(rng.choice([-1.0, 1.0])))
        loss = hinge_loss(_model(w), inst)
        assert loss >= 0.0
        margin = inst.label * float(w[inst.indices] @ inst.values)
        assert (loss == 0.0) == (margin >= 1.0)


def test_svm_objective_at_zero_weights():
    ds = parse_libsvm("+1 1:1.0\n-1 2:3.0\n+1 1:0.5 2:0.5")
    m = PrimalModel.zeros(ds.n_features, lam=0.1, n_instances=len(ds))
    assert svm_objective(m, ds) == pytest.approx(m.C * len(ds), rel=1e-15)


def test_svm_objective_loss_free_instance():
    ds = parse_libsvm("+1 1:2.0")
    m = _model([1.0], C=5.0)
    # y * w.x = 2 >= 1, only the regularizer remains
    assert svm_objective(m, ds) == pytest.approx(0.5)


def test_svm_objective_matches_naive_loop():
    ds = synth_svm(100, 8, margin=1.0, flip_prob=0.2, seed=0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        m = _model(rng.standard_normal(8), C=0.37)
        naive = 0.5 * float(m.w @ m.w)
        for inst in ds:
            naive += m.C * hinge_loss(m, inst)
        assert svm_objective(m, ds) == pytest.approx(naive, rel=1e-10)


def test_mean_loss_form_is_scaled_sum_form():
    # pegasos_step descends (lam/2)||w||^2 + mean hinge; with the C that
    # PrimalModel.zeros ties to lam, that is lam * svm_objective
    ds = synth_svm(50, 5, margin=1.0, flip_prob=0.1, seed=3)
    lam = 0.2
    rng = np.random.default_rng(4)
    for _ in range(5):
        m = PrimalModel.zeros(5, lam, len(ds))
        m.w = rng.standard_normal(5)
        mean_form = 0.5 * lam * float(m.w @ m.w) + np.mean(
            [hinge_loss(m, inst) for inst in ds])
        assert mean_form == pytest.approx(lam * svm_objective(m, ds), rel=1e-12)


def test_svm_objective_convex_on_segments():
    ds = synth_svm(60, 6, margin=1.0, flip_prob=0.1, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(50):
        a, b = rng.standard_normal((2, 6))
        fa = svm_objective(_model(a), ds)
        fb = svm_objective(_model(b), ds)
        fm = svm_objective(_model(0.5 * (a + b)), ds)
        assert fm <= 0.5 * (fa + fb) + 1e-10


def test_primal_model_validation():
    with pytest.raises(ValueError):
        PrimalModel(w=np.zeros(2), lam=0.0, C=1.0)
    with pytest.raises(ValueError):
        PrimalModel(w=np.zeros(2), lam=1.0, C=-1.0)
    m = PrimalModel.zeros(3, lam=0.5, n_instances=8)
    assert m.C == pytest.approx(1.0 / (0.5 * 8))


def test_cross_entropy_finite_at_extremes():
    assert np.isfinite(cross_entropy(0.0, 1))
    assert np.isfinite(cross_entropy(1.0, 0))
    assert cross_entropy(0.5, 1) == pytest.approx(np.log(2.0))


def test_component_problem_constants():
    rng = np.random.default_rng(7)
    centers = rng.standard_normal((12, 4))
    prob = ComponentProblem.from_centers(centers, mu=1.5)
    max_c = float(np.linalg.norm(centers, axis=1).max())
    assert prob.D == pytest.approx(max_c)
    assert prob.G == pytest.approx(prob.mu * (prob.D + max_c))
    assert prob.M == prob.mu
    assert prob.n == 12 and prob.dim == 4


def test_component_gradient_bound_on_ball():
    rng = np.random.default_rng(8)
    prob = ComponentProblem.from_centers(rng.standard_normal((10, 3)), mu=2.0)
    for _ in range(100):
        w = rng.standard_normal(3)
        w = prob.project(w * rng.random() * 2)
        for i in range(prob.n):
            assert np.linalg.norm(prob.component_grad(i, w)) <= prob.G + 1e-12


def test_component_mean_structure():
    rng = np.random.default_rng(9)
    prob = ComponentProblem.from_centers(rng.standard_normal((8, 5)), mu=0.7)
    w = rng.standard_normal(5)
    vals = [prob.component_value(i, w) for i in range(prob.n)]
    assert prob.value(w) == pytest.approx(np.mean(vals), rel=1e-12)
    grads = np.array([prob.component_grad(i, w) for i in range(prob.n)])
    np.testing.assert_allclose(prob.grad(w), grads.mean(axis=0),
                               rtol=0, atol=1e-12)


def test_strong_convexity_and_pl_are_tight():
    # for this quadratic family both inequalities hold with equality
    rng = np.random.default_rng(10)
    prob = ComponentProblem.from_centers(rng.standard_normal((15, 4)), mu=1.3)
    fstar = prob.value_star()
    for _ in range(50):
        w = rng.standard_normal(4) * 3
        gap = prob.value(w) - fstar
        sc = 0.5 * prob.mu * float(np.sum((w - prob.w_star) ** 2))
        assert gap >= sc - 1e-10
        assert gap == pytest.approx(sc, rel=1e-10, abs=1e-12)
        pl = 0.5 * float(np.sum(prob.grad(w) ** 2))
        assert prob.mu * gap <= pl + 1e-10
        assert pl == pytest.approx(prob.mu * gap, rel=1e-10, abs=1e-12)


def test_component_problem_validation():
    with pytest.raises(ValueError):
        ComponentProblem.from_centers(np.ones((2, 2)), mu=-1.0)
    # admissible ball must contain the minimizer
    with pytest.raises(ValueError, match="too small"):
        ComponentProblem.from_centers(np.array([[2.0, 0.0], [2.0, 0.0]]),
                                      mu=1.0, D=0.5)


def test_projection_onto_ball():
    prob = ComponentProblem.from_centers(np.array([[1.0, 0.0]]), mu=1.0, D=1.0)
    np.testing.assert_allclose(prob.project(np.array([3.0, 4.0])),
                               [0.6, 0.8], rtol=1e-15)
    inside = np.array([0.3, -0.2])
    np.testing.assert_array_equal(prob.project(inside), inside)
