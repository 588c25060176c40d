"""Dual coordinate descent solver tests."""

from __future__ import annotations

import numpy as np
import pytest

from shrinkopt import dual_cd
from shrinkopt.dataio import parse_libsvm, synth_svm
from shrinkopt.dual_cd import (DualState, coordinate_gradient,
                               projected_gradient, solve)
from shrinkopt.linear_models import svm_objective


def _w_from_alpha(ds, alpha):
    """The primal vector sum_j alpha_j y_j x_j, built from scratch."""
    return ds.X.T @ (alpha * ds.labels)


def test_first_update_clips_to_box():
    # alpha=0, w=0, Q_ii=1, C=1: gradient is -1, exact step hits the C bound
    ds = parse_libsvm("+1 1:1.0")
    assert coordinate_gradient(DualState.init(ds, C=1.0).w, ds.row(0)) == -1.0
    res = solve(ds, C=1.0, max_epochs=1)
    assert res.n_updates == 1
    assert res.state.alpha[0] == 1.0
    np.testing.assert_array_equal(res.state.w, [1.0])


def test_zero_gradient_is_noop():
    # C=2: the first sweep moves alpha to 1 (interior), where y w.x = 1 and
    # the gradient is 0, so the second sweep evaluates but does not update;
    # the KKT check at the end evaluates the one row once more
    ds = parse_libsvm("+1 1:1.0")
    res = solve(ds, C=2.0, max_epochs=2, use_shrinking=False)
    assert res.converged
    assert (res.n_sweeps, res.n_evals, res.n_updates) == (2, 3, 1)
    assert res.curve[-1][5] == 0.0
    assert res.state.alpha[0] == 1.0


def test_projected_gradient_cases():
    assert projected_gradient(0.0, 1.0, C=1.0) == 0.0
    assert projected_gradient(0.0, -1.0, C=1.0) == -1.0
    assert projected_gradient(1.0, -1.0, C=1.0) == 0.0
    assert projected_gradient(1.0, 1.0, C=1.0) == 1.0
    assert projected_gradient(0.5, 0.3, C=1.0) == 0.3


def test_pg_zero_iff_update_noop():
    # solve updates a coordinate only when its projected gradient is
    # nonzero; that skips exactly the coordinates whose box-clipped Newton
    # step would leave alpha where it is
    ds = synth_svm(30, 4, margin=0.5, flip_prob=0.2, seed=0)
    rng = np.random.default_rng(1)
    C = 0.7
    for _ in range(20):
        state = DualState.init(ds, C)
        state.alpha = rng.choice([0.0, C, 0.0, 0.35], size=30)
        state.w = _w_from_alpha(ds, state.alpha)
        for i in range(30):
            grad = coordinate_gradient(state.w, ds.row(i))
            alpha_i = float(state.alpha[i])
            pg = projected_gradient(alpha_i, grad, C)
            stepped = min(max(alpha_i - grad / state.qdiag[i], 0.0), C)
            assert (pg == 0.0) == (stepped == alpha_i)


def test_zero_diag_coordinate_rejected_and_skipped():
    ds = parse_libsvm("+1\n+1 1:1.0")
    state = DualState.init(ds, C=1.0)
    assert state.n_zero_diag == 1
    assert not state.active[0] and state.active[1]
    # its dual gradient is -1 whatever alpha is, so it starts at C
    assert state.alpha.tolist() == [1.0, 0.0]
    res = solve(ds, C=1.0, tol=1e-8)
    assert res.converged
    assert res.state.alpha[0] == 1.0
    # one evaluation per sweep: the empty row is never visited; each KKT
    # check evaluates both rows
    assert res.n_evals == res.n_sweeps + 2 * (res.n_failed_checks + 1)


def test_duality_gap_closes_with_empty_rows():
    # each empty row has hinge 1 at any w, so the primal counts C for it,
    # and so must the dual
    ds = parse_libsvm("+1 1:1.0 2:0.5\n-1\n+1 2:-1.0\n-1\n-1 1:0.3 3:2.0")
    res = solve(ds, C=1.0, tol=1e-10)
    assert res.converged
    w = res.state.w
    primal = svm_objective(res.primal_model(ds), ds)
    dual = float(res.state.alpha.sum()) - 0.5 * float(w @ w)
    assert dual == -res.state.dual_objective()
    assert abs(primal - dual) <= 1e-9


def test_shrink_candidate_rule():
    # alpha at 0 with inward gradient, and at C with outward gradient
    assert dual_cd._shrink_candidate(0.0, 0.2, C=1.0, eps=0.1)
    assert not dual_cd._shrink_candidate(0.0, 0.05, C=1.0, eps=0.1)
    assert dual_cd._shrink_candidate(1.0, -0.2, C=1.0, eps=0.1)
    assert not dual_cd._shrink_candidate(1.0, 0.3, C=1.0, eps=0.1)
    assert not dual_cd._shrink_candidate(0.5, 5.0, C=1.0, eps=0.1)


def test_shrink_pass_interior_untouched():
    # an interior alpha is never a shrink candidate, whatever its gradient
    ds = synth_svm(20, 3, margin=0.5, flip_prob=0.1, seed=2)
    state = DualState.init(ds, C=1.0)
    state.alpha[:] = 0.5  # all interior
    state.w = _w_from_alpha(ds, state.alpha)
    for i in range(len(ds)):
        grad = coordinate_gradient(state.w, ds.row(i))
        assert not dual_cd._shrink_candidate(0.5, grad, 1.0, 0.1)
        assert not dual_cd._shrink_candidate(0.5, 100.0 * grad, 1.0, 0.1)


def test_c_to_zero_collapses():
    ds = synth_svm(50, 4, margin=1.0, flip_prob=0.0, seed=3)
    res = solve(ds, C=1e-12, tol=1e-10)
    assert res.converged
    assert np.all(res.state.alpha <= 1e-12)
    assert float(np.linalg.norm(res.state.w)) < 1e-9


def test_solve_validation_and_nonconvergence():
    ds = synth_svm(200, 6, margin=0.5, flip_prob=0.2, seed=4)
    with pytest.raises(ValueError):
        solve(ds, C=1.0, tol=0.0)
    res = solve(ds, C=1.0, tol=1e-12, max_epochs=1)
    assert not res.converged
    assert res.n_sweeps == 1


def test_box_feasible_and_consistent_after_solve():
    ds = synth_svm(150, 5, margin=0.8, flip_prob=0.1, seed=5)
    res = solve(ds, C=0.05, tol=1e-6)
    a = res.state.alpha
    assert np.all(a >= 0.0) and np.all(a <= 0.05)
    np.testing.assert_allclose(_w_from_alpha(ds, a), res.state.w,
                               rtol=0, atol=1e-8)


def test_dual_objective_monotone_per_sweep():
    ds = synth_svm(200, 6, margin=0.6, flip_prob=0.1, seed=6)
    res = solve(ds, C=0.1, tol=1e-8)
    objs = [row[3] for row in res.curve]
    for a, b in zip(objs, objs[1:]):
        assert b <= a + 1e-12


def test_curve_schema():
    ds = synth_svm(100, 4, margin=0.8, flip_prob=0.1, seed=7)
    res = solve(ds, C=0.1, tol=1e-6)
    n_active_seen = set()
    for row in res.curve:
        n_updates, n_evals, elapsed, obj, n_active, max_pg = row
        assert n_evals >= n_updates >= 0
        assert elapsed >= 0.0
        assert 0 <= n_active <= len(ds)
        assert max_pg >= 0.0
        n_active_seen.add(n_active)
    # shrinking actually removed coordinates at some point
    assert min(n_active_seen) < len(ds)
    # one row per sweep plus one per KKT check; the last check passed
    n_checks = len(res.curve) - res.n_sweeps
    assert n_checks == res.n_failed_checks + 1
    assert res.converged and res.curve[-1][5] < 1e-6


def test_infinite_eps_matches_unshrunk_prefix():
    ds = synth_svm(120, 5, margin=0.8, flip_prob=0.1, seed=8)
    plain = solve(ds, C=0.1, tol=1e-6, use_shrinking=False, seed=0)
    inf_eps = solve(ds, C=0.1, tol=1e-6, use_shrinking=True,
                    eps_shrink=np.inf, seed=0)
    # nothing is ever shrunk, so the two solves are the same solve, bit for
    # bit (elapsed time aside), ending on the same passing KKT check
    assert inf_eps.shrunk_at_convergence.size == 0
    assert inf_eps.converged and plain.converged
    assert inf_eps.n_sweeps == plain.n_sweeps
    assert (inf_eps.n_evals, inf_eps.n_updates, inf_eps.n_failed_checks) == (
        plain.n_evals, plain.n_updates, 0)
    assert inf_eps.state.alpha.tobytes() == plain.state.alpha.tobytes()
    assert inf_eps.state.w.tobytes() == plain.state.w.tobytes()
    assert len(inf_eps.curve) == len(plain.curve) == plain.n_sweeps + 1
    for a, b in zip(plain.curve, inf_eps.curve):
        assert a[:2] + a[3:] == b[:2] + b[3:]


def test_failed_check_resumes_and_certifies_returned_point():
    # one of the few small sets where the first KKT check fails, so the
    # solve sweeps again before a second check certifies its point
    ds = synth_svm(200, 8, margin=0.5, flip_prob=0.1, seed=5)
    C = 1.0 / (0.01 * len(ds))
    res = solve(ds, C=C, tol=1e-3, seed=0)
    assert res.converged and res.n_failed_checks == 1
    assert len(res.curve) == res.n_sweeps + res.n_failed_checks + 1
    w = _w_from_alpha(ds, res.state.alpha)
    grads = ds.labels * (ds.X @ w) - 1.0
    assert max(abs(projected_gradient(a, g, C))
               for a, g in zip(res.state.alpha, grads)) < 1e-3


def test_shrunk_set_excludes_support_vectors():
    ds = synth_svm(400, 6, margin=1.0, flip_prob=0.02, seed=9)
    C = 1.0 / (0.01 * len(ds))
    ref = solve(ds, C=C, tol=1e-10, use_shrinking=False, max_epochs=4000)
    assert ref.converged
    res = solve(ds, C=C, tol=1e-8, max_epochs=4000)
    assert res.converged
    shrunk = res.shrunk_at_convergence
    assert shrunk is not None and shrunk.size > 0
    # shrunk coordinates sit at the bound they were pinned to, and the
    # reference minimizer's KKT conditions agree with the side: alpha=0
    # needs margin >= 1 (non-support vector), alpha=C needs margin <= 1
    # (bound support vector); alpha itself can be non-unique on the margin,
    # the primal vector w* is not
    margins = ds.labels * (ds.X @ ref.state.w)
    for i in shrunk:
        # nothing moves a shrunk coordinate, so it sits exactly at its bound
        pinned = res.state.alpha[i]
        assert pinned == 0.0 or pinned == C
        if pinned == 0.0:
            assert margins[i] >= 1.0 - 1e-3
        else:
            assert margins[i] <= 1.0 + 1e-3


def test_shrink_noshrink_objectives_agree():
    ds = synth_svm(500, 8, margin=1.0, flip_prob=0.05, seed=10)
    C = 1.0 / (0.01 * len(ds))
    a = solve(ds, C=C, tol=1e-7, max_epochs=4000, use_shrinking=True)
    b = solve(ds, C=C, tol=1e-7, max_epochs=4000, use_shrinking=False)
    assert a.converged and b.converged
    da, db = a.state.dual_objective(), b.state.dual_objective()
    assert abs(da - db) / abs(da) < 1e-6


def test_duality_gap_closes_at_convergence():
    ds = synth_svm(300, 6, margin=1.0, flip_prob=0.05, seed=11)
    C = 1.0 / (0.02 * len(ds))
    res = solve(ds, C=C, tol=1e-8, max_epochs=4000)
    assert res.converged
    primal = svm_objective(res.primal_model(ds), ds)
    w = _w_from_alpha(ds, res.state.alpha)
    gap = primal - (float(res.state.alpha.sum()) - 0.5 * float(w @ w))
    assert gap >= -1e-9          # weak duality up to rounding
    assert gap / abs(primal) < 1e-4


def test_primal_model_carries_equivalent_lambda():
    ds = synth_svm(50, 4, margin=1.0, flip_prob=0.0, seed=12)
    res = solve(ds, C=2.0, tol=1e-6)
    m = res.primal_model(ds)
    assert m.C == 2.0
    assert m.lam == pytest.approx(1.0 / (2.0 * 50))


def test_dual_state_init_validation():
    ds = parse_libsvm("+1 1:1.0")
    with pytest.raises(ValueError):
        DualState.init(ds, C=0.0)


def test_solver_deterministic():
    ds = synth_svm(150, 5, margin=0.7, flip_prob=0.1, seed=13)
    r1 = solve(ds, C=0.1, tol=1e-7, seed=5)
    r2 = solve(ds, C=0.1, tol=1e-7, seed=5)
    np.testing.assert_array_equal(r1.state.alpha, r2.state.alpha)
    assert r1.n_updates == r2.n_updates
    assert [row[3] for row in r1.curve] == [row[3] for row in r2.curve]
