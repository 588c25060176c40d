"""Stochastic subgradient solver and batch-policy tests."""

from __future__ import annotations

import math

import numpy as np
import pytest

from shrinkopt import dual_cd
from shrinkopt.dataio import SparseInstance, parse_libsvm, synth_svm
from shrinkopt.linear_models import PrimalModel, hinge_loss, svm_objective
from shrinkopt.primal_sgd import (BatchPolicy, CostLedger, PolicyError,
                                  criterion_value, epoch_eval_schedule,
                                  is_step, pegasos_step,
                                  refresh_importance_weights, run_sgd,
                                  shrink_decide)


def _inst(indices, values, label=1.0):
    return SparseInstance(label=label, indices=np.asarray(indices),
                          values=np.asarray(values, dtype=float))


def test_policy_validation():
    with pytest.raises(ValueError, match="unknown policy kind"):
        BatchPolicy(kind="nope")
    with pytest.raises(ValueError, match="unknown criterion"):
        BatchPolicy(kind="sk", criterion="energy")
    with pytest.raises(ValueError):
        BatchPolicy(kind="sk_bs", floor_prob=0.0)
    with pytest.raises(ValueError):
        BatchPolicy(kind="sk", threshold=-1.0)
    with pytest.raises(ValueError):
        BatchPolicy(kind="is", chunk_size=0)
    # the decaying-gate kind always scores by gradient norm
    pol = BatchPolicy(kind="theorem", threshold=2.0, criterion="loss")
    assert pol.criterion == "grad_norm"
    assert BatchPolicy(kind="is").effective_refresh_period == 4096
    assert BatchPolicy(kind="is", chunk_size=64).effective_refresh_period == 64
    assert BatchPolicy(kind="is", refresh_period=7).effective_refresh_period == 7


def test_policy_labels():
    labels = [BatchPolicy(kind=k).label()
              for k in ("plain", "sk", "sk_bs", "is", "theorem")]
    assert labels == ["Plain", "SK", "SK_BS", "IS", "TheoremMode"]


def test_step_size_formula_via_pure_shrink():
    # lam=1, k=2 -> eta=0.5; inactive hinge means pure shrink by (1 - eta*lam)
    m = PrimalModel(w=np.array([0.8, 0.0]), lam=1.0, C=1.0)
    x = _inst([0], [2.0])  # margin = 0.8*2 = 1.6 >= 1, inactive
    led = CostLedger()
    pegasos_step(m, (x,), k=2, ledger=led)
    np.testing.assert_allclose(m.w, [0.4, 0.0], rtol=1e-15)
    assert led.n_updates == 1


def test_pegasos_step_active_update():
    lam = 0.5
    m = PrimalModel(w=np.zeros(2), lam=lam, C=1.0)
    x = _inst([1], [3.0], label=-1.0)
    pegasos_step(m, (x,), k=1)
    # eta = 1/lam = 2; w_new = 0 + eta * y * x then projection to 1/sqrt(lam)
    raw = np.array([0.0, 2.0 * -1.0 * 3.0])
    radius = 1.0 / math.sqrt(lam)
    np.testing.assert_allclose(m.w, raw * radius / np.linalg.norm(raw), rtol=1e-15)


def test_pegasos_step_batch_mean_of_pre_step_margins():
    # lam=1, k=2 -> eta=0.5.  Both margins are read at the pre-step w: the
    # first instance is active (margin 0), the second inactive (margin 2),
    # even though the first one's update would change the second's margin.
    m = PrimalModel(w=np.array([0.0, 1.0]), lam=1.0, C=1.0)
    a = _inst([0], [1.0])
    b = _inst([0, 1], [1.0, 2.0])
    led = CostLedger()
    pegasos_step(m, (a, b), k=2, ledger=led, loss_weight=3.0)
    # (1 - 0.5) * [0, 1] + (0.5 * 3 / 2) * [1, 0]
    np.testing.assert_allclose(m.w, [0.75, 0.5], rtol=1e-15)
    assert led.n_updates == 1


def test_pegasos_step_rejects_bad_k():
    m = PrimalModel(w=np.zeros(1), lam=1.0, C=1.0)
    with pytest.raises(ValueError):
        pegasos_step(m, (_inst([0], [1.0]),), k=0)


def test_projection_invariant_along_trajectory():
    rng = np.random.default_rng(0)
    ds = synth_svm(50, 4, margin=0.5, flip_prob=0.2, seed=0)
    for lam in (0.05, 1.0, 5.0):
        m = PrimalModel.zeros(4, lam, len(ds))
        radius = 1.0 / math.sqrt(lam)
        for k in range(1, 300):
            pegasos_step(m, (ds.instances[int(rng.integers(50))],), k)
            assert float(np.linalg.norm(m.w)) <= radius + 1e-12


def test_pegasos_approaches_dual_optimum():
    # 1e4 plain steps on clean separable data land within 5% of the
    # exact-solver optimum
    ds = synth_svm(1000, 8, margin=1.0, flip_prob=0.0, seed=7)
    lam = 0.1
    dres = dual_cd.solve(ds, C=1.0 / (lam * len(ds)), tol=1e-8,
                         max_epochs=2000, seed=0)
    assert dres.converged
    opt = svm_objective(dres.primal_model(ds), ds)
    model, ledger, _ = run_sgd(ds, BatchPolicy(kind="plain"), lam,
                               n_epochs=10, seed=1)
    assert ledger.n_updates == 10_000
    final = svm_objective(model, ds)
    assert final <= 1.05 * opt


def test_criterion_value_loss_and_grad_norm():
    m = PrimalModel(w=np.array([0.5]), lam=1.0, C=1.0)
    x = _inst([0], [1.0])  # margin 0.5, loss 0.5, active
    assert criterion_value(BatchPolicy(kind="sk"), m, x) == 0.5
    gpol = BatchPolicy(kind="sk", criterion="grad_norm")
    assert criterion_value(gpol, m, x) == 1.0  # ||x||
    # inactive arrival scores zero under both criteria
    far = PrimalModel(w=np.array([2.0]), lam=1.0, C=1.0)
    assert criterion_value(BatchPolicy(kind="sk"), far, x) == 0.0
    assert criterion_value(gpol, far, x) == 0.0


def test_shrink_decide_sk_threshold():
    rng = np.random.default_rng(0)
    led = CostLedger()
    x = _inst([0], [1.0])
    pol = BatchPolicy(kind="sk", threshold=1.0)
    # loss 0.5 -> skip; loss 1.5 -> keep
    assert not shrink_decide(pol, PrimalModel(w=np.array([0.5]), lam=1, C=1),
                             x, 1, rng, led)
    assert shrink_decide(pol, PrimalModel(w=np.array([-0.5]), lam=1, C=1),
                         x, 1, rng, led)
    # boundary: value exactly T keeps
    assert shrink_decide(pol, PrimalModel(w=np.array([0.0]), lam=1, C=1),
                         x, 1, rng, led)
    assert led.n_evals == 3


def test_shrink_decide_wrong_kind():
    rng = np.random.default_rng(0)
    m = PrimalModel(w=np.zeros(1), lam=1, C=1)
    for kind in ("plain", "is"):
        with pytest.raises(PolicyError):
            shrink_decide(BatchPolicy(kind=kind), m, _inst([0], [1.0]), 1, rng)


def test_sk_bs_floor_rate_monte_carlo():
    # zero criterion value -> acceptance probability is exactly the floor
    pol = BatchPolicy(kind="sk_bs", threshold=1.0, floor_prob=0.1)
    m = PrimalModel(w=np.array([2.0]), lam=1, C=1)
    x = _inst([0], [1.0])  # margin 2, loss 0
    rng = np.random.default_rng(123)
    led = CostLedger()
    n = 10_000
    keeps = sum(shrink_decide(pol, m, x, 1, rng, led) for _ in range(n))
    assert abs(keeps / n - 0.1) < 0.01
    assert led.n_evals == n


def test_sk_bs_value_proportional_acceptance():
    # value/T = 0.46 beats the floor, so that is the acceptance rate
    pol = BatchPolicy(kind="sk_bs", threshold=1.0, floor_prob=0.1)
    m = PrimalModel(w=np.array([0.54]), lam=1, C=1)
    x = _inst([0], [1.0])  # loss 0.46
    rng = np.random.default_rng(5)
    n = 20_000
    keeps = sum(shrink_decide(pol, m, x, 1, rng) for _ in range(n))
    assert abs(keeps / n - 0.46) < 0.01


def test_theorem_gate_is_strict_and_decaying():
    pol = BatchPolicy(kind="theorem", threshold=2.0)
    m = PrimalModel(w=np.zeros(1), lam=1, C=1)
    x = _inst([0], [1.0])  # active at w=0, grad norm 1
    rng = np.random.default_rng(0)
    assert not shrink_decide(pol, m, x, 1, rng)   # 1 > 2/1 false
    assert not shrink_decide(pol, m, x, 2, rng)   # 1 > 2/2 false (strict)
    assert shrink_decide(pol, m, x, 3, rng)       # 1 > 2/3 true


def test_refresh_weights_normalization():
    # active gradient norms [1, 3] -> p = [0.25, 0.75] up to smoothing
    ds = parse_libsvm("+1 1:1.0\n+1 2:3.0")
    m = PrimalModel.zeros(2, 1.0, 2)
    pol = BatchPolicy(kind="is", chunk_size=2)
    led = CostLedger()
    rng = np.random.default_rng(0)
    refresh_importance_weights(m, ds, pol, rng, led)
    order = np.argsort(pol.chunk)
    np.testing.assert_allclose(pol.probs[order], [0.25, 0.75], rtol=1e-7)
    assert led.n_weight_refreshes == 1
    assert led.n_evals == 2
    assert pol.probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(pol.probs > 0)


def test_refresh_weights_all_inactive_uniform():
    ds = parse_libsvm("+1 1:2.0\n+1 2:2.0\n+1 1:1.0 2:1.0")
    m = PrimalModel(w=np.array([5.0, 5.0]), lam=1.0, C=1.0)  # all margins >= 1
    pol = BatchPolicy(kind="is", chunk_size=3)
    refresh_importance_weights(m, ds, pol, np.random.default_rng(0))
    np.testing.assert_allclose(pol.probs, 1.0 / 3.0, rtol=1e-12)


def test_refresh_weights_wrong_kind():
    ds = parse_libsvm("+1 1:1.0")
    m = PrimalModel.zeros(1, 1.0, 1)
    with pytest.raises(PolicyError):
        refresh_importance_weights(m, ds, BatchPolicy(kind="plain"),
                                   np.random.default_rng(0))


def test_weighted_expectation_equals_chunk_mean():
    # sum_j p_j * (1/(|C| p_j)) * g_j telescopes to the chunk mean; check
    # by direct summation against an independently computed mean gradient
    ds = synth_svm(40, 5, margin=0.8, flip_prob=0.1, seed=2)
    rng = np.random.default_rng(3)
    m = PrimalModel(w=rng.standard_normal(5) * 0.3, lam=1.0, C=1.0)
    pol = BatchPolicy(kind="is", chunk_size=40)
    refresh_importance_weights(m, ds, pol, rng)

    def loss_grad(i):
        inst = ds.instances[i]
        g = np.zeros(5)
        if inst.label * float(m.w[inst.indices] @ inst.values) < 1.0:
            g[inst.indices] = -inst.label * inst.values
        return g

    grads = np.array([loss_grad(int(i)) for i in pol.chunk])
    weighted = (pol.probs[:, None] * grads / (len(pol.chunk) * pol.probs[:, None]))
    np.testing.assert_allclose(weighted.sum(axis=0), grads.mean(axis=0),
                               rtol=0, atol=1e-10)


def test_is_step_uniform_weight_matches_plain_step():
    ds = synth_svm(20, 4, margin=0.8, flip_prob=0.0, seed=4)
    lam = 0.5
    pol = BatchPolicy(kind="is", chunk_size=20, refresh_period=1000)
    pol.chunk = np.arange(20)
    pol.probs = np.full(20, 1.0 / 20.0)
    pol._cdf = np.cumsum(pol.probs)
    m = PrimalModel.zeros(4, lam, 20)
    rng = np.random.default_rng(9)
    rng_replay = np.random.default_rng(9)
    for k in range(1, 30):
        i = is_step(m, pol, ds, k, rng)
        u = rng_replay.random()
        j = int(np.searchsorted(pol._cdf, u, side="right"))
        assert i == int(pol.chunk[min(j, 19)])
    # uniform p over the chunk gives weight exactly 1: replay the same
    # index sequence through plain steps and demand bitwise equality
    m2 = PrimalModel.zeros(4, lam, 20)
    rng2 = np.random.default_rng(9)
    for k in range(1, 30):
        u = rng2.random()
        j = min(int(np.searchsorted(pol._cdf, u, side="right")), 19)
        pegasos_step(m2, (ds.instances[int(pol.chunk[j])],), k)
    np.testing.assert_array_equal(m.w, m2.w)


def test_is_step_degenerate_distribution():
    ds = parse_libsvm("+1 1:1.0\n-1 2:1.0")
    pol = BatchPolicy(kind="is", chunk_size=2, refresh_period=1000)
    pol.chunk = np.array([0, 1])
    pol.probs = np.array([1.0, 0.0])
    pol._cdf = np.cumsum(pol.probs)
    m = PrimalModel.zeros(2, 1.0, 2)
    rng = np.random.default_rng(1)
    drawn = {is_step(m, pol, ds, k, rng) for k in range(1, 51)}
    assert drawn == {0}
    # inverse-probability weight is 1/(|C| * 1) = 0.5
    m2 = PrimalModel.zeros(2, 1.0, 2)
    for k in range(1, 51):
        pegasos_step(m2, (ds.instances[0],), k, loss_weight=0.5)
    np.testing.assert_array_equal(m.w, m2.w)


def test_is_step_draw_frequencies_match_probs():
    ds = synth_svm(10, 3, margin=0.5, flip_prob=0.0, seed=6)
    lam = 1e-6  # keep steps tiny so probs stay meaningful as w drifts
    pol = BatchPolicy(kind="is", chunk_size=10, refresh_period=10 ** 6)
    m = PrimalModel.zeros(3, lam, 10)
    rng = np.random.default_rng(8)
    refresh_importance_weights(m, ds, pol, rng)
    probs = pol.probs.copy()
    n = 100_000
    counts = np.zeros(10)
    m_frozen = PrimalModel(w=np.zeros(3), lam=1.0, C=1.0)
    for k in range(1, n + 1):
        # frozen model: the draw only consults the cdf, never w
        j = is_step(m_frozen, pol, ds, 1, rng)
        counts[np.flatnonzero(pol.chunk == j)[0]] += 1
    freq = counts / n
    se = np.sqrt(probs * (1 - probs) / n)
    assert np.all(np.abs(freq - probs) <= 3 * se + 1.0 / n)


def test_is_step_stale_and_unrefreshed_errors():
    ds = parse_libsvm("+1 1:1.0")
    m = PrimalModel.zeros(1, 1.0, 1)
    pol = BatchPolicy(kind="is", chunk_size=1, refresh_period=2)
    rng = np.random.default_rng(0)
    with pytest.raises(PolicyError, match="never refreshed"):
        is_step(m, pol, ds, 1, rng)
    refresh_importance_weights(m, ds, pol, rng)
    is_step(m, pol, ds, 1, rng)
    is_step(m, pol, ds, 2, rng)
    with pytest.raises(PolicyError, match="stale"):
        is_step(m, pol, ds, 3, rng)
    with pytest.raises(PolicyError):
        is_step(m, BatchPolicy(kind="sk"), ds, 1, rng)


def test_epoch_eval_schedule():
    assert epoch_eval_schedule(100, 2) == [100, 200]
    assert epoch_eval_schedule(100, 1, points_per_epoch=4) == [25, 50, 75, 100]
    sched = epoch_eval_schedule(7, 3, points_per_epoch=2)
    assert sched[-1] == 21
    assert all(b > a for a, b in zip(sched, sched[1:]))


def test_run_sgd_plain_counts():
    ds = synth_svm(200, 6, margin=1.0, flip_prob=0.1, seed=0)
    _, ledger, curve = run_sgd(ds, BatchPolicy(kind="plain"), 0.1,
                               n_epochs=3, seed=0)
    assert ledger.n_updates == 600
    assert ledger.n_evals == 600
    assert curve[-1].n_updates == 600


def test_run_sgd_sk_zero_threshold_matches_plain():
    ds = synth_svm(150, 5, margin=1.0, flip_prob=0.1, seed=1)
    m1, led1, c1 = run_sgd(ds, BatchPolicy(kind="plain"), 0.1, 4, seed=3)
    m2, led2, c2 = run_sgd(ds, BatchPolicy(kind="sk", threshold=0.0),
                           0.1, 4, seed=3)
    np.testing.assert_array_equal(m1.w, m2.w)
    assert led1.n_updates == led2.n_updates
    assert [p.objective for p in c1] == [p.objective for p in c2]


def test_run_sgd_eval_counts_sk_family():
    ds = synth_svm(120, 5, margin=1.0, flip_prob=0.1, seed=2)
    for kind in ("sk", "sk_bs"):
        _, ledger, _ = run_sgd(ds, BatchPolicy(kind=kind, threshold=0.2),
                               0.1, 5, seed=0)
        assert ledger.n_evals == 600
        assert ledger.n_updates <= ledger.n_evals


def test_run_sgd_deterministic():
    ds = synth_svm(100, 4, margin=0.8, flip_prob=0.2, seed=3)
    for kind, kw in (("plain", {}), ("sk_bs", {"threshold": 0.3}),
                     ("is", {"chunk_size": 64, "refresh_period": 32})):
        out = []
        for _ in range(2):
            m, led, curve = run_sgd(ds, BatchPolicy(kind=kind, **kw),
                                    0.05, 3, seed=11)
            out.append((m.w.copy(), led.n_updates, led.n_evals,
                        [p.objective for p in curve]))
        np.testing.assert_array_equal(out[0][0], out[1][0])
        assert out[0][1:] == out[1][1:]


def test_run_sgd_curve_monotone_counters():
    ds = synth_svm(100, 4, margin=0.8, flip_prob=0.1, seed=4)
    sched = epoch_eval_schedule(100, 4, points_per_epoch=5)
    for kind in ("plain", "is"):
        _, _, curve = run_sgd(ds, BatchPolicy(kind=kind, chunk_size=50,
                                              refresh_period=25),
                              0.05, 4, seed=0, eval_schedule=sched)
        assert len(curve) == len(sched)
        for a, b in zip(curve, curve[1:]):
            assert b.n_updates >= a.n_updates
            assert b.n_evals >= a.n_evals
            assert b.elapsed >= a.elapsed


def test_run_sgd_is_refresh_accounting():
    ds = synth_svm(300, 5, margin=0.8, flip_prob=0.1, seed=5)
    pol = BatchPolicy(kind="is", chunk_size=100, refresh_period=50)
    _, ledger, _ = run_sgd(ds, pol, 0.05, 2, seed=0)
    # one upfront refresh plus one per 50 updates over 600 arrivals
    assert ledger.n_updates == 600
    assert ledger.n_weight_refreshes == 12
    # every refresh scores the whole chunk
    assert ledger.n_evals == 12 * 100


def test_run_sgd_rejects_bad_epochs():
    ds = synth_svm(10, 3, margin=1.0, flip_prob=0.0, seed=0)
    with pytest.raises(ValueError):
        run_sgd(ds, BatchPolicy(kind="plain"), 0.1, 0, seed=0)


def test_threshold_policies_save_updates_at_matched_quality():
    # A mid-band threshold should reach a fixed objective level with fewer
    # updates than the update-everything baseline, and land within 1% of it
    # after the same number of epochs.  The margin here is small relative to
    # the ball radius so skipped points stay rare near the optimum.
    ds = synth_svm(10_000, 16, margin=0.1, flip_prob=0.05, seed=42)
    sched = epoch_eval_schedule(10_000, 3, points_per_epoch=100)
    _, led_p, curve_p = run_sgd(ds, BatchPolicy(kind="plain"), 0.05, 3,
                                seed=0, eval_schedule=sched)
    level = 1.01 * curve_p[-1].objective
    hit_p = next(p.n_updates for p in curve_p if p.objective <= level)
    for kind in ("sk", "sk_bs"):
        pol = BatchPolicy(kind=kind, threshold=0.1)
        _, led, curve = run_sgd(ds, pol, 0.05, 3, seed=0, eval_schedule=sched)
        hit = next((p.n_updates for p in curve if p.objective <= level), None)
        assert hit is not None and hit < hit_p
        assert led.n_updates < led_p.n_updates
        rel = abs(curve[-1].objective - curve_p[-1].objective)
        assert rel / curve_p[-1].objective < 0.01
