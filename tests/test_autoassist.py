from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from shrinkopt.autoassist import (METRIC_KEYS, AssistantModel, BossBatch,
                                  BoundedChannel, IndexStream, LossReport,
                                  PegasosBoss, PipelineConfig, QuadraticBoss,
                                  SamplerStats, ThresholdPolicy,
                                  accept_candidate, assistant_train_step,
                                  boss_step, label_from_loss, run_async,
                                  run_interleaved, run_plain_loop,
                                  sample_batch)
from shrinkopt.dataio import SparseInstance, synth_svm
from shrinkopt.linear_models import (SIGMOID_CLAMP, ComponentProblem,
                                     PrimalModel, cross_entropy)
from shrinkopt.primal_sgd import pegasos_step


def _inst(label, indices, values):
    return SparseInstance(label, np.array(indices, dtype=np.int64),
                          np.array(values, dtype=float))


# ---------------------------------------------------------------------------
# labels and thresholds


def test_label_from_loss_examples():
    assert label_from_loss(0.7, 0.5) == 1
    assert label_from_loss(0.3, 0.5) == 0
    # boundary is strict: losing exactly T does not count as losing
    assert label_from_loss(0.5, 0.5) == 0
    assert label_from_loss(0.0, 0.0) == 0


def test_label_from_loss_rejects_non_finite():
    with pytest.raises(ValueError):
        label_from_loss(float("nan"), 0.5)
    with pytest.raises(ValueError):
        label_from_loss(float("inf"), 0.5)


def test_threshold_quantile_midpoint():
    pol = ThresholdPolicy(kind="quantile", T=0.7, q=0.5, window=100)
    # initial T holds until losses arrive
    assert pol.current == 0.7
    pol.extend([1.0, 2.0, 3.0, 4.0])
    assert pol.current == 2.5
    pol.extend([5.0])
    assert pol.current == 3.0


def test_threshold_window_evicts_oldest():
    pol = ThresholdPolicy(kind="quantile", q=0.5, window=2)
    pol.extend([1.0, 2.0, 3.0])
    assert pol.current == 2.5


def test_threshold_fixed_never_moves():
    pol = ThresholdPolicy(kind="fixed", T=0.25)
    pol.extend([5.0, 6.0, 7.0])
    assert pol.current == 0.25


def test_threshold_validation():
    with pytest.raises(ValueError):
        ThresholdPolicy(kind="mean")
    with pytest.raises(ValueError):
        ThresholdPolicy(kind="quantile", q=0.0)
    with pytest.raises(ValueError):
        ThresholdPolicy(kind="quantile", q=1.0)
    with pytest.raises(ValueError):
        ThresholdPolicy(window=0)


# ---------------------------------------------------------------------------
# assistant model


def test_assistant_score_at_zero_weights():
    a = AssistantModel.zeros(5)
    assert a.score(_inst(1, [0, 3], [1.0, -2.0])) == 0.5


def test_assistant_score_is_clamped():
    a = AssistantModel.zeros(3, bias=100.0)
    assert a.score(_inst(1, [0], [1.0])) == 1.0 - SIGMOID_CLAMP
    a.bias = -100.0
    assert a.score(_inst(1, [0], [1.0])) == SIGMOID_CLAMP


def test_assistant_label_feature_shifts_logit():
    a = AssistantModel.zeros(3, use_label_feature=True, label_weight=2.0)
    pos = a.score(_inst(1, [0], [0.0]))
    neg = a.score(_inst(-1, [0], [0.0]))
    assert pos == pytest.approx(1.0 / (1.0 + math.exp(-2.0)))
    assert neg == pytest.approx(1.0 / (1.0 + math.exp(2.0)))


def test_assistant_train_step_from_zero():
    a = AssistantModel.zeros(4, learning_rate=0.1)
    a.train_on_pair(_inst(1, [1, 2], [2.0, -1.0]), 1)
    # p=0.5, err=-0.5: phi gains lr*0.5*x on the support, bias gains lr*0.5
    np.testing.assert_allclose(a.phi, [0.0, 0.1, -0.05, 0.0])
    assert a.bias == pytest.approx(0.05)


def test_assistant_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    a = AssistantModel(phi=rng.normal(size=6), bias=0.3, learning_rate=1.0)
    inst = _inst(1, [0, 2, 5], [0.8, -1.1, 0.4])
    for z in (0, 1):
        before = a.phi.copy()
        bias_before = a.bias
        b = AssistantModel(phi=before.copy(), bias=bias_before, learning_rate=1.0)
        b.train_on_pair(inst, z)
        step_phi = before - b.phi
        step_bias = bias_before - b.bias
        h = 1e-6
        for j in inst.indices:
            a.phi[j] += h
            up = cross_entropy(a.score(inst), z)
            a.phi[j] -= 2 * h
            dn = cross_entropy(a.score(inst), z)
            a.phi[j] += h
            assert step_phi[j] == pytest.approx((up - dn) / (2 * h), abs=1e-5)
        a.bias += h
        up = cross_entropy(a.score(inst), z)
        a.bias -= 2 * h
        dn = cross_entropy(a.score(inst), z)
        a.bias += h
        assert step_bias == pytest.approx((up - dn) / (2 * h), abs=1e-5)


def test_assistant_zero_learning_rate_is_frozen():
    a = AssistantModel.zeros(3, learning_rate=0.0, bias=0.2)
    a.train_on_pair(_inst(1, [0], [1.0]), 1)
    assert a.bias == 0.2
    np.testing.assert_array_equal(a.phi, np.zeros(3))


def test_assistant_validation():
    with pytest.raises(ValueError):
        AssistantModel.zeros(3, gamma=-0.1)
    with pytest.raises(ValueError):
        AssistantModel.zeros(3, gamma=1.5)
    with pytest.raises(ValueError):
        AssistantModel.zeros(3, learning_rate=-1.0)


def test_train_step_uses_pre_report_threshold():
    a = AssistantModel.zeros(2, learning_rate=0.1,
                             threshold=ThresholdPolicy(kind="quantile", T=0.5))
    insts = [_inst(1, [0], [1.0])]
    # loss 2.0 > initial T 0.5, so the target is 1 and the bias moves up
    assistant_train_step(a, LossReport([(0, 2.0)], seq=0), insts)
    assert a.bias > 0.0
    assert a.threshold.current == 2.0
    # next report is labeled against the refreshed T, not the one it implies
    b0 = a.bias
    assistant_train_step(a, LossReport([(0, 1.0)], seq=1), insts)
    assert a.bias < b0
    assert a.threshold.current == 1.5
    assert a.n_reports == 2


def test_train_step_rejects_out_of_order_reports():
    a = AssistantModel.zeros(2)
    insts = [_inst(1, [0], [1.0])]
    assistant_train_step(a, LossReport([(0, 1.0)], seq=3), insts)
    with pytest.raises(ValueError):
        assistant_train_step(a, LossReport([(0, 1.0)], seq=3), insts)


# ---------------------------------------------------------------------------
# acceptance rule and batch sampling


def test_accept_candidate_two_stage_rule():
    a = AssistantModel.zeros(2, gamma=0.5)   # g = 0.5 everywhere
    inst = _inst(1, [0], [0.0])
    assert accept_candidate(a, inst, 0.3)        # base stage
    assert accept_candidate(a, inst, 0.6)        # rescaled 0.2 < 0.5
    assert not accept_candidate(a, inst, 0.9)    # rescaled 0.8 >= 0.5
    a.gamma = 1.0
    assert accept_candidate(a, inst, 0.999)


def test_accept_candidate_rate_matches_mixture():
    # g fixed at 0.4 via the bias, gamma=0.1: rate = 0.1 + 0.9*0.4 = 0.46
    a = AssistantModel.zeros(2, gamma=0.1, bias=math.log(0.4 / 0.6))
    inst = _inst(1, [0], [0.0])
    rng = np.random.default_rng(7)
    n = 40_000
    hits = sum(accept_candidate(a, inst, float(c)) for c in rng.random(n))
    assert hits / n == pytest.approx(0.46, abs=0.01)


def test_accept_candidate_degenerate_scorer():
    a = AssistantModel.zeros(2, gamma=0.1, bias=50.0)
    inst = _inst(1, [0], [1.0])
    rng = np.random.default_rng(0)
    assert all(accept_candidate(a, inst, float(c)) for c in rng.random(1000))


def test_sample_batch_exact_size_and_stats():
    ds = synth_svm(30, 4, margin=1.0, flip_prob=0.0, seed=0)
    a = AssistantModel.zeros(4, gamma=1.0)
    stats = SamplerStats()
    batch = sample_batch(a, ds, 6, np.random.default_rng(1), stats=stats)
    assert len(batch.indices) == len(batch.instances) == 6
    assert stats.candidates == stats.accepted == 6
    assert stats.starvation_events == 0
    for i, inst in zip(batch.indices, batch.instances):
        assert inst is ds.instances[i]


def test_sample_batch_permutation_head():
    ds = synth_svm(20, 4, margin=1.0, flip_prob=0.0, seed=0)
    a = AssistantModel.zeros(4, gamma=1.0)
    stream = IndexStream(20, np.random.default_rng(5), mode="permutation")
    batch = sample_batch(a, ds, 8, np.random.default_rng(9), stream)
    expected = np.random.default_rng(5).permutation(20)[:8]
    assert batch.indices == [int(i) for i in expected]


def test_sample_batch_starvation_guard():
    ds = synth_svm(10, 3, margin=1.0, flip_prob=0.0, seed=0)
    # g pinned at the clamp floor and no base acceptance: everything rejected
    a = AssistantModel.zeros(3, gamma=0.0, bias=-50.0)
    stats = SamplerStats()
    batch = sample_batch(a, ds, 4, np.random.default_rng(2), stats=stats)
    assert len(batch.indices) == 4
    assert stats.starvation_events == 1
    assert stats.accepted == 0
    assert stats.candidates == 400


def test_sample_batch_validation():
    ds = synth_svm(5, 3, margin=1.0, flip_prob=0.0, seed=0)
    with pytest.raises(ValueError):
        sample_batch(AssistantModel.zeros(3), ds, 0, np.random.default_rng(0))


def test_index_stream_permutation_epochs():
    stream = IndexStream(6, np.random.default_rng(0), mode="permutation")
    draws = [stream.next() for _ in range(12)]
    assert sorted(draws[:6]) == list(range(6))
    assert sorted(draws[6:]) == list(range(6))


def test_index_stream_uniform_mode():
    stream = IndexStream(5, np.random.default_rng(3), mode="uniform")
    draws = [stream.next() for _ in range(50)]
    assert all(0 <= i < 5 for i in draws)
    ref = np.random.default_rng(3)
    assert draws[0] == int(ref.integers(5))


def test_index_stream_validation():
    with pytest.raises(ValueError):
        IndexStream(0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        IndexStream(3, np.random.default_rng(0), mode="shuffled")


# ---------------------------------------------------------------------------
# channels


def test_channel_fifo_order():
    ch = BoundedChannel(4)
    for x in (1, 2, 3):
        assert ch.put(x)
    assert [ch.get(), ch.get(), ch.get()] == [1, 2, 3]
    assert len(ch) == 0


def test_channel_blocking_put_times_out():
    ch = BoundedChannel(2)
    ch.put("a")
    ch.put("b")
    assert not ch.put("c", timeout=0.01)
    assert len(ch) == 2


def test_channel_drop_oldest():
    ch = BoundedChannel(2, on_full="drop_oldest")
    for x in (1, 2, 3):
        assert ch.put(x)
    assert ch.dropped == 1
    assert [ch.get(), ch.get()] == [2, 3]


def test_channel_get_times_out_empty():
    ch = BoundedChannel(1)
    assert ch.get(timeout=0.01) is None


def test_channel_close_drains_then_stops():
    ch = BoundedChannel(4)
    ch.put(1)
    ch.close()
    assert not ch.put(2)
    assert ch.get() == 1
    assert ch.get() is None
    assert ch.closed


def test_channel_close_wakes_blocked_getter():
    ch = BoundedChannel(1)
    out = []
    t = threading.Thread(target=lambda: out.append(ch.get()))
    t.start()
    ch.close()
    t.join(timeout=2.0)
    assert not t.is_alive()
    assert out == [None]


def test_channel_validation():
    with pytest.raises(ValueError):
        BoundedChannel(0)
    with pytest.raises(ValueError):
        BoundedChannel(2, on_full="spill")


# ---------------------------------------------------------------------------
# bosses


def test_pegasos_boss_single_batch_matches_step():
    ds = synth_svm(40, 6, margin=0.5, flip_prob=0.1, seed=8)
    boss = PegasosBoss(ds, lam=0.1)
    ref = PrimalModel.zeros(6, 0.1, 40)
    for k, i in enumerate((3, 17, 3, 25), start=1):
        boss.update([i])
        pegasos_step(ref, (ds.instances[i],), k)
        np.testing.assert_array_equal(boss.model.w, ref.w)
    assert boss.version == 4


def test_pegasos_boss_duplicate_indices_average():
    ds = synth_svm(20, 4, margin=0.5, flip_prob=0.0, seed=1)
    b1, b2 = PegasosBoss(ds, 0.1), PegasosBoss(ds, 0.1)
    b1.update([5, 5])
    b2.update([5])
    np.testing.assert_allclose(b1.model.w, b2.model.w, rtol=1e-12, atol=1e-15)


def test_quadratic_boss_matches_mean_gradient_oracle():
    prob = ComponentProblem.from_centers([[1.0, 0.0], [-1.0, 2.0], [3.0, 1.0]], mu=1.0)
    boss = QuadraticBoss(prob)
    idx = [0, 2]
    boss.update(idx)
    g = sum(prob.component_grad(i, np.zeros(2)) for i in idx) / len(idx)
    np.testing.assert_allclose(boss.w, prob.project(-g / prob.mu), rtol=1e-12)
    assert boss.losses([1]) == [prob.component_value(1, boss.w)]


def test_boss_step_reports_pre_update_losses():
    ds = synth_svm(15, 4, margin=0.5, flip_prob=0.2, seed=2)
    boss = PegasosBoss(ds, 0.2)
    boss.update([0, 1])
    before = boss.losses([4, 9, 4])
    v = boss.version
    report = boss_step(boss, BossBatch([4, 9, 4], [ds.instances[i] for i in (4, 9, 4)], seq=7))
    # duplicates report one pair per occurrence, against the old model
    assert report.pairs == [(4, before[0]), (9, before[1]), (4, before[2])]
    assert report.version == v
    assert report.seq == 7
    assert boss.version == v + 1


def test_boss_step_rejects_empty_batch():
    ds = synth_svm(5, 3, margin=1.0, flip_prob=0.0, seed=0)
    with pytest.raises(ValueError):
        boss_step(PegasosBoss(ds, 0.1), BossBatch([], []))


# ---------------------------------------------------------------------------
# drivers


def _small_cfg(**kw):
    base = dict(batch_size=4, n_boss_steps=30, k_low_water=2, cap_boss=4,
                cap_assistant=16, metrics_every=5, seed=11)
    base.update(kw)
    return PipelineConfig(**base)


def test_pipeline_config_validation():
    for kw in (dict(batch_size=0), dict(n_boss_steps=0),
               dict(k_low_water=8, cap_boss=4), dict(k_low_water=0),
               dict(cap_assistant=0), dict(metrics_every=0),
               dict(candidate_mode="sorted")):
        with pytest.raises(ValueError):
            _small_cfg(**kw)


def test_interleaved_gamma_one_matches_plain_loop():
    ds = synth_svm(50, 5, margin=0.5, flip_prob=0.1, seed=3)
    cfg = _small_cfg(n_boss_steps=40)
    plain = run_plain_loop(PegasosBoss(ds, 0.1), cfg)
    a = AssistantModel.zeros(5, gamma=1.0)
    piped = run_interleaved(PegasosBoss(ds, 0.1), a, cfg)
    # accept-everything filtering feeds the boss the identical batch stream
    np.testing.assert_array_equal(piped.boss.model.w, plain.boss.model.w)
    assert ([m["objective"] for m in piped.metrics]
            == [m["objective"] for m in plain.metrics])
    assert all(m["acceptance_rate"] == 1.0 for m in piped.metrics)
    assert piped.stats.accepted == piped.stats.candidates


def test_interleaved_deterministic():
    ds = synth_svm(30, 4, margin=0.5, flip_prob=0.1, seed=4)
    outs = []
    for _ in range(2):
        a = AssistantModel.zeros(4, gamma=0.2)
        r = run_interleaved(PegasosBoss(ds, 0.1), a, _small_cfg())
        outs.append((r.boss.model.w.copy(), r.assistant.phi.copy(),
                     [m["objective"] for m in r.metrics]))
    np.testing.assert_array_equal(outs[0][0], outs[1][0])
    np.testing.assert_array_equal(outs[0][1], outs[1][1])
    assert outs[0][2] == outs[1][2]


def test_interleaved_metric_schema():
    ds = synth_svm(30, 4, margin=0.5, flip_prob=0.1, seed=4)
    r = run_interleaved(PegasosBoss(ds, 0.1), AssistantModel.zeros(4),
                        _small_cfg(n_boss_steps=32))
    assert [m["step"] for m in r.metrics] == [5, 10, 15, 20, 25, 30, 32]
    for m in r.metrics:
        assert tuple(m.keys()) == METRIC_KEYS
    assert r.metrics[-1]["model_version"] == 32


def test_frozen_assistant_acceptance_rate():
    # lr=0 keeps g at 0.5, so the long-run rate is gamma + (1-gamma)/2
    ds = synth_svm(60, 5, margin=0.5, flip_prob=0.1, seed=6)
    a = AssistantModel.zeros(5, gamma=0.2, learning_rate=0.0)
    r = run_interleaved(PegasosBoss(ds, 0.1), a,
                        _small_cfg(batch_size=8, n_boss_steps=60))
    rate = r.stats.accepted / r.stats.candidates
    assert rate == pytest.approx(0.6, abs=0.06)


def test_async_smoke():
    ds = synth_svm(50, 5, margin=0.5, flip_prob=0.1, seed=5)
    a = AssistantModel.zeros(5, gamma=0.3)
    r = run_async(PegasosBoss(ds, 0.1), a, _small_cfg(n_boss_steps=40))
    assert r.failure is None
    assert r.steps_done == 40
    assert r.metrics and r.metrics[-1]["step"] == 40
    assert [m["step"] for m in r.metrics] == sorted(m["step"] for m in r.metrics)
    assert math.isfinite(r.metrics[-1]["objective"])
    assert r.assistant.n_reports > 0
    assert r.throughput > 0
    assert sum(r.q_boss_hist.values()) == 40


def test_async_worker_exception_reported():
    class Sabotaged(QuadraticBoss):
        def update(self, indices):
            if self.version >= 5:
                raise RuntimeError("device fell over")
            super().update(indices)

    prob = ComponentProblem.from_centers(np.random.default_rng(0).normal(size=(20, 3)), mu=1.0)
    r = run_async(Sabotaged(prob), AssistantModel.zeros(3, gamma=0.5),
                  _small_cfg(n_boss_steps=50))
    assert r.failure is not None and "RuntimeError" in r.failure
    assert r.steps_done < 50
