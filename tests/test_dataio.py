"""Parser, serialization and synthetic generator tests."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from shrinkopt import dataio, dual_cd
from shrinkopt.autoassist import (AssistantModel, PegasosBoss, PipelineConfig,
                                  QuadraticBoss, run_async, run_interleaved,
                                  run_plain_loop)
from shrinkopt.dataio import (Dataset, ParseError, SparseInstance, load_libsvm,
                              parse_libsvm, save_libsvm, segment_dots,
                              synth_strongly_convex, synth_svm, to_libsvm)
from shrinkopt.primal_sgd import BatchPolicy, run_sgd


def test_parse_single_line():
    ds = parse_libsvm("+1 1:0.5 3:1.0")
    assert len(ds) == 1
    inst = ds.instances[0]
    assert inst.label == 1.0
    # 1-based on disk, 0-based in memory
    assert inst.indices.tolist() == [0, 2]
    assert inst.values.tolist() == [0.5, 1.0]
    assert inst.norm_sq == 1.25
    assert ds.n_features == 3


def test_parse_two_lines_order_preserved():
    ds = parse_libsvm("-1 2:2.0\n+1 1:1.0")
    assert len(ds) == 2
    assert ds.n_features == 2
    assert ds.labels.tolist() == [-1.0, 1.0]
    assert ds.instances[0].indices.tolist() == [1]


def test_parse_rejects_nonincreasing_indices():
    with pytest.raises(ParseError, match="not increasing"):
        parse_libsvm("+1 3:1.0 2:1.0")
    with pytest.raises(ParseError, match="not increasing"):
        parse_libsvm("+1 2:1.0 2:3.0")


def test_parse_errors_carry_line_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_libsvm("+1 1:1.0\nspam 1:1.0")
    with pytest.raises(ParseError, match="line 1"):
        parse_libsvm("+1 1:abc")
    with pytest.raises(ParseError, match="line 3"):
        parse_libsvm("+1 1:1\n-1 1:1\n+1 0:1.0")
    # indices past the int64 range
    with pytest.raises(ParseError, match="line 2: feature index -9{20} must be >= 1"):
        parse_libsvm("+1 1:1\n-1 -99999999999999999999:1")
    with pytest.raises(ParseError, match="line 2: feature index out of range"):
        parse_libsvm("+1 1:1\n-1 99999999999999999999:1")


def test_parse_rejects_labels_other_than_plus_minus_one(tmp_path):
    # a {0,1}-labeled file would otherwise train on its +1 rows only
    p = tmp_path / "zero_one.txt"
    p.write_text("1 1:1.0\n1 2:0.5\n0 1:-1.0\n0 2:2.0\n")
    with pytest.raises(ParseError, match="line 3: label '0' is not"):
        load_libsvm(p)
    for bad in ("2", "nan", "inf", "0.5"):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm(f"-1 1:1.0\n{bad} 1:1.0")


def test_dataset_rejects_labels_other_than_plus_minus_one():
    good = SparseInstance(label=-1.0, indices=np.array([0]), values=np.ones(1))
    bad = SparseInstance(label=0.0, indices=np.array([1]), values=np.ones(1))
    with pytest.raises(ValueError, match="instance 1: label"):
        Dataset([good, bad])


def test_parse_empty_input_raises():
    with pytest.raises(ParseError, match="empty dataset"):
        parse_libsvm("")
    with pytest.raises(ParseError, match="empty dataset"):
        parse_libsvm("# only a comment\n\n")


def test_parse_comments_and_blank_lines():
    ds = parse_libsvm("# header\n+1 1:2.0  # trailing\n\n-1 1:-1.0\n")
    assert len(ds) == 2
    assert ds.instances[0].values.tolist() == [2.0]


def test_label_only_line_accepted():
    ds = parse_libsvm("+1\n-1 1:1.0")
    assert ds.instances[0].nnz == 0
    assert ds.instances[0].norm_sq == 0.0


def test_sparse_instance_invariants():
    with pytest.raises(ValueError):
        SparseInstance(label=1.0, indices=np.array([2, 1]), values=np.ones(2))
    with pytest.raises(ValueError):
        SparseInstance(label=1.0, indices=np.array([0]), values=np.array([np.inf]))
    with pytest.raises(ValueError):
        SparseInstance(label=1.0, indices=np.array([0, 1]), values=np.ones(3))


def test_norm_sq_matches_values():
    rng = np.random.default_rng(0)
    for _ in range(50):
        nnz = int(rng.integers(0, 8))
        idx = np.sort(rng.choice(50, size=nnz, replace=False))
        vals = rng.standard_normal(nnz)
        inst = SparseInstance(label=1.0, indices=idx, values=vals)
        expect = float(np.sum(vals ** 2))
        assert inst.norm_sq == pytest.approx(expect, rel=1e-12, abs=1e-300)


def test_dataset_rejects_empty_and_small_n_features():
    with pytest.raises(ValueError, match="empty dataset"):
        Dataset([])
    inst = SparseInstance(label=1.0, indices=np.array([4]), values=np.ones(1))
    with pytest.raises(ValueError):
        Dataset([inst], n_features=3)


def test_round_trip_reproduces_dataset():
    rng = np.random.default_rng(7)
    lines = []
    for _ in range(20):
        nnz = int(rng.integers(1, 6))
        idx = np.sort(rng.choice(30, size=nnz, replace=False)) + 1
        vals = rng.standard_normal(nnz) * 10.0 ** rng.integers(-3, 3)
        label = float(rng.choice([-1.0, 1.0]))
        lines.append(f"{label:g} " + " ".join(
            f"{i}:{float(v)!r}" for i, v in zip(idx, vals)))
    ds = parse_libsvm("\n".join(lines))
    ds2 = parse_libsvm(to_libsvm(ds))
    assert len(ds2) == len(ds)
    for a, b in zip(ds.instances, ds2.instances):
        assert a.label == b.label
        assert a.indices.tolist() == b.indices.tolist()
        np.testing.assert_allclose(b.values, a.values, rtol=1e-12)


def test_save_load_gzip(tmp_path):
    ds = parse_libsvm("+1 1:0.5 3:1.0\n-1 2:2.0")
    for fname in ("plain.txt", "packed.txt.gz"):
        p = tmp_path / fname
        save_libsvm(ds, p)
        back = load_libsvm(p)
        assert len(back) == 2
        assert back.instances[0].norm_sq == 1.25
        assert back.name == fname


def test_csr_view_matches_instances():
    ds = parse_libsvm("+1 1:0.5 3:1.0\n-1 2:2.0\n+1\n")
    X = ds.X.toarray()
    assert X.shape == (3, 3)
    np.testing.assert_allclose(X[0], [0.5, 0.0, 1.0])
    np.testing.assert_allclose(X[1], [0.0, 2.0, 0.0])
    np.testing.assert_allclose(X[2], 0.0)
    np.testing.assert_allclose(ds.norms_sq, [1.25, 4.0, 0.0])
    assert ds.norms_sq is ds.norms_sq   # built once, like X and labels


def test_dataset_arrays_are_checked_in_bulk():
    good = dict(labels=np.array([1.0, -1.0, 1.0]), indptr=np.array([0, 2, 2, 4]),
                indices=np.array([5, 9, 0, 1]), data=np.ones(4))
    # row 2 starts below row 0's last index, and row 1 is empty: both fine
    ds = Dataset._from_csr(**good)
    assert ds.n_features == 10 and ds.instances[1].nnz == 0
    assert [inst.indices.tolist() for inst in ds.instances] == [[5, 9], [], [0, 1]]
    for change, msg in (
            (dict(indices=np.array([5, 9, -1, 1])), "instance 2: feature indices must be >= 0"),
            (dict(indices=np.array([5, 5, 0, 1])), "instance 0: feature indices must be strictly"),
            (dict(indices=np.array([5, 9, 1, 0])), "instance 2: feature indices must be strictly"),
            (dict(data=np.array([1.0, 1.0, 1.0, np.nan])), "instance 2: feature values must"),
            (dict(labels=np.array([1.0, 0.0, 1.0])), "instance 1: label 0.0 is not")):
        with pytest.raises(ValueError, match=msg):
            Dataset._from_csr(**{**good, **change})


def test_synth_svm_layout_matches_per_row_construction():
    N, dim, margin, flip, seed = 300, 7, 0.3, 0.1, 11
    # the generator's draws, written out, then one owned row object per point
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(dim)
    u /= np.linalg.norm(u)
    pts = rng.standard_normal((N, dim)) / np.sqrt(dim)
    s = pts @ u
    side = np.where(s >= 0.0, 1.0, -1.0)
    pts += np.where(np.abs(s) < margin, side * margin - s, 0.0)[:, None] * u
    labels = np.where(rng.random(N) < flip, -side, side)
    ref = [SparseInstance(float(labels[i]), np.arange(dim), pts[i].copy()) for i in range(N)]

    ds = synth_svm(N, dim, margin=margin, flip_prob=flip, seed=seed)
    assert ds.labels.tobytes() == labels.tobytes()
    assert ds.norms_sq.tobytes() == np.array([r.norm_sq for r in ref]).tobytes()
    X = ds.X
    assert X.shape == (N, dim) and X.data.tobytes() == pts.tobytes()
    assert X.indices.tolist() == list(range(dim)) * N
    assert np.shares_memory(X.data, ds.data)
    for inst, r in zip(ds.instances, ref):
        assert type(inst.label) is float and inst.label == r.label
        assert inst.indices.dtype == np.int64 and inst.indices.tobytes() == r.indices.tobytes()
        assert inst.values.dtype == np.float64 and inst.values.tobytes() == r.values.tobytes()
        assert type(inst.norm_sq) is float and inst.norm_sq == r.norm_sq
        assert type(inst.nnz) is int and inst.nnz == dim
        assert np.shares_memory(inst.values, ds.data)
        assert np.shares_memory(inst.indices, ds.indices)

    # labels follow the rows once the cached array is dropped
    ds.instances[3].label = -ds.instances[3].label
    ds._labels = None
    assert ds.labels[3] == -labels[3]
    assert np.array_equal(np.delete(ds.labels, 3), np.delete(labels, 3))


def test_parsed_rows_are_views_of_the_arrays():
    ds = parse_libsvm("+1 1:0.5 3:1.0\n-1\n+1 2:2.0\n")
    assert ds.indptr.tolist() == [0, 2, 2, 3]
    for inst in (ds.instances[0], ds.instances[2]):
        assert np.shares_memory(inst.values, ds.data)
        assert np.shares_memory(inst.indices, ds.indices)
    assert np.shares_memory(ds.X.data, ds.data)


def test_dataset_pickles_as_its_arrays():
    ds = synth_svm(500, 8, margin=0.2, flip_prob=0.1, seed=2)
    blob = pickle.dumps(ds)
    arrays = ds.labels.nbytes + ds.indptr.nbytes + ds.indices.nbytes + ds.data.nbytes
    assert len(blob) < arrays + 1024      # no per-row objects
    back = pickle.loads(blob)
    assert (back.name, back.n_features, len(back)) == (ds.name, ds.n_features, len(ds))
    for name in ("labels", "indptr", "indices", "data", "norms_sq"):
        a, b = getattr(ds, name), getattr(back, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for a, b in zip(ds.instances, back.instances):
        assert (a.label, a.norm_sq) == (b.label, b.norm_sq)
        assert a.values.tobytes() == b.values.tobytes()
        assert np.shares_memory(b.values, back.data)


def test_to_libsvm_matches_per_row_formatting():
    sets = [synth_svm(40, 5, margin=0.5, flip_prob=0.1, seed=4),
            parse_libsvm("+1 1:-0 2:5e-324 9:-1.2345678901234567e150\n-1\n+1 3:0.1\n")]
    for ds in sets:
        lines = []
        for inst in ds.instances:
            toks = [f"{inst.label:.17g}"]
            toks += [f"{int(i) + 1}:{v:.17g}" for i, v in zip(inst.indices, inst.values)]
            lines.append(" ".join(toks))
        assert to_libsvm(ds) == "\n".join(lines) + "\n"


def test_synth_strongly_convex_single_centered_quadratic():
    # spread=0 forces the single center to the origin
    prob = synth_strongly_convex(1, 1, mu=2.0, spread=0.0, seed=0)
    np.testing.assert_allclose(prob.w_star, [0.0])
    w = np.array([1.5])
    assert prob.value(w) == pytest.approx(2.0 * 1.5 ** 2 / 2.0)
    assert prob.value(np.zeros(1)) == 0.0


def test_two_symmetric_centers():
    from shrinkopt.linear_models import ComponentProblem

    prob = ComponentProblem.from_centers(np.array([[-1.0], [1.0]]), mu=1.0)
    np.testing.assert_allclose(prob.w_star, [0.0])
    # mean of (1/2)(0-(-1))^2 and (1/2)(0-1)^2
    assert prob.value(np.zeros(1)) == pytest.approx(0.5)


def test_w_star_is_center_mean():
    for seed in range(5):
        prob = synth_strongly_convex(40, 6, mu=1.0, spread=2.0, seed=seed)
        np.testing.assert_allclose(prob.w_star, prob.centers.mean(axis=0),
                                   rtol=0, atol=1e-12)
        # centers live inside the admissible ball
        assert np.linalg.norm(prob.centers, axis=1).max() <= prob.D + 1e-12


def test_synth_strongly_convex_validation():
    with pytest.raises(ValueError):
        synth_strongly_convex(10, 3, mu=0.0, spread=1.0, seed=0)
    with pytest.raises(ValueError):
        synth_strongly_convex(0, 3, mu=1.0, spread=1.0, seed=0)
    with pytest.raises(ValueError):
        synth_strongly_convex(10, 3, mu=1.0, spread=-1.0, seed=0)


def test_synth_generators_deterministic():
    a = synth_svm(50, 8, margin=1.0, flip_prob=0.1, seed=3)
    b = synth_svm(50, 8, margin=1.0, flip_prob=0.1, seed=3)
    assert a.labels.tolist() == b.labels.tolist()
    np.testing.assert_array_equal(a.X.toarray(), b.X.toarray())
    c = synth_svm(50, 8, margin=1.0, flip_prob=0.1, seed=4)
    assert not np.array_equal(a.X.toarray(), c.X.toarray())

    p = synth_strongly_convex(20, 4, mu=1.0, spread=1.0, seed=9)
    q = synth_strongly_convex(20, 4, mu=1.0, spread=1.0, seed=9)
    np.testing.assert_array_equal(p.centers, q.centers)


def test_synth_svm_flip_zero_is_separable():
    ds = synth_svm(200, 10, margin=0.7, flip_prob=0.0, seed=1)
    # recover the generator's separator: labels flag the side of the plane,
    # so any correctly-classifying unit u scaled by 1/margin has zero hinge
    rng = np.random.default_rng(1)
    u = rng.standard_normal(10)
    u /= np.linalg.norm(u)
    margins = ds.labels * (ds.X @ (u / 0.7))
    assert margins.min() >= 1.0 - 1e-9


def test_synth_svm_validation():
    with pytest.raises(ValueError):
        synth_svm(10, 3, margin=1.0, flip_prob=0.5, seed=0)
    with pytest.raises(ValueError):
        synth_svm(10, 3, margin=0.0, flip_prob=0.0, seed=0)


def test_synth_svm_dual_solver_separates():
    ds = synth_svm(300, 6, margin=1.0, flip_prob=0.0, seed=5)
    res = dual_cd.solve(ds, C=10.0, tol=1e-6, max_epochs=500, seed=0)
    assert res.converged
    pred = np.sign(ds.X @ res.state.w)
    acc = float(np.mean(pred == ds.labels))
    assert acc == 1.0


def test_solvers_and_drivers_build_no_rows():
    # every solver path reads the CSR arrays; the row objects of
    # Dataset.instances are never built on the way
    ds = synth_svm(200, 5, margin=0.5, flip_prob=0.1, seed=1)
    for kind, criterion in (("plain", "loss"), ("sk", "loss"), ("sk", "grad_norm"),
                            ("sk_bs", "loss"), ("is", "loss")):
        run_sgd(ds, BatchPolicy(kind=kind, threshold=0.1, criterion=criterion,
                                chunk_size=50, refresh_period=20), 0.1, 1, seed=0)
    for shrink in (True, False):
        dual_cd.solve(ds, C=0.05, use_shrinking=shrink, seed=0)
    cfg = PipelineConfig(batch_size=4, n_boss_steps=20, k_low_water=2, cap_boss=4,
                         metrics_every=5, seed=0)
    prob = synth_strongly_convex(30, 3, mu=1.0, spread=1.0, seed=0)
    for make_boss in (lambda: PegasosBoss(ds, 0.1), lambda: QuadraticBoss(prob)):
        for driver in (run_plain_loop, run_interleaved, run_async):
            boss = make_boss()
            if driver is run_plain_loop:
                result = driver(boss, cfg)
            else:
                result = driver(boss, AssistantModel.zeros(boss.dataset.n_features), cfg)
            assert result.failure is None and result.steps_done == 20
            assert boss.dataset._rows is None, (type(boss).__name__, driver.__name__)
    assert ds._rows is None
    assert ds.instances is ds.instances and ds._rows is not None


def test_segment_dots_match_per_segment_dot():
    # 500 segments of each length 1 to 100, and the same segments shuffled
    # into ragged order: every dot equals the segment's own BLAS dot
    rng = np.random.default_rng(0)
    for L in range(1, 101):
        P, V = rng.standard_normal((2, 500, L)) * 10.0 ** rng.uniform(-5, 5, (2, 500, 1))
        expect = np.array([float(P[i] @ V[i]) for i in range(500)])
        got = segment_dots(P.ravel(), V.ravel(), np.full(500, L))
        assert got.tobytes() == expect.tobytes(), L
    lengths = rng.integers(0, 40, 300)
    a, b = rng.standard_normal((2, int(lengths.sum())))
    cuts = np.cumsum(lengths)[:-1]
    expect = np.array([float(u @ v) for u, v in zip(np.split(a, cuts), np.split(b, cuts))])
    assert segment_dots(a, b, lengths).tobytes() == expect.tobytes()


def test_gather_returns_rows_back_to_back():
    # ragged rows, and rows all of one length, which gather takes as blocks
    ragged = parse_libsvm("+1 1:0.5 3:1.0\n-1\n-1 2:2.0\n+1 1:1 2:2 3:3\n")
    dense = synth_svm(6, 3, margin=0.5, flip_prob=0.0, seed=0)
    for ds in (ragged, dense):
        ds._labels = None       # gather reads the labels row() reads, not this cache
        rows = [3, 0, 2, 3, 1]
        labels, lengths, cols, vals = ds.gather(rows)
        parts = [ds.row(i) for i in rows]
        assert labels.tolist() == [y for y, _, _ in parts]
        assert lengths.tolist() == [idx.size for _, idx, _ in parts]
        assert cols.tolist() == [j for _, idx, _ in parts for j in idx.tolist()]
        assert vals.tolist() == [v for _, _, val in parts for v in val.tolist()]
