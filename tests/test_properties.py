"""Property tests against the reference forms the code must reproduce bit
for bit: the assistant's scalar kernels against their numpy forms, the
bulk libsvm reader against a per-line reader, the lock-step
certification kernel against one chain stepped at a time, and the dual
solver's array rules against their scalar forms.  The dual solver's
answer is also checked against KKT conditions computed from scratch."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from shrinkopt.autoassist import AssistantModel, PegasosBoss, ThresholdPolicy  # noqa: E402
from shrinkopt.dual_cd import (_shrink_candidate, _shrink_candidates,  # noqa: E402
                               coordinate_gradient, projected_gradient,
                               projected_gradients, solve)
from shrinkopt.dataio import (Dataset, ParseError, SparseInstance,  # noqa: E402
                              parse_libsvm, to_libsvm)
from shrinkopt.linear_models import (SIGMOID_CLAMP, ComponentProblem,  # noqa: E402
                                     PrimalModel, hinge_loss, sigmoid, svm_objective)
from shrinkopt.primal_sgd import (BatchPolicy, CostLedger, batch_forward,  # noqa: E402
                                  criterion_value, pegasos_step,
                                  refresh_importance_weights, run_sgd)
from shrinkopt.theorem_harness import _run_chains, uniform_ball  # noqa: E402

# Few distinct values, so windows are full of exact ties and zeros.
_losses = st.one_of(st.just(0.0), st.sampled_from([0.25, 0.5, 1.0, 2.0]),
                    st.floats(0.0, 1e6, allow_nan=False))


@given(window=st.integers(1, 40),
       q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       reports=st.lists(st.lists(_losses, min_size=1, max_size=16),
                        min_size=1, max_size=12))
@example(window=1, q=0.5, reports=[[0.0, 1.0], [2.0]])
@example(window=2, q=0.5, reports=[[1.0], [0.0, 0.0, 3.0], [3.0]])
@example(window=2, q=0.999, reports=[[1.0, 2.0], [0.0]])
def test_threshold_extend_matches_numpy_midpoint_quantile(window, q, reports):
    pol = ThresholdPolicy(kind="quantile", q=q, window=window)
    seen: list[float] = []
    for report in reports:
        pol.extend(iter(report))
        seen.extend(report)
        assert pol.current == float(np.quantile(seen[-window:], q, method="midpoint"))


@given(st.floats(allow_nan=False))
@example(0.0)
@example(-0.0)
@example(40.0)
@example(-40.0)
@example(40.000001)
@example(-40.000001)
@example(1e300)
@example(-1e300)
def test_sigmoid_matches_clipped_numpy_form(z):
    reference = 1.0 / (1.0 + np.exp(-np.clip(z, -40.0, 40.0)))
    got = sigmoid(z)
    assert type(got) is float
    assert got == float(reference)


def _reference_line(line: str, lineno: int):
    """The per-line libsvm reader: (label, indices, values) or None."""
    text = line.split("#", 1)[0].strip()
    if not text:
        return None
    parts = text.split()
    try:
        label = float(parts[0])
    except ValueError:
        raise ParseError(f"line {lineno}: bad label {parts[0]!r}") from None
    if label not in (1.0, -1.0):
        raise ParseError(f"line {lineno}: label {parts[0]!r} is not +1 or -1")
    idxs, vals, prev = [], [], 0
    for tok in parts[1:]:
        pair = tok.split(":")
        if len(pair) != 2:
            raise ParseError(f"line {lineno}: bad feature token {tok!r}")
        try:
            idx = int(pair[0])
            val = float(pair[1])
        except ValueError:
            raise ParseError(f"line {lineno}: bad feature token {tok!r}") from None
        if idx < 1:
            raise ParseError(f"line {lineno}: feature index {idx} must be >= 1")
        if idx <= prev:
            raise ParseError(f"line {lineno}: feature indices not increasing at {tok!r}")
        if not np.isfinite(val):
            raise ParseError(f"line {lineno}: non-finite value at {tok!r}")
        prev = idx
        idxs.append(idx - 1)
        vals.append(val)
    return label, np.array(idxs, dtype=np.int64), np.array(vals)


def _reference_parse(text: str):
    rows = [r for n, line in enumerate(io.StringIO(text), start=1)
            if (r := _reference_line(line, n)) is not None]
    if not rows:
        raise ParseError("empty dataset")
    return rows


_good_labels = st.sampled_from(["+1", "1", "1.0", "-1", "-1.0", "+1e0", "-1E0", "1.000"])
_bad_labels = st.sampled_from(["0", "2", "0.5", "spam", "nan", "-inf", "+", "1:1"])
_finite = st.floats(-1e150, 1e150)     # squares stay finite
_value_text = st.one_of(_finite.map(repr), _finite.map(lambda v: f"{v:.6e}"),
                        st.integers(-1000, 1000).map(str), st.just("-0"))
_bad_tokens = st.sampled_from(["1:2:3", "a:1", "1:", ":1", ":", "x", "0:1", "-3:1",
                               "5:nan", "5:inf", "5:1e400", "5:1", "2:1", "1_0:2"])


@st.composite
def _libsvm_lines(draw, n_bad: int):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "  ", "\t", " \r"])))
            continue
        if kind == "comment":
            lines.append("# " + draw(st.text(alphabet="ab 1:#", max_size=8)))
            continue
        toks = [draw(_good_labels)]
        toks += [f"{i}:{draw(_value_text)}"
                 for i in sorted(draw(st.sets(st.integers(1, 60), max_size=8)))]
        line = draw(st.sampled_from([" ", "\t", "  "])).join(toks)
        if draw(st.booleans()):
            line += draw(st.sampled_from(["#", " # 1:2 x", "\t#c"]))
        lines.append(line)
    for _ in range(n_bad if lines else 0):
        at = draw(st.integers(0, len(lines) - 1))
        toks = lines[at].split(" ") if lines[at].strip() else ["+1"]
        if draw(st.booleans()):
            toks[0] = draw(_bad_labels)
        else:
            toks.insert(draw(st.integers(1, len(toks))), draw(_bad_tokens))
        lines[at] = " ".join(toks)
    return lines


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _sources(lines: list[str]):
    text = "\n".join(lines) + "\n"
    return text, [text, [line + "\n" for line in lines], iter([line + "\n" for line in lines])]


@given(_libsvm_lines(n_bad=0))
@example(["# header", "+1 1:0.5 3:1e-3  # trailing", "", "-1", "1.0 2:-0 7:1e150"])
def test_parse_matches_per_line_reader_on_valid_text(lines):
    text, sources = _sources(lines)
    try:
        rows = _reference_parse(text)
    except ParseError as exc:
        for source in sources:
            with pytest.raises(ParseError) as got:
                parse_libsvm(source)
            assert str(got.value) == str(exc)
        return
    for source in sources:
        ds = parse_libsvm(source)
        assert len(ds) == len(rows)
        assert _same_array(ds.labels, np.array([r[0] for r in rows]))
        assert _same_array(ds.indptr, np.cumsum([0] + [r[1].size for r in rows]))
        assert _same_array(ds.indices, np.concatenate([r[1] for r in rows]))
        assert _same_array(ds.data, np.concatenate([r[2] for r in rows]))
        assert _same_array(ds.norms_sq, np.array([float(r[2] @ r[2]) for r in rows]))
        for inst, (label, idx, vals) in zip(ds.instances, rows):
            assert type(inst.label) is float and inst.label == label
            assert _same_array(inst.indices, idx) and _same_array(inst.values, vals)
            assert type(inst.norm_sq) is float and inst.norm_sq == float(vals @ vals)


@given(_libsvm_lines(n_bad=1), st.integers(0, 2))
@example(["+1 1:1", "+1 1:2:3 x", "spam"], 0)
@example(["+1 1:1", "0 1:2:3"], 0)
@example(["+1 3:1 2:1", "+1 1:x"], 0)
@example(["-1 1:1 0:1 a"], 0)
@example(["+1 5:nan 0:1"], 0)
@example(["+1 1:1", "-1 1:1 2:1", "+1 2:1 1:1"], 2)
def test_parse_raises_per_line_readers_error_on_invalid_text(lines, extra):
    # ``extra`` corrupts more lines, so the first problem in line order counts
    text, sources = _sources(lines + ["-1 2:1 1:1"] * extra)
    try:
        rows = _reference_parse(text)
    except ParseError as exc:
        for source in sources:
            with pytest.raises(ParseError) as got:
                parse_libsvm(source)
            assert str(got.value) == str(exc)
        return
    assert len(parse_libsvm(text)) == len(rows)


def _dataset(rows) -> Dataset:
    """A Dataset from (label, {feature: value}) pairs."""
    return Dataset([SparseInstance(y, np.array(sorted(f), dtype=np.int64),
                                   np.array([f[i] for i in sorted(f)], dtype=np.float64))
                    for y, f in rows])


_rows = st.lists(st.tuples(st.sampled_from([1.0, -1.0]),
                           st.dictionaries(st.integers(0, 50), _finite, max_size=6)),
                 min_size=1, max_size=20)


@given(_rows)
@example([(1.0, {0: -0.0, 3: 5e-324}), (-1.0, {}), (1.0, {50: -1.2345678901234567e150})])
def test_libsvm_round_trip_is_exact(rows):
    ds = _dataset(rows)
    back = parse_libsvm(to_libsvm(ds))
    for name in ("labels", "indptr", "indices", "data", "norms_sq"):
        assert _same_array(getattr(back, name), getattr(ds, name)), name
    assert back.n_features == ds.n_features


@settings(deadline=None)
@given(lengths=st.lists(st.integers(0, 300), min_size=1, max_size=30),
       seed=st.integers(0, 2**32 - 1))
@example(lengths=[0, 1, 300, 2, 0, 300, 1], seed=0)
@example(lengths=[0], seed=1)
def test_norms_sq_match_per_row_dot(lengths, seed):
    # rows of many lengths, values from 1e-150 to 1e150 of either sign plus
    # exact zeros: the bulk norm pass must give each row's own dot product
    rng = np.random.default_rng(seed)
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    nnz = int(indptr[-1])
    data = rng.choice([-1.0, 1.0], nnz) * 10.0 ** rng.uniform(-150.0, 150.0, nnz)
    data[rng.random(nnz) < 0.05] = 0.0
    indices = np.concatenate([np.zeros(0, np.int64)] + [
        np.sort(rng.choice(400, size=n, replace=False)) for n in lengths])
    ds = Dataset._from_csr(rng.choice([-1.0, 1.0], len(lengths)), indptr, indices, data)
    expect = np.array([float(data[lo:hi] @ data[lo:hi])
                       for lo, hi in zip(indptr[:-1], indptr[1:])])
    assert _same_array(ds.norms_sq, expect)


def _per_row_step(model, ds, rows, k, loss_weight=1.0):
    """The batch step taken one row at a time: read every row's margin,
    shrink w, add the active rows in batch order, project."""
    w = model.w
    eta = 1.0 / (model.lam * k)
    active = []
    for i in rows:
        y, idx, val = row = ds.row(i)
        if y * float(w[idx] @ val) < 1.0:
            active.append(row)
    w *= 1.0 - eta * model.lam
    scale = eta * loss_weight / len(rows)
    for y, idx, val in active:
        w[idx] += (scale * y) * val
    radius = 1.0 / np.sqrt(model.lam)
    nw_sq = float(w @ w)
    if nw_sq > radius * radius:
        w *= radius / np.sqrt(nw_sq)


@settings(deadline=None)
@given(lengths=st.one_of(
           st.lists(st.integers(0, 40), min_size=1, max_size=25),
           st.tuples(st.integers(1, 40), st.integers(1, 25)).map(lambda t: [t[0]] * t[1])),
       picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=16),
       w_kind=st.sampled_from(["zero", "random", "inactive"]),
       k=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
@example(lengths=[3, 5, 0, 3, 2, 5, 1, 3, 4, 0], picks=[4, 9, 4], w_kind="random", k=3,
         seed=0)
@example(lengths=[16] * 10, picks=[4, 9, 4, 0, 1, 2, 3, 5], w_kind="random", k=7, seed=0)
def test_batched_boss_step_matches_per_row_step(lengths, picks, w_kind, k, seed):
    # ragged rows with empty ones, or rows all of one length; columns from a
    # small range, so rows collide on them; batches with repeated rows; w
    # with -0.0 entries, which an add of 0.0 would turn into +0.0
    rng = np.random.default_rng(seed)
    d = 48
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    nnz = int(indptr[-1])
    data = rng.choice([-1.0, 1.0], nnz) * 10.0 ** rng.uniform(-3.0, 3.0, nnz)
    data[rng.random(nnz) < 0.05] = 0.0
    indices = np.concatenate([np.zeros(0, np.int64)] + [
        np.sort(rng.choice(d, size=n, replace=False)) for n in lengths])
    labels = rng.choice([-1.0, 1.0], len(lengths))
    w0 = rng.standard_normal(d)
    w0[rng.random(d) < 0.2] = -0.0
    candidates = range(len(lengths))
    if w_kind == "zero":
        w0 = np.where(rng.random(d) < 0.5, -0.0, 0.0)         # every row active
    elif w_kind == "inactive":
        # label each row by the side of w it falls on and scale w until
        # every such margin is at least 2: no row is active
        dots = np.array([float(w0[indices[lo:hi]] @ data[lo:hi])
                         for lo, hi in zip(indptr[:-1], indptr[1:])])
        candidates = np.flatnonzero(dots != 0.0).tolist()
        assume(candidates)
        labels[candidates] = np.sign(dots[candidates])
        w0 *= 2.0 / np.abs(dots[candidates]).min()
    rows = [candidates[p % len(candidates)] for p in picks]
    ds = Dataset._from_csr(labels, indptr, indices, data, n_features=d)
    lam = 0.1

    ref = PrimalModel(w0, lam, 1.0)
    expect = [hinge_loss(ref, ds, i) for i in rows]
    _per_row_step(ref, ds, rows, k)
    if w_kind == "zero":
        assert expect == [1.0] * len(rows)
    elif w_kind == "inactive":
        assert expect == [0.0] * len(rows)

    model = PrimalModel(w0, lam, 1.0)
    forward = batch_forward(model, ds, rows)
    assert np.maximum(1.0 - forward.margins, 0.0).tolist() == expect
    pegasos_step(model, ds, rows, k, forward=forward)
    assert model.w.tobytes() == ref.w.tobytes()

    boss = PegasosBoss(ds, lam)
    boss.model.w[:] = w0
    boss.version = k - 1
    assert boss.losses(rows) == expect
    boss.update(rows)
    assert boss.model.w.tobytes() == ref.w.tobytes()


def _ragged_dataset(lengths, seed, d=8, scale=1.0):
    """Rows of the given lengths over d columns, values of either sign with
    exact zeros, and every fifth nonempty row all stored zeros."""
    rng = np.random.default_rng(seed)
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    nnz = int(indptr[-1])
    data = scale * rng.standard_normal(nnz)
    data[rng.random(nnz) < 0.1] = 0.0
    for r in range(0, len(lengths), 5):
        data[indptr[r]:indptr[r + 1]] = 0.0
    indices = np.concatenate([np.zeros(0, np.int64)] + [
        np.sort(rng.choice(d, size=n, replace=False)) for n in lengths])
    return Dataset._from_csr(rng.choice([-1.0, 1.0], len(lengths)), indptr, indices,
                             data, n_features=d)


def _reference_run_sgd(ds, policy, lam, n_epochs, seed, schedule):
    """run_sgd one arrival at a time, as it was before decisions handed
    their read to the step and IS drew a refresh period at once: the
    decision and the step each read the row and its margin, and each IS
    arrival draws its own uniform.  Returns (w, ledger, curve)."""
    n, total = len(ds), len(ds) * n_epochs
    rng = np.random.default_rng(seed)
    model = PrimalModel.zeros(ds.n_features, lam, n)
    ledger = CostLedger()
    curve = []

    def step(i, weight=1.0):
        _per_row_step(model, ds, [i], ledger.n_updates + 1, weight)
        ledger.n_updates += 1

    def snapshot(arrival):
        if arrival in schedule:
            curve.append((ledger.n_updates, ledger.n_evals, svm_objective(model, ds)))

    if policy.kind == "is":
        refresh_importance_weights(model, ds, policy, rng, ledger)
        for arrival in range(1, total + 1):
            if policy.since_refresh >= policy.effective_refresh_period:
                refresh_importance_weights(model, ds, policy, rng, ledger)
            j = int(np.searchsorted(policy._cdf, rng.random(), side="right"))
            j = min(j, len(policy.chunk) - 1)
            step(int(policy.chunk[j]), 1.0 / (len(policy.chunk) * float(policy.probs[j])))
            policy.since_refresh += 1
            snapshot(arrival)
        return model.w, ledger, curve
    arrival = 0
    for _ in range(n_epochs):
        for i in rng.permutation(n).tolist():
            arrival += 1
            ledger.n_evals += 1
            keep = True
            if policy.kind != "plain":
                y, idx, val = ds.row(i)
                margin = y * float(model.w[idx] @ val)
                if policy.criterion == "loss":
                    value = max(1.0 - margin, 0.0)
                else:
                    value = math.sqrt(ds.norms_sq[i]) if margin < 1.0 else 0.0
                keep = value >= policy.threshold
                if not keep and policy.kind == "sk_bs":
                    keep = bool(rng.random() < max(policy.floor_prob, value / policy.threshold))
            if keep:
                step(i)
            snapshot(arrival)
    return model.w, ledger, curve


@settings(deadline=None, max_examples=150)
@given(lengths=st.lists(st.integers(0, 5), min_size=1, max_size=14),
       kind=st.sampled_from(["plain", "sk", "sk_bs", "is"]),
       criterion=st.sampled_from(["loss", "grad_norm"]),
       threshold=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
       chunk=st.integers(1, 20), period=st.integers(1, 12),
       n_epochs=st.integers(1, 3), lam=st.sampled_from([0.05, 0.5, 1.0]),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1))
# 10 arrivals with a refresh every 3: refreshes mid-run and before the last
@example(lengths=[0, 3, 1, 2, 4], kind="is", criterion="loss", threshold=0.0,
         chunk=4, period=3, n_epochs=2, lam=0.05, scale=1.0, seed=0)
# a period that divides the run, and one longer than the run
@example(lengths=[2, 0, 3, 1, 2], kind="is", criterion="loss", threshold=0.0,
         chunk=5, period=5, n_epochs=2, lam=0.5, scale=1.0, seed=1)
@example(lengths=[2, 0, 3, 1, 2], kind="is", criterion="loss", threshold=0.0,
         chunk=3, period=12, n_epochs=2, lam=0.5, scale=1.0, seed=2)
@example(lengths=[3, 0, 2, 5, 1, 4, 2], kind="sk", criterion="grad_norm", threshold=0.0,
         chunk=1, period=1, n_epochs=3, lam=0.05, scale=1e-3, seed=3)
@example(lengths=[3, 0, 2, 5, 1, 4, 2], kind="sk_bs", criterion="loss", threshold=1.0,
         chunk=1, period=1, n_epochs=3, lam=0.05, scale=1.0, seed=4)
def test_run_sgd_matches_one_arrival_at_a_time_reference(lengths, kind, criterion,
                                                         threshold, chunk, period,
                                                         n_epochs, lam, scale, seed):
    # ragged rows with empty and all-zero ones, both criteria at thresholds
    # 0 and above, and IS with refreshes anywhere in the run: the same w
    # bytes, ledger counts and curve as the one-arrival-at-a-time loop
    ds = _ragged_dataset(lengths, seed, scale=scale)
    schedule = sorted({1, len(ds) * n_epochs} | set(range(2, len(ds) * n_epochs, 3)))

    def policy():
        if kind == "is":
            return BatchPolicy(kind="is", chunk_size=chunk, refresh_period=period)
        if kind == "plain":
            return BatchPolicy(kind="plain")
        return BatchPolicy(kind=kind, threshold=threshold, criterion=criterion)

    w, ref, ref_curve = _reference_run_sgd(ds, policy(), lam, n_epochs, seed, schedule)
    model, ledger, curve = run_sgd(ds, policy(), lam, n_epochs, seed, schedule)
    assert model.w.tobytes() == w.tobytes()
    assert ((ledger.n_updates, ledger.n_evals, ledger.n_weight_refreshes)
            == (ref.n_updates, ref.n_evals, ref.n_weight_refreshes))
    assert [(p.n_updates, p.n_evals, p.objective) for p in curve] == ref_curve


@settings(deadline=None)
@given(lengths=st.lists(st.integers(0, 300), min_size=1, max_size=12),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), seed=st.integers(0, 2**32 - 1))
@example(lengths=list(range(70)), scale=1.0, seed=0)
@example(lengths=[128, 255, 256, 257, 0], scale=1e3, seed=1)
def test_per_row_dots_match_the_matmul_form(lengths, scale, seed):
    # every per-row kernel's dot equals float(w[idx] @ val) bit for bit
    ds = _ragged_dataset(lengths, seed, d=400, scale=scale)
    rng = np.random.default_rng(seed)
    w = scale * rng.standard_normal(400)
    model = PrimalModel(w, 0.1, 1.0)
    assistant = AssistantModel.zeros(400)
    assistant.phi[:] = w
    gpol = BatchPolicy(kind="sk", criterion="grad_norm")
    for i in range(len(ds)):
        y, idx, val = row = ds.row(i)
        dot = float(w[idx] @ val)
        assert hinge_loss(model, ds, i) == max(1.0 - y * dot, 0.0)
        assert coordinate_gradient(w, row) == y * dot - 1.0
        active = y * dot < 1.0
        assert criterion_value(gpol, model, ds, i) == (math.sqrt(ds.norms_sq[i])
                                                      if active else 0.0)
        assert assistant.score(ds, i) == min(max(sigmoid(dot), SIGMOID_CLAMP),
                                              1.0 - SIGMOID_CLAMP)


def _reference_chain(problem, idx, W0, shrink, record_ks):
    """One chain stepped on its own, the way the harness used to: the kept
    rows take a masked step, then rows past D are scaled back onto the ball."""
    W = W0.copy()
    mu, G, D = problem.mu, problem.G, problem.D
    errors = np.empty((len(record_ks), W.shape[0]))
    skips = np.zeros(idx.shape[0], dtype=np.int64)
    rec = {int(k): j for j, k in enumerate(record_ks)}
    for k in range(1, idx.shape[0] + 1):
        if k in rec:
            diff = W - problem.w_star
            errors[rec[k]] = np.einsum("sd,sd->s", diff, diff)
        g = mu * (W - problem.centers[idx[k - 1]])
        if shrink:
            keep = np.einsum("sd,sd->s", g, g) > (G / k) ** 2
        else:
            keep = np.ones(W.shape[0], dtype=bool)
        skips[k - 1] = int(W.shape[0] - keep.sum())
        W[keep] -= (1.0 / (mu * k)) * g[keep]
        norms = np.linalg.norm(W, axis=1)
        over = norms > D
        if np.any(over):
            W[over] *= (D / norms[over])[:, None]
    return errors, skips


@given(n=st.integers(1, 6), dim=st.integers(1, 4), n_seeds=st.integers(1, 5),
       n_steps=st.integers(1, 40), lattice=st.booleans(),
       mu=st.sampled_from([0.5, 1.0, 2.0, 3.7]), frac=st.floats(0.0, 1.0),
       record=st.lists(st.integers(1, 40), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, dim=1, n_seeds=1, n_steps=3, lattice=True, mu=1.0, frac=0.0,
         record=[1, 2, 3], seed=0)
@example(n=5, dim=3, n_seeds=1, n_steps=40, lattice=False, mu=2.0, frac=0.3,
         record=[1, 40], seed=1)
def test_lock_step_chains_match_one_chain_at_a_time(n, dim, n_seeds, n_steps,
                                                    lattice, mu, frac, record, seed):
    rng = np.random.default_rng(seed)
    if lattice:
        # integer points on a line: gradient norms hit G/k exactly at times
        centers = rng.integers(-3, 4, size=(n, 1)).astype(float)
    else:
        centers = rng.standard_normal((n, dim)) * rng.choice([0.1, 1.0, 10.0])
    norms = np.linalg.norm(centers, axis=1)
    lo, hi = float(np.linalg.norm(centers.mean(axis=0))), float(norms.max())
    # D between the minimizer's norm and the largest center norm, so that
    # steps toward far centers leave the ball and the projection fires
    D = float(np.ceil(lo)) if lattice else lo + frac * (hi - lo)
    prob = ComponentProblem.from_centers(centers, mu=mu, D=D)
    if lattice:
        W0 = rng.integers(-int(D), int(D) + 1, size=(n_seeds, 1)).astype(float)
    else:
        W0 = uniform_ball(prob.dim, D, rng, size=n_seeds)
    idx = rng.integers(n, size=(n_steps, n_seeds))
    ks = np.asarray(sorted({min(k, n_steps) for k in record}), dtype=np.int64)

    errors, skips = _run_chains(prob, idx, W0, ks)
    assert errors.shape == (2, len(ks), n_seeds)
    for chain, shrink in enumerate((True, False)):
        ref_errors, ref_skips = _reference_chain(prob, idx, W0, shrink, ks)
        assert errors[chain].tobytes() == ref_errors.tobytes()
        if shrink:
            assert skips.tolist() == ref_skips.tolist()


@st.composite
def _rule_inputs(draw):
    C = draw(st.floats(1e-3, 10.0))
    eps = draw(st.one_of(st.just(0.0), st.floats(1e-6, 1.0), st.just(np.inf)))
    edges = [0.0, -0.0, eps, -eps, float(np.nextafter(eps, np.inf)),
             float(np.nextafter(-eps, -np.inf))]
    alphas = st.one_of(st.sampled_from([0.0, -0.0, C]), st.floats(0.0, C))
    grads = st.one_of(st.sampled_from(edges), st.floats(-10.0, 10.0))
    return C, eps, draw(st.lists(st.tuples(alphas, grads), min_size=1, max_size=20))


@given(_rule_inputs())
@example((1.0, 0.1, [(0.0, 0.1), (-0.0, -0.0), (1.0, -0.1), (1.0, -0.0),
                     (0.0, 0.10000000000000002), (1.0, -0.10000000000000002),
                     (0.5, 5.0)]))
@example((2.0, np.inf, [(0.0, np.inf), (2.0, -np.inf), (0.0, 0.0)]))
def test_array_rules_match_scalar_rules(inputs):
    C, eps, pairs = inputs
    alpha = np.array([a for a, _ in pairs])
    grad = np.array([g for _, g in pairs])
    pg = projected_gradients(alpha, grad, C)
    pinned = _shrink_candidates(alpha, grad, C, eps)
    assert pinned.dtype == bool
    for k, (a, g) in enumerate(pairs):
        # equal as values: numpy may give a zero the other sign, which the
        # solver's abs() removes
        assert pg[k] == projected_gradient(a, g, C)
        assert bool(pinned[k]) == _shrink_candidate(a, g, C, eps)


_svm_rows = st.lists(
    st.tuples(st.sampled_from([1.0, -1.0]),
              st.dictionaries(st.integers(0, 3),
                              st.one_of(st.sampled_from([0.0, 0.5, -1.0, 1.5]),
                                        st.floats(-3.0, 3.0, allow_subnormal=False)),
                              max_size=4)),
    min_size=1, max_size=12)


def _kkt_oracle(X, y, alpha, C):
    """Max |projected gradient| over the rows with features, and the dual
    objective, from X, labels and alpha alone."""
    w = X.T @ (alpha * y)
    worst = 0.0
    for i in range(X.shape[0]):
        row = X.getrow(i)
        if not row.multiply(row).sum() > 0.0:
            continue
        g = y[i] * float((row @ w)[0]) - 1.0
        if alpha[i] <= 0.0:
            g = min(g, 0.0)
        elif alpha[i] >= C:
            g = max(g, 0.0)
        worst = max(worst, abs(g))
    return worst, 0.5 * float(w @ w) - float(alpha.sum())


_SMALL_SVM = [(1.0, {}), (1.0, {0: 0.0}), (-1.0, {0: 1.0}), (1.0, {0: 1.0, 1: 0.5})]


def test_dual_solve_converges_on_small_problem():
    ds = _dataset(_SMALL_SVM)
    for shrink in (True, False):
        res = solve(ds, 1.0, tol=1e-6, use_shrinking=shrink, seed=0)
        assert res.converged
        assert _kkt_oracle(ds.X, ds.labels, res.state.alpha, 1.0)[0] < 1e-6


@settings(deadline=None)
@given(rows=_svm_rows, C=st.floats(1e-3, 10.0),
       tol=st.sampled_from([1e-3, 1e-6]), seed=st.integers(0, 3))
@example(rows=_SMALL_SVM, C=1.0, tol=1e-6, seed=0)
@example(rows=[(-1.0, {2: -1.0, 0: 6.103515625e-05}),
               (1.0, {0: -1.0, 1: 0.0, 2: -1.0, 3: 1.5}),
               (1.0, {0: -1.0}), (1.0, {3: 1.5})],
         C=2.0, tol=1e-6, seed=0)
# unshrunk, the last sweep passes its own test at a point 1.12 x tol from KKT
@example(rows=[(1.0, {0: -1.0, 1: 2.0, 3: 0.5}), (1.0, {0: 0.5, 1: 2.0, 2: -0.5}),
               (1.0, {0: 1.5, 1: 2.0, 2: -0.5})],
         C=5.0, tol=1e-3, seed=0)
def test_dual_solve_certifies_kkt_point(rows, C, tol, seed):
    ds = _dataset(rows)
    X, y = ds.X, ds.labels
    m = int(np.count_nonzero(np.asarray(X.multiply(X).sum(axis=1)).ravel() > 0.0))
    max_epochs = 1000
    found = []
    for shrink in (True, False):
        res = solve(ds, C, tol=tol, max_epochs=max_epochs, use_shrinking=shrink,
                    seed=seed)
        if not res.converged:
            # Dual CD has no bound on its sweeps: a near-singular Gram matrix
            # can need tens of thousands (the second example needs 20,089).
            # An unconverged run must have spent its whole budget and its
            # last recorded measure, sweep or check, must not pass tol.
            assert res.n_sweeps == max_epochs
            assert res.curve[-1][5] >= tol
            continue
        pg, dual = _kkt_oracle(X, y, res.state.alpha, C)
        # every converged run ends on a passing KKT check, which judged the
        # point returned, whether or not anything was shrunk
        assert len(res.curve) - res.n_sweeps == res.n_failed_checks + 1
        assert pg < tol
        found.append((pg, dual))
    if len(found) < 2:
        return
    # By convexity and the box, f(alpha) - f* <= max|PG(alpha)| * C summed
    # over the rows with features, so the two objectives differ by at most
    # the sum of both runs' bounds (plus round-off).
    (pg_s, d_s), (pg_n, d_n) = found
    assert abs(d_s - d_n) <= (pg_s + pg_n) * m * C + 1e-12 * (1.0 + abs(d_n))
