"""Property tests of the assistant's scalar kernels against the numpy forms
they must reproduce bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from shrinkopt.autoassist import ThresholdPolicy  # noqa: E402
from shrinkopt.linear_models import sigmoid  # noqa: E402

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
