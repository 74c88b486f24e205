"""The in-place kernels against their straightforward oracles, byte for byte.

``layer_norm``, ``gather_rows`` and ``adamw_step`` reuse buffers and, for
``gather_rows``, reorder the work; each must still give the same values and
gradients as the version in ``tests.oracles`` at f64 and at f32.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rumorgraph import numcore as nc
from rumorgraph.numcore import AdamWState, Tensor, adamw_step
from tests import oracles

PRECISIONS = st.sampled_from(["f64", "f32"])
DTYPES = {"f64": np.float64, "f32": np.float32}
SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


def _values(dtype, shape, bound=1e3):
    width = 32 if dtype is np.float32 else 64
    elements = st.one_of(st.floats(-bound, bound, width=width), SIGNED_ZEROS)
    return hnp.arrays(dtype, shape, elements=elements)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _forward_backward(op, operands, upstream, *args):
    """``op``'s output and each operand's gradient under the upstream gradient ``upstream``."""
    tensors = [nc.parameter(a.copy(), f"p{i}") for i, a in enumerate(operands)]
    out = op(*tensors, *args)
    nc.sum_all(out * Tensor(upstream)).backward()
    return out.data, [t.grad for t in tensors]


@given(st.data(), PRECISIONS, st.integers(1, 7), st.integers(1, 40), st.sampled_from([1e-5, 1e-2]))
def test_layer_norm_matches_the_oracle_bitwise(data, precision, rows, cols, eps):
    dtype = DTYPES[precision]
    x = data.draw(_values(dtype, (rows, cols)))
    gain = data.draw(_values(dtype, (cols,), bound=4.0))
    bias = data.draw(_values(dtype, (cols,), bound=4.0))
    upstream = data.draw(_values(dtype, (rows, cols), bound=4.0))
    with nc.precision(precision):
        got, got_grads = _forward_backward(nc.layer_norm, [x, gain, bias], upstream, eps)
        want, want_grads = _forward_backward(oracles.layer_norm, [x, gain, bias], upstream, eps)
    assert _same_bytes(got, want)
    for a, b in zip(got_grads, want_grads):
        assert _same_bytes(a, b)


@given(st.data(), PRECISIONS, st.integers(1, 6), st.integers(0, 4))
def test_gather_rows_matches_the_oracle_bitwise(data, precision, rows, cols):
    dtype = DTYPES[precision]
    x = data.draw(_values(dtype, (rows, cols)))
    indices = np.asarray(data.draw(st.lists(st.integers(-rows, rows - 1), max_size=12)), dtype=np.intp)
    upstream = data.draw(_values(dtype, (len(indices), cols)))
    with nc.precision(precision):
        got, [got_grad] = _forward_backward(nc.gather_rows, [x], upstream, indices)
        want, [want_grad] = _forward_backward(oracles.gather_rows, [x], upstream, indices)
    assert _same_bytes(got, want)
    assert _same_bytes(got_grad, want_grad)


def test_gather_rows_backward_keeps_the_zeros_np_add_at_makes():
    # np.add.at starts from +0.0, so a row gathered once with gradient -0.0 reads +0.0
    x = nc.parameter(np.ones((3, 2)), "x")
    out = nc.gather_rows(x, np.array([2, 0, 2]))
    nc.sum_all(out * Tensor([[-0.0, 1.0], [-0.0, -0.0], [2.0, -0.0]])).backward()
    assert _same_bytes(x.grad, np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 1.0]]))


@given(
    st.data(),
    PRECISIONS,
    st.integers(1, 5),
    st.sampled_from([0.0, 0.04]),
    st.floats(0.0, 0.99),
    st.floats(0.9, 0.9999),
)
def test_adamw_matches_the_oracle_bitwise_over_steps(data, precision, steps, weight_decay, beta1, beta2):
    dtype = DTYPES[precision]
    shapes = {"w": (3, 2), "b": (2,)}
    start = {name: data.draw(_values(dtype, shape, bound=4.0)) for name, shape in shapes.items()}
    runs = []
    for step_fn in (adamw_step, oracles.adamw_step):
        with nc.precision(precision):
            params = {name: nc.parameter(value.copy(), name) for name, value in start.items()}
        state = AdamWState(learning_rate=0.02, beta1=beta1, beta2=beta2, weight_decay=weight_decay)
        runs.append((step_fn, params, state))
    for _ in range(steps):
        grads = {name: data.draw(_values(dtype, shape)) for name, shape in shapes.items()}
        for step_fn, params, state in runs:
            step_fn(state, params, {name: g.copy() for name, g in grads.items()})
        (_, got, got_state), (_, want, want_state) = runs
        assert got["w"].data.dtype == dtype
        for name in shapes:
            assert _same_bytes(got[name].data, want[name].data)
            assert _same_bytes(got_state.m[name], want_state.m[name])
            assert _same_bytes(got_state.v[name], want_state.v[name])
