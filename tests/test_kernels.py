"""The in-place kernels against their straightforward oracles, byte for byte.

``layer_norm`` (which gathers and joins the claim rows itself), the row
scatter of its backward and ``adamw_step`` reuse buffers and, for the
scatter, reorder the work; each must still give the same values and
gradients as the composition in ``tests.oracles`` at f64 and at f32.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rumorgraph import numcore as nc
from rumorgraph.numcore import AdamWState, Tensor, adamw_step
from rumorgraph.numcore.tensor import _scatter_rows
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


@given(
    st.data(),
    PRECISIONS,
    st.integers(1, 7),
    st.integers(1, 20),
    st.integers(1, 5),
    st.integers(1, 20),
    st.sampled_from([1e-5, 1e-2]),
)
def test_layer_norm_matches_the_oracle_bitwise(data, precision, rows, width, source_rows, source_width, eps):
    dtype = DTYPES[precision]
    d = width + source_width
    h = data.draw(_values(dtype, (rows, width)))
    source = data.draw(_values(dtype, (source_rows, source_width)))
    # unsorted, repeated and negative rows of source
    index = np.asarray(data.draw(st.lists(st.integers(-source_rows, source_rows - 1), min_size=rows, max_size=rows)))
    gain = data.draw(_values(dtype, (d,), bound=4.0))
    bias = data.draw(_values(dtype, (d,), bound=4.0))
    upstream = data.draw(_values(dtype, (rows, d), bound=4.0))
    trainable = data.draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    runs = []
    with nc.precision(precision):
        for op in (nc.layer_norm, oracles.claim_layer_norm):
            operands = [
                nc.parameter(a.copy(), "p") if grad else Tensor(a.copy())
                for a, grad in zip([h, source, gain, bias], trainable + (True, True))
            ]
            out = op(*operands[:2], index, *operands[2:], eps)
            oracles.backward(nc.sum_all(out * Tensor(upstream)))
            runs.append((out.data, [t.grad for t in operands]))
    (got, got_grads), (want, want_grads) = runs
    assert _same_bytes(got, want)
    for a, b in zip(got_grads, want_grads):
        assert (a is None and b is None) or _same_bytes(a, b)


@given(st.data(), PRECISIONS, st.integers(1, 6), st.integers(0, 4))
def test_gather_rows_matches_the_oracle_bitwise(data, precision, rows, cols):
    # the scatter behind layer_norm's claim-block gradient against np.add.at
    dtype = DTYPES[precision]
    x = data.draw(_values(dtype, (rows, cols)))
    indices = np.asarray(data.draw(st.lists(st.integers(-rows, rows - 1), max_size=12)), dtype=np.intp)
    upstream = data.draw(_values(dtype, (len(indices), cols)))
    with nc.precision(precision):
        _, [want_grad] = _forward_backward(oracles.gather_rows, [x], upstream, indices)
    assert _same_bytes(_scatter_rows(upstream, indices, x), want_grad)


def test_gather_rows_backward_keeps_the_zeros_np_add_at_makes():
    # np.add.at starts from +0.0, so a row gathered once with gradient -0.0 reads +0.0
    upstream = np.array([[-0.0, 1.0], [-0.0, -0.0], [2.0, -0.0]])
    full = _scatter_rows(upstream, np.array([2, 0, 2]), np.ones((3, 2)))
    assert _same_bytes(full, np.array([[0.0, 0.0], [0.0, 0.0], [2.0, 1.0]]))


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
