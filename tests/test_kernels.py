"""The in-place kernels against their straightforward oracles, byte for byte.

``layer_norm`` (which gathers and joins each segment's claim row itself, a
block of rows at a time) and ``adamw_step`` reuse buffers; the segment sums
behind ``layer_norm``'s claim gradient and ``segment_mean`` add the k-th row
of every segment in one slab; ``graph_conv`` runs a whole convolution layer
as one tape node. Each must still give the same values and gradients as the
composition in ``tests.oracles`` at f64 and at f32, whatever the block size.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rumorgraph import numcore as nc
from rumorgraph.numcore import AdamWState, Tensor, adamw_step, tensor
from rumorgraph.numcore.tensor import _segment_sums
from tests import oracles
from tests.conftest import forest_operator

PRECISIONS = st.sampled_from(["f64", "f32"])
DTYPES = {"f64": np.float64, "f32": np.float32}
SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
SEGMENTS = st.lists(st.integers(1, 12), max_size=5)


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
    oracles.sum_all(out * Tensor(upstream)).backward()
    return out.data, [t.grad for t in tensors]


def _claim_layer_norm(op, arrays, sizes, upstream, eps, trainable):
    """``op``'s output and gradients for ``h, source, gain, bias``; only ``trainable`` ones of ``h, source`` get one."""
    operands = [
        nc.parameter(a.copy(), "p") if grad else Tensor(a.copy()) for a, grad in zip(arrays, trainable + (True, True))
    ]
    out = op(*operands[:2], sizes, *operands[2:], eps)
    oracles.backward(oracles.sum_all(out * Tensor(upstream)))
    return out.data, [t.grad for t in operands]


def _check_claim_layer_norm(precision, h, source, sizes, gain, bias, upstream, eps, trainable):
    arrays = [h, source, gain, bias]
    with nc.precision(precision):
        got, got_grads = _claim_layer_norm(nc.layer_norm, arrays, sizes, upstream, eps, trainable)
        want, want_grads = _claim_layer_norm(oracles.claim_layer_norm, arrays, sizes, upstream, eps, trainable)
        with nc.no_grad():
            untaped = nc.layer_norm(*[nc.parameter(a.copy(), "p") for a in arrays[:2]], sizes, gain, bias, eps)
        # what graph_conv's backward reads of a dropped output
        rebuilt = nc.layer_norm(*[nc.parameter(a.copy(), "p") for a in arrays[:2]], sizes, gain, bias, eps)._rebuild()
    assert _same_bytes(got, want)
    assert _same_bytes(untaped.data, want)
    assert _same_bytes(rebuilt, want)
    for a, b in zip(got_grads, want_grads):
        assert (a is None and b is None) or _same_bytes(a, b)


def _block_rows(rows, width, dtype):
    """Patch ``layer_norm`` to blocks of ``rows`` rows at this width and dtype; ``None`` keeps the default budget."""
    budget = rows * width * np.dtype(dtype).itemsize if rows else tensor._BLOCK_BYTES
    return mock.patch.object(tensor, "_BLOCK_BYTES", budget)


@given(
    st.data(),
    PRECISIONS,
    st.lists(st.integers(1, 5), max_size=4),
    st.integers(1, 20),
    st.integers(1, 20),
    st.sampled_from([1e-5, 1e-2]),
    st.sampled_from([None, 1, 2, 3]),
)
def test_layer_norm_matches_the_oracle_bitwise(data, precision, sizes, width, source_width, eps, block_rows):
    # a few rows a block spans several blocks with a ragged last one; None is one block
    dtype = DTYPES[precision]
    rows, d = sum(sizes), width + source_width
    h = data.draw(_values(dtype, (rows, width)))
    source = data.draw(_values(dtype, (rows, source_width)))
    gain = data.draw(_values(dtype, (d,), bound=4.0))
    bias = data.draw(_values(dtype, (d,), bound=4.0))
    upstream = data.draw(_values(dtype, (rows, d), bound=4.0))
    trainable = data.draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    with _block_rows(block_rows, d, dtype):
        _check_claim_layer_norm(precision, h, source, sizes, gain, bias, upstream, eps, trainable)


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("rows", [0, 1])
@pytest.mark.parametrize("block_rows", [None, 1])
def test_layer_norm_of_zero_and_one_rows_matches_the_oracle_bitwise(precision, rows, block_rows):
    # zero rows give zero gain and bias gradients
    dtype = DTYPES[precision]
    gen = np.random.default_rng(rows)
    h, source = gen.normal(size=(rows, 3)).astype(dtype), gen.normal(size=(rows, 4)).astype(dtype)
    gain, bias = gen.normal(size=7).astype(dtype), gen.normal(size=7).astype(dtype)
    upstream = gen.normal(size=(rows, 7)).astype(dtype)
    with _block_rows(block_rows, 7, dtype):
        for trainable in [(True, True), (True, False), (False, True)]:
            _check_claim_layer_norm(precision, h, source, [1] * rows, gain, bias, upstream, 1e-5, trainable)


def test_untaped_layer_norm_keeps_one_output_buffer():
    # 2,000 rows of 64 + 768 columns at f64: the output is 13.3 MB. Untaped,
    # the affine output overwrites the normalized rows and the claim rows are
    # gathered a block at a time: 13.9 MB peak. Two (n, d) buffers, for the
    # normalized rows and the output, after a whole (n, 768) copy of the
    # gathered claim rows read 26.7 MB.
    gen = np.random.default_rng(0)
    h, source = Tensor(gen.normal(size=(2000, 64))), Tensor(gen.normal(size=(2000, 768)))
    gain, bias = nc.parameter(np.ones(832), "gain"), nc.parameter(np.zeros(832), "bias")
    output_bytes = 2000 * 832 * 8
    with nc.no_grad():
        tracemalloc.start()
        try:
            out = nc.layer_norm(h, source, [20] * 100, gain, bias, 1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.data.nbytes == output_bytes
    assert peak < output_bytes + 1_000_000


def test_layer_norm_backward_keeps_only_the_columns_that_get_a_gradient():
    # 2,000 rows of 64 + 768 columns at f64; as in the encoder's first layer,
    # only h gets a gradient. Its 1.0 MB, the block scratch and the gain and
    # bias sums peak at 1.9 MB; finishing every column of every row in one
    # (n, d) buffer read 13.9 MB.
    gen = np.random.default_rng(1)
    h, source = nc.parameter(gen.normal(size=(2000, 64)), "h"), Tensor(gen.normal(size=(2000, 768)))
    gain, bias = nc.parameter(np.ones(832), "gain"), nc.parameter(np.zeros(832), "bias")
    out = nc.layer_norm(h, source, [20] * 100, gain, bias, 1e-5)
    upstream = gen.normal(size=out.shape)
    tracemalloc.start()
    try:
        out._backward(upstream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.grad.shape == (2000, 64) and source.grad is None
    assert peak < h.grad.nbytes + 1_500_000


def _check_graph_conv(precision, op, x, w, b, upstream, keep=None):
    runs = []
    with nc.precision(precision):
        for conv in (nc.graph_conv, oracles.graph_conv):
            for x_trainable in (True, False):
                operands = [nc.parameter(x.copy(), "x") if x_trainable else Tensor(x.copy())]
                operands += [nc.parameter(w.copy(), "w"), nc.parameter(b.copy(), "b")]
                out = conv(op, *operands, keep)
                oracles.sum_all(out * Tensor(upstream)).backward()
                runs.append((out.data, [t.grad for t in operands]))
    for (got, got_grads), (want, want_grads) in zip(runs[:2], runs[2:]):
        assert _same_bytes(got, want)
        for a, c in zip(got_grads, want_grads):
            assert (a is None and c is None) or _same_bytes(a, c)


@given(st.data(), PRECISIONS, st.integers(1, 4), st.integers(1, 4))
def test_graph_conv_matches_the_oracle_bitwise(data, precision, width, out_width):
    dtype = DTYPES[precision]
    parents = []
    for i in range(data.draw(st.integers(0, 7))):
        parents.append(data.draw(st.one_of(st.none(), st.integers(0, i))))
    rows = len(parents) + 1
    x = data.draw(_values(dtype, (rows, width)))
    w = data.draw(_values(dtype, (width, out_width), bound=4.0))
    b = data.draw(_values(dtype, (out_width,)))
    upstream = data.draw(_values(dtype, (rows, out_width), bound=4.0))
    keep = data.draw(st.one_of(st.none(), hnp.arrays(np.bool_, (rows, width))))
    _check_graph_conv(precision, forest_operator(parents), x, w, b, upstream, keep)


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_graph_conv_relu_writes_positive_zeros(precision):
    # node 2 has no edges and a zero feature row, so its pre-activations are
    # 0.0 + b: two exact zeros and -1.5. All three come out +0.0, where
    # pre * mask would write -0.0 for the negative one
    dtype = DTYPES[precision]
    x = np.array([[1.0, -2.0], [0.5, 3.0], [0.0, 0.0]], dtype=dtype)
    w = np.array([[1.0, -1.0, 2.0], [-0.5, 0.25, 1.0]], dtype=dtype)
    b = np.array([0.0, -0.0, -1.5], dtype=dtype)
    upstream = np.array([[1.0, -2.0, 0.5], [3.0, 1.0, -1.0], [2.0, 2.0, 2.0]], dtype=dtype)
    op = forest_operator([0, None])
    with nc.precision(precision):
        out = nc.graph_conv(op, Tensor(x), nc.parameter(w, "w"), nc.parameter(b, "b"))
    assert _same_bytes(out.data[2], np.zeros(3, dtype=dtype))
    _check_graph_conv(precision, op, x, w, b, upstream)


@pytest.mark.parametrize("dropout", [False, True])
def test_taped_graph_conv_keeps_its_output_and_mask(dropout):
    # 2,000 rows of 64 -> 256 columns at f64: the output is 4.1 MB and the
    # relu mask 0.5 MB. The four-node composition also kept x @ w, its
    # product with the operator and the pre-activation: 16.9 MB in all, and
    # a dropout mask node another 1.0 MB of masked rows.
    gen = np.random.default_rng(2)
    op = forest_operator([i // 3 for i in range(1999)])
    x = nc.parameter(gen.normal(size=(2000, 64)), "x")
    w, b = nc.parameter(gen.normal(size=(64, 256)), "w"), nc.parameter(gen.normal(size=256), "b")
    keep = gen.random(x.shape) >= 0.2 if dropout else None
    tracemalloc.start()
    try:
        out = nc.graph_conv(op, x, w, b, keep)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert out._backward is not None
    assert kept < out.data.nbytes + out.data.size + 100_000


@given(st.data(), PRECISIONS, SEGMENTS, st.integers(0, 4))
def test_gather_rows_matches_the_oracle_bitwise(data, precision, sizes, cols):
    # layer_norm's claim-block gradient: the oracle gathers each segment's first row, np.add.at scatters back
    dtype = DTYPES[precision]
    counts = np.asarray(sizes, dtype=np.intp)
    starts = np.cumsum(counts) - counts
    x = data.draw(_values(dtype, (sum(sizes), cols)))
    upstream = data.draw(_values(dtype, (sum(sizes), cols)))
    with nc.precision(precision):
        _, [want_grad] = _forward_backward(oracles.gather_rows, [x], upstream, np.repeat(starts, counts))
    full = np.zeros_like(x)
    full[starts] = _segment_sums(upstream, counts)
    assert _same_bytes(full, want_grad)


def test_gather_rows_backward_keeps_the_zeros_np_add_at_makes():
    # np.add.at starts from +0.0, so -0.0 + -0.0 in a segment reads +0.0, where summing from the first row reads -0.0
    upstream = np.array([[-0.0, 1.0], [-0.0, -0.0], [2.0, -0.0]])
    sums = _segment_sums(upstream, np.array([2, 1]))
    assert _same_bytes(sums, np.array([[0.0, 1.0], [2.0, 0.0]]))


@given(st.data(), PRECISIONS, SEGMENTS, st.integers(0, 4))
def test_segment_sums_match_np_add_at_over_sorted_segment_ids(data, precision, sizes, cols):
    dtype = DTYPES[precision]
    counts = np.asarray(sizes, dtype=np.intp)
    x = data.draw(_values(dtype, (sum(sizes), cols)))
    want = np.zeros((len(sizes), cols), dtype=dtype)
    np.add.at(want, np.repeat(np.arange(len(sizes)), counts), x)
    assert _same_bytes(_segment_sums(x, counts), want)


@given(st.data(), PRECISIONS, SEGMENTS, st.integers(2, 5))
def test_segment_mean_matches_the_oracle_bitwise(data, precision, sizes, cols):
    # at two or more columns numpy's axis-0 sum adds rows in order, as the segment sums do;
    # at f32 the mean divides by an intp count in float64, then rounds
    dtype = DTYPES[precision]
    x = data.draw(_values(dtype, (sum(sizes), cols)))
    upstream = data.draw(_values(dtype, (len(sizes), cols)))
    with nc.precision(precision):
        got, [got_grad] = _forward_backward(nc.segment_mean, [x], upstream, sizes)
        want, [want_grad] = _forward_backward(oracles.segment_mean, [x], upstream, sizes)
    assert _same_bytes(got, want)
    assert _same_bytes(got_grad, want_grad)


@given(
    st.data(),
    PRECISIONS,
    st.integers(1, 5),
    st.sampled_from([0.0, 0.04]),
)
def test_adamw_matches_the_oracle_bitwise_over_steps(data, precision, steps, weight_decay):
    dtype = DTYPES[precision]
    shapes = {"w": (3, 2), "b": (2,)}
    start = {name: data.draw(_values(dtype, shape, bound=4.0)) for name, shape in shapes.items()}
    runs = []
    for step_fn in (adamw_step, oracles.adamw_step):
        with nc.precision(precision):
            params = {name: nc.parameter(value.copy(), name) for name, value in start.items()}
        state = AdamWState(learning_rate=0.02, weight_decay=weight_decay)
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
