"""Tape primitives: forward values against numpy, backward against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorgraph import numcore as nc
from rumorgraph.numcore import RngStreams, Tensor
from rumorgraph.numcore.tensor import DroppedValueError
from tests import oracles
from tests.conftest import forest_operator
from tests.gradcheck import finite_diff_grad, relative_error


def test_matmul_identity():
    m = np.array([[2.0, -1.0], [0.5, 3.0]])
    out = nc.matmul(Tensor(np.eye(2)), Tensor(m))
    assert np.array_equal(out.data, m)


def test_matmul_hand_example():
    out = nc.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[0.0], [1.0]]))
    assert np.array_equal(out.data, [[2.0], [4.0]])


def test_matmul_zeros():
    out = nc.matmul(Tensor(np.zeros((3, 4))), Tensor(np.ones((4, 2))))
    assert np.array_equal(out.data, np.zeros((3, 2)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(nc.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        nc.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def _layer_norm(x, gain, bias, eps):
    """``nc.layer_norm`` of the rows of ``x``, each its own segment, its last column joined on as the claim block."""
    x = np.asarray(x, dtype=np.float64)
    return nc.layer_norm(Tensor(x[:, :-1]), Tensor(x[:, -1:]), [1] * len(x), Tensor(gain), Tensor(bias), eps)


def test_layer_norm_constant_row_is_bias():
    out = _layer_norm([[1.0, 1.0, 1.0]], np.ones(3), np.zeros(3), 1e-5)
    assert np.allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_two_point_row():
    out = _layer_norm([[0.0, 2.0]], np.ones(2), np.zeros(2), 1e-5)
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_zero_gain_gives_bias():
    bias = np.array([3.0, -1.0, 0.5])
    out = _layer_norm(np.random.default_rng(0).normal(size=(4, 3)), np.zeros(3), bias, 1e-5)
    assert np.allclose(out.data, np.tile(bias, (4, 1)))


def test_layer_norm_rejects_sizes_that_miss_rows():
    gain, bias = Tensor(np.ones(3)), Tensor(np.zeros(3))
    for rows, source_rows, sizes in [(3, 3, [1, 1]), (3, 2, [3]), (3, 3, [0, 3]), (3, 3, [4, -1])]:
        h, source = Tensor(np.ones((rows, 2))), Tensor(np.ones((source_rows, 1)))
        with pytest.raises(nc.ShapeError, match="cannot join"):
            nc.layer_norm(h, source, sizes, gain, bias, 1e-5)


def test_layer_norm_row_statistics():
    # eps sits under the root, so |var - 1| ~ eps / row_var; rows here have
    # variance well above eps's reach
    gen = np.random.default_rng(3)
    x = gen.normal(size=(20, 9)) * 20 + 2
    out = _layer_norm(x, np.ones(9), np.zeros(9), 1e-5).data
    assert np.all(np.abs(out.mean(axis=1)) < 1e-9)
    assert np.all(np.abs(out.var(axis=1) - 1.0) < 1e-6)


def test_glorot_bounds_and_determinism():
    bound = np.sqrt(6.0 / (30 + 20))
    t1 = nc.glorot_init((30, 20), RngStreams(5).init)
    t2 = nc.glorot_init((30, 20), RngStreams(5).init)
    assert np.all(np.abs(t1.data) <= bound)
    assert np.array_equal(t1.data, t2.data)
    assert t1.requires_grad


def test_glorot_mean_statistics():
    # mean of n uniform(-b, b) draws has std b/sqrt(3n)
    t = nc.glorot_init((500, 200), RngStreams(11).init)
    bound = np.sqrt(6.0 / 700)
    sigma = bound / np.sqrt(3 * t.data.size)
    assert abs(t.data.mean()) < 3 * sigma


def test_finite_diff_on_analytic_functions():
    p = nc.parameter(np.array([[3.0]]), "p")
    grad = finite_diff_grad(lambda: float(p.data[0, 0] ** 2), [p])[0]
    assert grad[0, 0] == pytest.approx(6.0, abs=1e-8)

    q = nc.parameter(np.array([1.0, -2.0, 0.5]), "q")
    assert np.allclose(finite_diff_grad(lambda: float(q.data.sum()), [q])[0], 1.0, atol=1e-9)
    assert np.allclose(finite_diff_grad(lambda: 7.5, [q])[0], 0.0)


# -- backward pass vs central differences -------------------------------------------


def _check_op(build, params, tol=1e-4):
    out = build()
    loss = oracles.sum_all(nc.mul(out, out))  # quadratic head exercises nonzero upstream grads
    visited = loss.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    nc.clear_grads(visited)

    def loss_value():
        with_graph = build()
        return float(np.sum(with_graph.data * with_graph.data))

    numeric = finite_diff_grad(loss_value, params)
    for a, n in zip(analytic, numeric):
        assert relative_error(a, n) < tol


def _away_from_zero(gen, shape, margin=0.2):
    # keeps clamp inputs clear of their kink under the probe step; graph_conv's
    # pre-activations stay at least 2.9e-3 from 0 with the seed below
    values = gen.normal(size=shape)
    return values + np.where(values >= 0, margin, -margin)


def test_backward_matches_finite_differences_over_random_shapes():
    gen = np.random.default_rng(42)
    cases = []
    for _ in range(100):
        rows = int(gen.integers(1, 9))
        cols = int(gen.integers(2, 9))
        inner = int(gen.integers(1, 9))
        a = nc.parameter(_away_from_zero(gen, (rows, inner)), "a")
        b = nc.parameter(_away_from_zero(gen, (inner, cols)), "b")
        c = nc.parameter(_away_from_zero(gen, (rows, cols)), "c")
        pos = nc.parameter(np.abs(gen.normal(size=(rows, cols))) + 0.5, "pos")
        vec = nc.parameter(gen.normal(size=cols), "vec")
        wide_gain = nc.parameter(gen.normal(size=cols + inner) + 1.5, "wide_gain")
        wide_bias = nc.parameter(gen.normal(size=cols + inner), "wide_bias")
        twice_gain = nc.parameter(gen.normal(size=2 * cols) + 1.5, "twice_gain")
        twice_bias = nc.parameter(gen.normal(size=2 * cols), "twice_bias")
        # a segment starts at row 0 and at every later row whose draw is non-negative
        draws = gen.integers(-rows, rows, size=rows)
        starts = np.flatnonzero(np.r_[True, draws[1:] >= 0])
        segments = np.diff(np.r_[starts, rows]).tolist()
        keep = gen.random((rows, cols)) >= 0.3
        op = forest_operator(list(range(rows - 1)))  # a path
        sizes = [1, 2 * rows - 1]
        builders = {
            "matmul": (lambda a=a, b=b: nc.matmul(a, b), [a, b]),
            "add_broadcast": (lambda c=c, vec=vec: c + vec, [c, vec]),
            "mul": (lambda a=a: a * a, [a]),
            "div_broadcast": (lambda c=c, pos=pos: oracles.div(c, oracles.sum_rows(pos)), [c, pos]),
            "graph_conv": (lambda op=op, a=a, b=b, vec=vec: nc.graph_conv(op, a, b, vec), [a, b, vec]),
            "graph_conv_constant_x": (
                lambda op=op, a=a, b=b, vec=vec: nc.graph_conv(op, Tensor(a.data), b, vec),
                [b, vec],
            ),
            "exp": (lambda c=c: oracles.exp(c), [c]),
            "log": (lambda pos=pos: oracles.log(pos), [pos]),
            "sqrt": (lambda pos=pos: oracles.sqrt(pos), [pos]),
            "clamp_min": (lambda c=c: oracles.clamp_min(c, 0.0), [c]),
            "transpose": (lambda c=c: oracles.transpose(c), [c]),
            "concat_rows": (lambda c=c: nc.concat_rows(c, c), [c]),
            "mul_keep_mask": (lambda c=c, keep=keep: c * Tensor(keep), [c]),
            "sum_rows": (lambda c=c: oracles.sum_rows(c), [c]),
            "segment_mean": (lambda c=c, sizes=sizes: nc.segment_mean(nc.concat_rows(c, c), sizes), [c]),
            "softmax_rows": (lambda c=c: nc.softmax_rows(c), [c]),
            "layer_norm": (
                lambda c=c, a=a, s=segments, g=wide_gain, b=wide_bias: nc.layer_norm(c, a, s, g, b, 1e-5),
                [c, a, wide_gain, wide_bias],
            ),
            "layer_norm_own_rows": (
                lambda c=c, s=segments, g=twice_gain, b=twice_bias: nc.layer_norm(c, c, s, g, b, 1e-5),
                [c, twice_gain, twice_bias],
            ),
        }
        name = list(builders)[len(cases) % len(builders)]
        build, params = builders[name]
        _check_op(build, params)
        cases.append(name)
    assert len(cases) == 100


def test_backward_gather_segment_div_transpose():
    gen = np.random.default_rng(7)
    x = nc.parameter(gen.normal(size=(6, 4)), "x")
    idx = np.array([0, 0, 2, 5, 1, 0])

    def build():
        g = oracles.gather_rows(x, idx)
        seg = nc.segment_mean(g, [2, 3, 1])
        norm = oracles.sqrt(oracles.sum_rows(seg * seg) + 0.5)
        return oracles.transpose(oracles.div(seg, norm))

    _check_op(build, [x])


def test_gradients_bitwise_deterministic():
    def run():
        gen = np.random.default_rng(9)
        a = nc.parameter(gen.normal(size=(5, 5)), "a")
        b = nc.parameter(gen.normal(size=(5, 3)), "b")
        loss = oracles.sum_all(nc.softmax_rows(nc.graph_conv(forest_operator([0, 1, 2, 3]), a, b, np.zeros(3))))
        loss.backward()
        return a.grad.copy(), b.grad.copy()

    first, second = run(), run()
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


CONSTANT_OPERAND_CASES = {
    # (op, constant, parameter, upstream gradient, the parameter's gradient);
    # the constant's gradient product would be 0 * inf, or inf + -inf in add's
    # broadcast sum, and warn
    "add": (nc.add, [1.0], [1.0, 2.0], [np.inf, -np.inf], [np.inf, -np.inf]),
    "mul": (nc.mul, [1.0, 2.0], [np.inf, 1.0], [0.0, 0.0], [0.0, 0.0]),
    "div": (lambda c, p: oracles.div(p, c), [2.0, 4.0], [np.inf, 1.0], [0.0, 0.0], [0.0, 0.0]),
}


@pytest.mark.parametrize("case", sorted(CONSTANT_OPERAND_CASES))
def test_elementwise_backward_skips_the_constant_operand(case):
    op, constant, value, upstream, expected = CONSTANT_OPERAND_CASES[case]
    c, p = Tensor(constant), nc.parameter(np.array(value), "p")
    out = op(c, p)
    out._backward(np.array(upstream))
    assert np.array_equal(p.grad, expected)
    assert c.grad is None


def test_a_dropped_value_raises_when_read():
    a = nc.parameter(np.array([[1.0, -2.0]]), "a")
    b = a * a
    loss = oracles.sum_all(b * b)  # mul's rule reads both operands' values
    nc.drop(b)
    with pytest.raises(DroppedValueError, match="dropped"):
        b.data
    with pytest.raises(DroppedValueError):
        loss.backward()
    with pytest.raises(AttributeError, match="no attribute 'datum'"):
        b.datum


def test_no_grad_blocks_recording():
    p = nc.parameter(np.ones((2, 2)), "p")
    with nc.no_grad():
        out = nc.matmul(p, p)
    assert not out.requires_grad
    assert out._backward is None


def test_precision_context_restores_previous_dtype():
    with nc.precision("f32"):
        assert Tensor([1.0]).data.dtype == np.float32
        with pytest.raises(RuntimeError):
            with nc.precision("f64"):
                assert nc.active_dtype() == np.float64
                raise RuntimeError("inside")
        assert nc.active_dtype() == np.float32
    assert nc.active_dtype() == np.float64
    with pytest.raises(ValueError, match="unknown precision"):
        with nc.precision("f16"):
            pass
    assert nc.active_dtype() == np.float64


@settings(max_examples=30)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_softmax_rows_sum_to_one(rows, cols, seed):
    x = np.random.default_rng(seed).normal(size=(rows, cols)) * 10
    out = nc.softmax_rows(Tensor(x)).data
    assert np.all(out > 0)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
