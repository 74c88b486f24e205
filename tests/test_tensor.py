"""Tape primitives: forward values against numpy, backward against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumorgraph import numcore as nc
from rumorgraph.numcore import RngStreams, Tensor
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


def test_layer_norm_constant_row_is_bias():
    out = nc.layer_norm(Tensor([[1.0, 1.0, 1.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)), 1e-5)
    assert np.allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_two_point_row():
    out = nc.layer_norm(Tensor([[0.0, 2.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), 1e-5)
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-4)


def test_layer_norm_zero_gain_gives_bias():
    bias = np.array([3.0, -1.0, 0.5])
    out = nc.layer_norm(Tensor(np.random.default_rng(0).normal(size=(4, 3))), Tensor(np.zeros(3)), Tensor(bias), 1e-5)
    assert np.allclose(out.data, np.tile(bias, (4, 1)))


def test_layer_norm_row_statistics():
    # eps sits under the root, so |var - 1| ~ eps / row_var; rows here have
    # variance well above eps's reach
    gen = np.random.default_rng(3)
    x = gen.normal(size=(20, 9)) * 20 + 2
    out = nc.layer_norm(Tensor(x), Tensor(np.ones(9)), Tensor(np.zeros(9)), 1e-5).data
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
    loss = nc.sum_all(nc.mul(out, out))  # quadratic head exercises nonzero upstream grads
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
    # keeps relu/clamp inputs clear of their kinks under the probe step
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
        gain = nc.parameter(gen.normal(size=cols) + 1.5, "gain")
        idx = gen.integers(0, rows, size=rows + 1)
        sizes = [rows, 1]
        builders = {
            "matmul": (lambda a=a, b=b: nc.matmul(a, b), [a, b]),
            "add_broadcast": (lambda c=c, vec=vec: c + vec, [c, vec]),
            "mul": (lambda a=a: a * a, [a]),
            "div_broadcast": (lambda c=c, pos=pos: nc.div(c, nc.sum_rows(pos)), [c, pos]),
            "relu": (lambda c=c: nc.relu(c), [c]),
            "exp": (lambda c=c: nc.exp(c), [c]),
            "log": (lambda pos=pos: nc.log(pos), [pos]),
            "sqrt": (lambda pos=pos: nc.sqrt(pos), [pos]),
            "clamp_min": (lambda c=c: nc.clamp_min(c, 0.0), [c]),
            "transpose": (lambda c=c: nc.transpose(c), [c]),
            "concat_cols": (lambda a=a, c=c: nc.concat_cols(c, c), [c]),
            "concat_rows": (lambda c=c: nc.concat_rows(c, c), [c]),
            "gather_rows": (lambda c=c, idx=idx: nc.gather_rows(c, idx), [c]),
            "sum_rows": (lambda c=c: nc.sum_rows(c), [c]),
            "segment_mean": (
                lambda c=c, sizes=sizes: nc.segment_mean(nc.concat_rows(c, nc.gather_rows(c, [0])), sizes),
                [c],
            ),
            "softmax_rows": (lambda c=c: nc.softmax_rows(c), [c]),
            "layer_norm": (
                lambda c=c, gain=gain, vec=vec: nc.layer_norm(c, gain, vec, 1e-5),
                [c, gain, vec],
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
        g = nc.gather_rows(x, idx)
        seg = nc.segment_mean(g, [2, 3, 1])
        norm = nc.sqrt(nc.sum_rows(seg * seg) + 0.5)
        return nc.transpose(nc.div(seg, norm))

    _check_op(build, [x])


def test_gradients_bitwise_deterministic():
    def run():
        gen = np.random.default_rng(9)
        a = nc.parameter(gen.normal(size=(5, 5)), "a")
        b = nc.parameter(gen.normal(size=(5, 3)), "b")
        loss = nc.sum_all(nc.softmax_rows(nc.relu(nc.matmul(a, b))))
        loss.backward()
        return a.grad.copy(), b.grad.copy()

    first, second = run(), run()
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


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


def test_grad_wrt_reads_then_clears():
    p = nc.parameter(np.array([[2.0, 1.0]]), "p")
    doubled = p * 3.0
    loss = nc.sum_all(doubled * doubled)
    grad = nc.grad_wrt(loss, p)
    assert np.allclose(grad, 9.0 * 2.0 * p.data)
    assert p.grad is None and doubled.grad is None


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
