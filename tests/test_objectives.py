"""Loss terms: vectorized implementations vs direct-summation references,
each one-node term vs its tape composition byte for byte, hand-computed
anchors, bounds, and gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rumorgraph import numcore as nc
from rumorgraph import objectives
from rumorgraph.numcore import Tensor
from rumorgraph.objectives import SimilarityError, ce_from_probs, joint, scl_cross, scl_source, tcl
from tests import oracles
from tests.gradcheck import finite_diff_grad, relative_error
from tests.oracles import (
    ce_reference,
    joint_reference,
    scl_cross_reference,
    scl_source_reference,
    sim,
    tcl_reference,
)

U = np.array([1.0, 0.0])
V = np.array([0.0, 1.0])


def _reps(rows, name="reps"):
    return nc.parameter(np.asarray(rows, dtype=np.float64), name)


# -- sim ---------------------------------------------------------------------------


def test_sim_self_is_inverse_temperature():
    x = np.array([0.3, -2.0, 1.0])
    assert sim(x, x, 0.25) == pytest.approx(4.0)


def test_sim_orthogonal_zero_and_hand_value():
    assert sim(U, V, 1.0) == 0.0
    assert sim(np.array([1.0, 0.0]), np.array([1.0, 1.0]), 0.5) == pytest.approx(math.sqrt(0.5) / 0.5, abs=1e-5)


def test_sim_zero_vector_error():
    with pytest.raises(SimilarityError):
        sim(np.zeros(3), U[:3] if U.size >= 3 else np.ones(3), 1.0)


def test_sim_scale_invariance():
    gen = np.random.default_rng(0)
    for _ in range(25):
        u, v = gen.normal(size=5), gen.normal(size=5)
        c = float(np.abs(gen.normal()) + 0.1)
        assert abs(sim(c * u, v, 0.7) - sim(u, v, 0.7)) < 1e-12


# -- cross-entropy --------------------------------------------------------------------


def test_ce_perfect_predictions_zero():
    probs = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert ce_from_probs(probs, np.array([0, 1])).item() == pytest.approx(0.0, abs=1e-9)


def test_ce_half_probabilities():
    probs = Tensor(np.full((2, 2), 0.5))
    assert ce_from_probs(probs, np.array([0, 1])).item() == pytest.approx(math.log(2), abs=1e-9)


def test_ce_mixed_example():
    probs = Tensor(np.array([[1.0, 0.0], [0.25, 0.75]]))
    expected = (0.0 + math.log(4)) / 2
    assert ce_from_probs(probs, np.array([0, 0])).item() == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(0.69315, abs=1e-5)


def test_ce_floor_guards_zero_probability():
    probs = Tensor(np.array([[0.0, 1.0]]))
    value = ce_from_probs(probs, np.array([0])).item()
    assert value == pytest.approx(-math.log(1e-12))


# -- anchors --------------------------------------------------------------------------


def test_scl_source_anchor_value():
    # o1 = o2 = u, o3 orthogonal, labels (A, A, B), tau=1:
    # two anchors contribute -log(e/(e+1)) each, the loner contributes 0
    expected = (2.0 / 3.0) * math.log(1.0 + math.exp(-1.0))
    assert expected == pytest.approx(0.2088411250121486, abs=1e-12)
    assert scl_source(_reps([U, U, V]), np.array([0, 0, 1]), 1.0).item() == pytest.approx(expected, abs=1e-5)


def test_scl_source_no_positives_zero():
    assert scl_source(_reps([U, V]), np.array([0, 1]), 1.0).item() == 0.0


def test_scl_source_two_twins_zero():
    assert scl_source(_reps([U, U]), np.array([1, 1]), 1.0).item() == pytest.approx(0.0, abs=1e-12)


def test_scl_source_small_batch_warns(caplog):
    with caplog.at_level("WARNING"):
        value = scl_source(_reps([U]), np.array([0]), 1.0).item()
    assert value == 0.0
    assert any("size 1" in r.message for r in caplog.records)


def test_scl_cross_anchor_value():
    expected = -math.log(math.e / (math.e + 1.0))
    assert expected == pytest.approx(0.31326, abs=1e-5)
    value = scl_cross(_reps([U]), np.array([0]), _reps([U, V]), np.array([0, 1]), 1.0).item()
    assert value == pytest.approx(expected, abs=1e-5)


def test_scl_cross_label_absent_and_exact_duplicate():
    assert scl_cross(_reps([U]), np.array([1]), _reps([U, V]), np.array([0, 0]), 1.0).item() == 0.0
    assert scl_cross(_reps([U]), np.array([0]), _reps([U]), np.array([0]), 1.0).item() == pytest.approx(0.0, abs=1e-12)


def test_tcl_anchor_value():
    expected = math.log(2.0) - 1.0
    assert expected == pytest.approx(-0.30685, abs=1e-5)
    assert tcl(_reps([U, V]), _reps([U, V], "aug"), 1.0).item() == pytest.approx(expected, abs=1e-5)


def test_tcl_all_orthogonal_closed_form():
    eye = np.eye(8)
    value = tcl(_reps(eye[:3]), _reps(eye[3:6], "aug"), 1.0).item()
    assert value == pytest.approx(math.log(2 * (3 - 1)), abs=1e-10)


def test_tcl_single_sample_skipped(caplog):
    with caplog.at_level("WARNING"):
        value = tcl(_reps([U]), _reps([U], "aug"), 1.0).item()
    assert value == 0.0


def test_tcl_include_positive_flag():
    reps, aug = _reps([U, V]), _reps([U, V], "aug")
    as_printed = tcl(reps, aug, 1.0).item()
    standard = tcl(reps, aug, 1.0, include_positive=True).item()
    # adding the positive back makes the denominator larger: e + 2 instead of 2
    assert standard == pytest.approx(-math.log(math.e / (math.e + 2.0)), abs=1e-10)
    assert standard > as_printed
    assert standard >= 0.0


# -- joint blending -------------------------------------------------------------------


def test_joint_blending_and_edge_alphas():
    terms = [Tensor(v) for v in (0.7, 0.3, 1.1, 0.2, -0.1)]
    for alpha in (0.0, 0.25, 0.5, 1.0):
        loss_s, loss_t, total = joint(*terms, alpha)
        ref = joint_reference(0.7, 0.3, 1.1, 0.2, -0.1, alpha)
        assert loss_s.item() == pytest.approx(ref[0], abs=1e-12)
        assert loss_t.item() == pytest.approx(ref[1], abs=1e-12)
        assert total.item() == pytest.approx(ref[2], abs=1e-12)
    loss_s, loss_t, total = joint(*terms, 0.0)
    assert total.item() == pytest.approx((0.7 + 1.1) / 2)
    assert joint(*terms, 1.0)[2].item() == pytest.approx((0.3 + 0.2 - 0.1) / 2)


# -- vectorized vs direct summation over random batches --------------------------------


def _random_case(gen, n_max=8, d_max=6):
    n_t = int(gen.integers(2, n_max + 1))
    n_s = int(gen.integers(2, n_max + 1))
    d = int(gen.integers(2, d_max + 1))
    reps_s = gen.normal(size=(n_s, d))
    reps_t = gen.normal(size=(n_t, d))
    aug_t = gen.normal(size=(n_t, d))
    labels_s = gen.integers(0, 2, size=n_s)
    labels_t = gen.integers(0, 2, size=n_t)
    tau = float(gen.uniform(0.2, 2.0))
    return reps_s, labels_s, reps_t, labels_t, aug_t, tau


def test_losses_match_references_on_100_random_batches():
    gen = np.random.default_rng(2024)
    for _ in range(100):
        reps_s, labels_s, reps_t, labels_t, aug_t, tau = _random_case(gen)
        source, target, aug = _reps(reps_s), _reps(reps_t), _reps(aug_t, "aug")

        probs = np.abs(gen.normal(size=(len(labels_s), 2))) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        assert abs(
            ce_from_probs(Tensor(probs), labels_s).item() - ce_reference(probs, labels_s)
        ) < 1e-10

        assert abs(
            scl_source(source, labels_s, tau).item() - scl_source_reference(reps_s, labels_s, tau)
        ) < 1e-10
        assert abs(
            scl_cross(target, labels_t, source, labels_s, tau).item()
            - scl_cross_reference(reps_t, labels_t, reps_s, labels_s, tau)
        ) < 1e-10
        for include in (False, True):
            assert abs(
                tcl(target, aug, tau, include_positive=include).item()
                - tcl_reference(reps_t, aug_t, tau, include_positive=include)
            ) < 1e-10


# -- each one-node term vs its tape composition, byte for byte ----------------------------

DTYPES = {"f64": np.float64, "f32": np.float32}


def _signed_away_from_zero(dtype):
    width = 32 if dtype is np.float32 else 64
    magnitude = st.floats(0.125, 8.0, width=width)
    return st.one_of(magnitude, magnitude.map(lambda v: -v))


def _draw_reps(data, dtype, n):
    d = data.draw(st.integers(1, 6), label="width")
    return data.draw(hnp.arrays(dtype, (n, d), elements=_signed_away_from_zero(dtype)))


def _draw_labels(data, n):
    classes = data.draw(st.integers(1, 3), label="classes")
    return data.draw(hnp.arrays(np.intp, n, elements=st.integers(0, classes - 1)))


def _value_and_grads(term, arrays, needs_grad, upstream):
    """The bytes of ``term``'s loss and of each input's gradient, from an upstream gradient ``upstream``.

    An input whose ``needs_grad`` entry is false enters as a constant.
    """
    inputs = [nc.parameter(a.copy(), f"in{i}") if needs else Tensor(a) for i, (a, needs) in enumerate(zip(arrays, needs_grad))]
    loss = term(*inputs)
    if loss.requires_grad:
        (loss * upstream).backward()
    return loss.data.tobytes(), [None if t.grad is None else t.grad.tobytes() for t in inputs]


def _assert_term_matches_oracle(data, precision, name, term_of, arrays):
    needs_grad = data.draw(st.lists(st.booleans(), min_size=len(arrays), max_size=len(arrays)), label="needs_grad")
    upstream = data.draw(st.floats(-4.0, 4.0), label="upstream")
    with nc.precision(precision):
        fused = _value_and_grads(term_of(objectives), arrays, needs_grad, upstream)
        composed = _value_and_grads(term_of(oracles), arrays, needs_grad, upstream)
    assert fused == composed, name


@given(st.data(), st.sampled_from(["f64", "f32"]))
def test_supervised_terms_match_the_separate_oracles_bitwise(data, precision):
    dtype = DTYPES[precision]
    # up to 16 anchors: pairs such as n = 13, count = 3 arise, where 1 / (n * count)
    # and (1 / n) / count round differently
    n_s, n_t = (data.draw(st.integers(1, 16)) for _ in range(2))
    reps_s = _draw_reps(data, dtype, n_s)
    reps_t = data.draw(hnp.arrays(dtype, (n_t, reps_s.shape[1]), elements=_signed_away_from_zero(dtype)))
    labels_s, labels_t = _draw_labels(data, n_s), _draw_labels(data, n_t)
    tau = data.draw(st.floats(0.1, 2.0))

    def source_term(impl):
        return lambda r: impl.scl_source(r, labels_s, tau)

    def cross_term(impl):
        return lambda t, s: impl.scl_cross(t, labels_t, s, labels_s, tau)

    _assert_term_matches_oracle(data, precision, "scl_source", source_term, [reps_s])
    _assert_term_matches_oracle(data, precision, "scl_cross", cross_term, [reps_t, reps_s])


@given(st.data(), st.sampled_from(["f64", "f32"]), st.booleans())
def test_tcl_matches_its_composed_oracle_bitwise(data, precision, include_positive):
    dtype = DTYPES[precision]
    n = data.draw(st.integers(1, 16))
    reps = _draw_reps(data, dtype, n)
    aug = data.draw(hnp.arrays(dtype, reps.shape, elements=_signed_away_from_zero(dtype)))
    tau = data.draw(st.floats(0.1, 2.0))

    def term(impl):
        return lambda r, a: impl.tcl(r, a, tau, include_positive=include_positive)

    _assert_term_matches_oracle(data, precision, "tcl", term, [reps, aug])


@given(st.data(), st.sampled_from(["f64", "f32"]))
def test_ce_matches_its_composed_oracle_bitwise(data, precision):
    dtype = DTYPES[precision]
    width = 32 if dtype is np.float32 else 64
    n = data.draw(st.integers(1, 16))
    labels = _draw_labels(data, n)
    classes = int(labels.max()) + 1 + data.draw(st.integers(0, 1))
    # exact zeros and values below PROB_FLOOR exercise the floor
    elements = st.one_of(st.just(0.0), st.floats(2.0**-44, 1.0, width=width))
    probs = data.draw(hnp.arrays(dtype, (n, classes), elements=elements))

    def term(impl):
        return lambda p: impl.ce_from_probs(p, labels)

    _assert_term_matches_oracle(data, precision, "ce_from_probs", term, [probs])


@given(st.data(), st.sampled_from(["f64", "f32"]))
def test_joint_matches_its_composed_oracle_bitwise(data, precision):
    dtype = DTYPES[precision]
    width = 32 if dtype is np.float32 else 64
    terms = [np.asarray(v, dtype=dtype) for v in data.draw(st.lists(st.floats(-8.0, 8.0, width=width), min_size=5, max_size=5))]
    alpha = data.draw(st.floats(0.0, 1.0))

    def term(impl):
        return lambda *t: impl.joint(*t, alpha)[2]

    _assert_term_matches_oracle(data, precision, "joint", term, terms)
    with nc.precision(precision):
        blended = [t.data.tobytes() for t in joint(*(Tensor(t) for t in terms), alpha)]
        composed = [t.data.tobytes() for t in oracles.joint(*(Tensor(t) for t in terms), alpha)]
    assert blended == composed


def test_loss_bounds_on_random_batches():
    gen = np.random.default_rng(7)
    for _ in range(50):
        reps_s, labels_s, reps_t, labels_t, aug_t, tau = _random_case(gen)
        source, target, aug = _reps(reps_s), _reps(reps_t), _reps(aug_t, "aug")
        # both supervised terms are >= 0 in exact arithmetic; a row whose only
        # candidate is its positive gives s - log(exp(s)), which rounds to about
        # -5.6e-17 under some BLAS kernels (OpenBLAS's SandyBridge one)
        assert scl_source(source, labels_s, tau).item() >= -1e-9
        assert scl_cross(target, labels_t, source, labels_s, tau).item() >= -1e-9
        probs = np.full((len(labels_s), 2), 0.5)
        assert ce_from_probs(Tensor(probs), labels_s).item() >= 0.0
        bound = 2.0 / tau + math.log(2 * (len(labels_t) - 1))
        assert abs(tcl(target, aug, tau).item()) <= bound + 1e-9


def test_loss_gradients_match_finite_differences():
    gen = np.random.default_rng(99)
    reps_s, labels_s, reps_t, labels_t, aug_t, _ = _random_case(gen, n_max=5, d_max=4)
    tau = 0.5
    source, target, aug = _reps(reps_s), _reps(reps_t), _reps(aug_t, "aug")
    tensors = [source, target, aug]

    builders = {
        "scl_source": lambda: scl_source(source, labels_s, tau),
        "scl_cross": lambda: scl_cross(target, labels_t, source, labels_s, tau),
        "tcl": lambda: tcl(target, aug, tau),
        "tcl_incl": lambda: tcl(target, aug, tau, include_positive=True),
    }
    for name, build in builders.items():
        loss = build()
        visited = loss.backward()
        analytic = [
            t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in tensors
        ]
        nc.clear_grads(visited)
        numeric = finite_diff_grad(lambda b=build: b().item(), tensors)
        for a, n in zip(analytic, numeric):
            assert relative_error(a, n) < 1e-4, name


def test_ce_gradient_matches_finite_differences():
    gen = np.random.default_rng(5)
    logits = nc.parameter(gen.normal(size=(4, 2)), "logits")
    labels = np.array([0, 1, 1, 0])

    def build():
        return ce_from_probs(nc.softmax_rows(logits), labels)

    loss = build()
    visited = loss.backward()
    analytic = logits.grad.copy()
    nc.clear_grads(visited)
    numeric = finite_diff_grad(lambda: build().item(), [logits])[0]
    assert relative_error(analytic, numeric) < 1e-4


def test_zero_vector_representation_raises():
    zero, unit = _reps([[0.0, 0.0], [1.0, 0.0]]), _reps([[1.0, 0.0], [0.0, 1.0]], "unit")
    labels = np.array([0, 0])
    with pytest.raises(SimilarityError):
        scl_source(zero, labels, 1.0)
    with pytest.raises(SimilarityError):
        scl_cross(zero, labels, unit, labels, 1.0)
    with pytest.raises(SimilarityError):
        scl_cross(unit, labels, zero, labels, 1.0)
    with pytest.raises(SimilarityError):
        tcl(zero, unit, 1.0)
    with pytest.raises(SimilarityError):
        tcl(unit, zero, 1.0)


def test_single_event_batches_skip_without_a_tape_node(caplog):
    one, aug = _reps([U]), _reps([V], "aug")
    with caplog.at_level("WARNING"):
        terms = [scl_source(one, np.array([0]), 1.0), tcl(one, aug, 1.0, include_positive=True)]
    for term in terms:
        assert term.item() == 0.0
        assert not term.requires_grad
    messages = [r.message for r in caplog.records]
    assert any(m.startswith("source contrastive term skipped") for m in messages)
    assert any(m.startswith("target-instance contrastive term skipped") for m in messages)
