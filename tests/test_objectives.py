"""Loss terms: vectorized implementations vs direct-summation references,
hand-computed anchors, bounds, and gradient checks."""

import math

import numpy as np
import pytest

from rumorgraph import numcore as nc
from rumorgraph.numcore import Tensor
from rumorgraph.objectives import Batch, SimilarityError, ce_from_probs, joint, scl_cross, scl_source, tcl
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


def _batch(reps, labels, aug=None):
    reps = np.asarray(reps, dtype=np.float64)
    n = reps.shape[0]
    probs = np.full((n, 2), 0.5)
    return Batch(
        reps=nc.parameter(reps, "reps"),
        labels=np.asarray(labels),
        probs=Tensor(probs),
        aug_reps=nc.parameter(np.asarray(aug, dtype=np.float64), "aug") if aug is not None else None,
    )


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
    batch = _batch([U, U, V], [0, 0, 1])
    expected = (2.0 / 3.0) * math.log(1.0 + math.exp(-1.0))
    assert expected == pytest.approx(0.2088411250121486, abs=1e-12)
    assert scl_source(batch, 1.0).item() == pytest.approx(expected, abs=1e-5)


def test_scl_source_no_positives_zero():
    batch = _batch([U, V], [0, 1])
    assert scl_source(batch, 1.0).item() == 0.0


def test_scl_source_two_twins_zero():
    batch = _batch([U, U], [1, 1])
    assert scl_source(batch, 1.0).item() == pytest.approx(0.0, abs=1e-12)


def test_scl_source_small_batch_warns(caplog):
    with caplog.at_level("WARNING"):
        value = scl_source(_batch([U], [0]), 1.0).item()
    assert value == 0.0
    assert any("size 1" in r.message for r in caplog.records)


def test_scl_cross_anchor_value():
    target = _batch([U], [0])
    source = _batch([U, V], [0, 1])
    expected = -math.log(math.e / (math.e + 1.0))
    assert expected == pytest.approx(0.31326, abs=1e-5)
    assert scl_cross(target, source, 1.0).item() == pytest.approx(expected, abs=1e-5)


def test_scl_cross_label_absent_and_exact_duplicate():
    target = _batch([U], [1])
    source = _batch([U, V], [0, 0])
    assert scl_cross(target, source, 1.0).item() == 0.0
    single = _batch([U], [0])
    assert scl_cross(_batch([U], [0]), single, 1.0).item() == pytest.approx(0.0, abs=1e-12)


def test_tcl_anchor_value():
    batch = _batch([U, V], [0, 1], aug=[U, V])
    expected = math.log(2.0) - 1.0
    assert expected == pytest.approx(-0.30685, abs=1e-5)
    assert tcl(batch, 1.0).item() == pytest.approx(expected, abs=1e-5)


def test_tcl_all_orthogonal_closed_form():
    eye = np.eye(8)
    batch = _batch(eye[:3], [0, 1, 0], aug=eye[3:6])
    assert tcl(batch, 1.0).item() == pytest.approx(math.log(2 * (3 - 1)), abs=1e-10)


def test_tcl_single_sample_skipped(caplog):
    with caplog.at_level("WARNING"):
        value = tcl(_batch([U], [0], aug=[U]), 1.0).item()
    assert value == 0.0


def test_tcl_include_positive_flag():
    batch = _batch([U, V], [0, 1], aug=[U, V])
    as_printed = tcl(batch, 1.0).item()
    standard = tcl(batch, 1.0, include_positive=True).item()
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
    with pytest.raises(ValueError):
        joint(*terms, 1.5)


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
        source = _batch(reps_s, labels_s)
        target = _batch(reps_t, labels_t, aug=aug_t)

        probs = np.abs(gen.normal(size=(len(labels_s), 2))) + 1e-3
        probs /= probs.sum(axis=1, keepdims=True)
        assert abs(
            ce_from_probs(Tensor(probs), labels_s).item() - ce_reference(probs, labels_s)
        ) < 1e-10

        assert abs(
            scl_source(source, tau).item() - scl_source_reference(reps_s, labels_s, tau)
        ) < 1e-10
        assert abs(
            scl_cross(target, source, tau).item()
            - scl_cross_reference(reps_t, labels_t, reps_s, labels_s, tau)
        ) < 1e-10
        for include in (False, True):
            assert abs(
                tcl(target, tau, include_positive=include).item()
                - tcl_reference(reps_t, aug_t, tau, include_positive=include)
            ) < 1e-10


def test_loss_bounds_on_random_batches():
    gen = np.random.default_rng(7)
    for _ in range(50):
        reps_s, labels_s, reps_t, labels_t, aug_t, tau = _random_case(gen)
        source = _batch(reps_s, labels_s)
        target = _batch(reps_t, labels_t, aug=aug_t)
        assert scl_source(source, tau).item() >= 0.0
        assert scl_cross(target, source, tau).item() >= 0.0
        probs = np.full((len(labels_s), 2), 0.5)
        assert ce_from_probs(Tensor(probs), labels_s).item() >= 0.0
        bound = 2.0 / tau + math.log(2 * (len(labels_t) - 1))
        assert abs(tcl(target, tau).item()) <= bound + 1e-9


def test_loss_gradients_match_finite_differences():
    gen = np.random.default_rng(99)
    reps_s, labels_s, reps_t, labels_t, aug_t, _ = _random_case(gen, n_max=5, d_max=4)
    tau = 0.5
    source = _batch(reps_s, labels_s)
    target = _batch(reps_t, labels_t, aug=aug_t)
    tensors = [source.reps, target.reps, target.aug_reps]

    builders = {
        "scl_source": lambda: scl_source(source, tau),
        "scl_cross": lambda: scl_cross(target, source, tau),
        "tcl": lambda: tcl(target, tau),
        "tcl_incl": lambda: tcl(target, tau, include_positive=True),
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
    batch = _batch([[0.0, 0.0], [1.0, 0.0]], [0, 0])
    with pytest.raises(SimilarityError):
        scl_source(batch, 1.0)
