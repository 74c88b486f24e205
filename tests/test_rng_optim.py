"""Substream independence and the AdamW update rule."""

import numpy as np
import pytest

from rumorgraph import numcore as nc
from rumorgraph.numcore import AdamWState, RngStreams, TrainingStepError, adamw_step


def test_streams_independent_and_reproducible():
    a, b = RngStreams(123), RngStreams(123)
    # consuming one substream does not disturb another
    a.dropout.random(100)
    assert np.array_equal(a.shuffle.random(16), b.shuffle.random(16))
    assert not np.array_equal(RngStreams(123).init.random(8), RngStreams(124).init.random(8))


def _params(values):
    return {name: nc.parameter(np.asarray(v, dtype=np.float64), name) for name, v in values.items()}


def test_adamw_zero_lr_is_identity():
    params = _params({"w": [[1.0, -2.0], [0.5, 3.0]]})
    before = params["w"].data.copy()
    state = AdamWState(learning_rate=0.0, weight_decay=0.5)
    adamw_step(state, params, {"w": np.ones((2, 2))})
    assert np.array_equal(params["w"].data, before)


def test_adamw_first_step_closed_form():
    # constant unit gradient: bias-corrected m=v=1, so the step is -lr (up to eps)
    params = _params({"w": [1.0]})
    state = AdamWState(learning_rate=0.05)
    adamw_step(state, params, {"w": np.array([1.0])})
    assert params["w"].data[0] == pytest.approx(1.0 - 0.05, abs=1e-8)


def test_adamw_decay_only_step():
    params = _params({"w": [4.0]})
    state = AdamWState(learning_rate=0.01, weight_decay=0.1)
    adamw_step(state, params, {"w": np.array([0.0])})
    assert params["w"].data[0] == pytest.approx(4.0 * (1.0 - 0.001))


def test_adamw_matches_reference_over_steps():
    # reference: textbook bias-corrected update plus decoupled decay, written
    # with the update's own constants ((1.0 - 0.9) is not 0.1), so it holds bitwise
    gen = np.random.default_rng(0)
    p = gen.normal(size=(3, 2))
    params = _params({"w": p.copy()})
    state = AdamWState(learning_rate=0.02, weight_decay=0.04)
    ref, m, v = p.copy(), np.zeros_like(p), np.zeros_like(p)
    for t in range(1, 8):
        g = gen.normal(size=(3, 2))
        adamw_step(state, params, {"w": g})
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        m_hat = m / (1.0 - 0.9 ** t)
        v_hat = v / (1.0 - 0.999 ** t)
        ref = ref - 0.02 * m_hat / (np.sqrt(v_hat) + 1e-8)
        ref = ref - 0.02 * 0.04 * ref
    assert np.array_equal(params["w"].data, ref)
    assert np.array_equal(state.m["w"], m)
    assert np.array_equal(state.v["w"], v)
    assert state.step_count == 7


def test_adamw_rejects_nonfinite_gradient():
    params = _params({"w": [1.0]})
    state = AdamWState(learning_rate=0.1)
    with pytest.raises(TrainingStepError, match="w"):
        adamw_step(state, params, {"w": np.array([np.nan])})


def test_adamw_rejects_shape_mismatch():
    params = _params({"w": [1.0, 2.0]})
    with pytest.raises(TrainingStepError, match="shape"):
        adamw_step(AdamWState(0.1), params, {"w": np.zeros((2, 2))})
