"""Metrics arithmetic, early-detection curves, and the 2-D projection."""

import csv
import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rumorgraph.dataio import CheckpointSpec
from rumorgraph.embed import HashedProvider
from rumorgraph.evalkit import (
    LABEL_INDEX,
    DegenerateDataError,
    compute_metrics,
    pca_project,
    predict_events,
    write_curve_csv,
    write_features_csv,
)
from rumorgraph.model import ModelConfig, init_params
from rumorgraph.numcore import RngStreams
from rumorgraph.trainer import early_detection, prepare_events
from tests.conftest import make_event
from tests.oracles import truncate_event

TINY = ModelConfig(d_in=8, d_hidden=6, d_out=4)


def test_metrics_perfect_predictions():
    m = compute_metrics([1, 0, 1, 0], [1, 0, 1, 0])
    assert m.accuracy == 1.0
    assert m.macro_f1 == 1.0
    assert m.f1_rumor == 1.0 and m.f1_nonrumor == 1.0


def test_metrics_all_rumor_on_balanced_set():
    # precision 1/2, recall 1 for rumor: F1 = 2/3; non-rumor F1 = 0
    m = compute_metrics([1, 1, 1, 1], [1, 1, 0, 0])
    assert m.accuracy == 0.5
    assert m.f1_rumor == pytest.approx(2.0 / 3.0)
    assert m.f1_nonrumor == 0.0
    assert m.macro_f1 == pytest.approx(1.0 / 3.0)
    assert m.confusion["rumor"] == {"tp": 2, "fp": 2, "fn": 0, "tn": 0}
    assert m.confusion["non-rumor"] == {"tp": 0, "fp": 0, "fn": 2, "tn": 2}


def test_metrics_report_layout():
    m = compute_metrics([LABEL_INDEX["rumor"], LABEL_INDEX["non-rumor"]], [LABEL_INDEX["rumor"]] * 2)
    record = asdict(m)
    assert set(record) == {"accuracy", "macro_f1", "f1_rumor", "f1_nonrumor", "confusion"}
    assert m.macro_f1 == (m.f1_rumor + m.f1_nonrumor) / 2


def test_metrics_length_mismatch():
    with pytest.raises(ValueError):
        compute_metrics([1], [1, 0])


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**31 - 1))
def test_metrics_permutation_invariant_and_macro_exact(n, seed):
    gen = np.random.default_rng(seed)
    preds = gen.integers(0, 2, size=n).tolist()
    labels = gen.integers(0, 2, size=n).tolist()
    m = compute_metrics(preds, labels)
    order = gen.permutation(n)
    m_perm = compute_metrics([preds[i] for i in order], [labels[i] for i in order])
    assert m == m_perm
    assert m.macro_f1 == (m.f1_rumor + m.f1_nonrumor) / 2
    counts = m.confusion["rumor"]
    assert counts["tp"] + counts["fp"] + counts["fn"] + counts["tn"] == n


# -- early detection -----------------------------------------------------------------


def _test_events():
    events = []
    for i in range(6):
        label = "rumor" if i % 2 == 0 else "non-rumor"
        events.append(make_event(f"e{i}", label, [0, 0, 1, 1], timestamps=[60, 120, 180, 240]))
    return events


def _reference_metrics(events, params, provider, spec, value):
    """Metrics of re-embedding every event truncated at one checkpoint."""
    truncated = [truncate_event(e, spec.mode, value) for e in events]
    preds, _reps = predict_events(truncated, params, provider)
    return compute_metrics(preds, [LABEL_INDEX[e.label] for e in truncated])


def test_early_detection_final_checkpoint_is_full_data_bitwise():
    events = _test_events()
    params = init_params(TINY, RngStreams(0))
    provider = HashedProvider(dim=8)
    spec = CheckpointSpec("elapsed_time", (60.0, 150.0, math.inf))
    curve = early_detection(prepare_events(events, provider), params, spec)
    assert len(curve) == 3
    for value, metrics in zip(spec.values, curve):
        assert metrics == _reference_metrics(events, params, provider, spec, value)


def test_early_detection_first_post_count_is_claim_only():
    events = _test_events()
    params = init_params(TINY, RngStreams(1))
    provider = HashedProvider(dim=8)
    spec = CheckpointSpec("post_count", (1, 3, math.inf))
    curve = early_detection(prepare_events(events, provider), params, spec)
    for value, metrics in zip(spec.values, curve):
        assert metrics == _reference_metrics(events, params, provider, spec, value)


def test_early_detection_csv_format(tmp_path):
    events = _test_events()
    params = init_params(TINY, RngStreams(2))
    spec = CheckpointSpec("post_count", (1, 2, 4, math.inf))
    curve = early_detection(prepare_events(events, HashedProvider(dim=8)), params, spec)
    path = tmp_path / "curve.csv"
    write_curve_csv(spec.values, curve, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert list(rows[0]) == ["checkpoint", "accuracy", "macro_f1", "f1_rumor", "f1_nonrumor"]
    assert [r["checkpoint"] for r in rows] == ["1", "2", "4", "inf"]
    for row in rows:
        for key in ("accuracy", "macro_f1", "f1_rumor", "f1_nonrumor"):
            assert 0.0 <= float(row[key]) <= 1.0


# -- projection -------------------------------------------------------------------------


def test_pca_matches_dense_eigendecomposition_oracle():
    gen = np.random.default_rng(0)
    for trial in range(5):
        data = gen.normal(size=(50, 16)) * gen.uniform(0.5, 3.0, size=16)
        coords, explained = pca_project(data)
        centered = data - data.mean(axis=0)
        cov = centered.T @ centered / (data.shape[0] - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        top = eigvecs[:, np.argsort(eigvals)[::-1][:2]]
        for col in range(2):
            anchor = np.argmax(np.abs(top[:, col]))
            if top[anchor, col] < 0:
                top[:, col] = -top[:, col]
        assert np.allclose(coords, centered @ top, atol=1e-8)
        ordered = np.sort(eigvals)[::-1]
        assert explained[0] == pytest.approx(ordered[0] / eigvals.sum(), abs=1e-10)
        assert explained[1] == pytest.approx(ordered[1] / eigvals.sum(), abs=1e-10)


def test_pca_axis_aligned_gaussian_recovers_axes():
    gen = np.random.default_rng(42)
    data = np.zeros((400, 2))
    data[:, 0] = gen.normal(size=400) * 5.0
    data[:, 1] = gen.normal(size=400) * 0.5
    coords, explained = pca_project(data)
    centered = data - data.mean(axis=0)
    # first axis ~ x: projection correlates with the x coordinate
    corr = np.corrcoef(coords[:, 0], centered[:, 0])[0, 1]
    assert abs(corr) > 0.99
    assert explained[0] > explained[1]


def test_pca_properties_and_centering():
    gen = np.random.default_rng(9)
    data = gen.normal(size=(30, 7)) + 100.0
    coords, explained = pca_project(data)
    assert np.all(np.abs(coords.mean(axis=0)) < 1e-9)
    assert explained[0] >= explained[1] >= 0.0
    assert explained[0] + explained[1] <= 1.0 + 1e-12


def test_pca_degenerate_and_precondition_errors():
    with pytest.raises(DegenerateDataError):
        pca_project(np.ones((5, 4)))
    with pytest.raises(ValueError):
        pca_project(np.zeros((1, 4)))
    with pytest.raises(ValueError):
        pca_project(np.zeros((5, 1)))


def test_pca_csv_export(tmp_path):
    gen = np.random.default_rng(4)
    data = gen.normal(size=(6, 5))
    events = [make_event(f"e{i}", "rumor", []) for i in range(6)]
    coords, explained = pca_project(data)
    write_features_csv(events, coords, explained, tmp_path / "f.csv", tmp_path / "ev.json")
    with open(tmp_path / "f.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["event_id", "label", "x", "y"]
    assert [row[:2] for row in rows[1:]] == [[f"e{i}", "rumor"] for i in range(6)]
    assert [[float(v) for v in row[2:]] for row in rows[1:]] == coords.tolist()

    sidecar = json.loads((tmp_path / "ev.json").read_text())
    assert len(sidecar["explained_variance_fractions"]) == 2
