"""Training loop: step algebra, determinism, early stopping, resume, CV protocol."""

import json
import math

import numpy as np
import pytest

from rumorgraph import numcore as nc
from rumorgraph.augment import AugmentStrategy
from rumorgraph.dataio import Dataset
from rumorgraph.embed import HashedProvider
from rumorgraph.model import GraphBatch, ModelConfig, SnapshotError, encode_batch, init_params
from rumorgraph.numcore import AdamWState, RngStreams, TrainingStepError, adamw_step
from rumorgraph.objectives import ce_from_probs
from rumorgraph.synth import SynthSpec, generate
from rumorgraph.trainer import (
    PreparedEvent,
    TrainConfig,
    TrainState,
    cross_validate,
    evaluate_prepared,
    fit,
    load_state,
    prepare_events,
    save_state,
    train_epoch,
    train_step,
)
from tests.conftest import make_event

TINY = ModelConfig(d_in=8, d_hidden=6, d_out=4, dropout=0.2)


def _config(**kwargs):
    defaults = dict(
        model=TINY,
        alpha=0.5,
        tau=0.5,
        learning_rate=0.01,
        source_batch_size=3,
        target_batch_size=2,
        max_epochs=2,
        patience=3,
        augment=AugmentStrategy(kind="graph_dropedge", dropedge_rate=0.3),
        seed=11,
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def _mini_events(count, prefix, dim=8):
    provider = HashedProvider(dim=dim)
    events = []
    for i in range(count):
        label = "rumor" if i % 2 == 0 else "non-rumor"
        cue = "hoax fake deny" if label == "rumor" else "confirmed true agree"
        events.append(
            make_event(f"{prefix}{i}", label, [0, 0], texts=[f"{cue} x{i}", f"reply {cue}"])
        )
    return prepare_events(events, provider)


def _fresh_state(cfg):
    streams = RngStreams(cfg.seed)
    params = init_params(cfg.model, streams)
    return TrainState(
        params=params,
        optimizer=AdamWState(cfg.learning_rate, weight_decay=cfg.weight_decay),
        streams=streams,
    )


def test_train_step_zero_lr_keeps_params_and_reports():
    cfg = _config(learning_rate=0.0)
    state = _fresh_state(cfg)
    before = state.params.copy_values()
    report = train_step(_mini_events(3, "s"), _mini_events(2, "t"), state, cfg)
    for name, tensor in state.params.tensors.items():
        assert np.array_equal(tensor.data, before[name])
    assert math.isfinite(report.loss)
    assert report.alpha == cfg.alpha
    # reported blend obeys the stated relation
    assert report.loss == pytest.approx((report.loss_source + report.loss_target) / 2, abs=1e-12)
    assert report.loss_source == pytest.approx(
        0.5 * report.ce_source + 0.5 * report.scl_source, abs=1e-12
    )
    assert report.loss_target == pytest.approx(
        0.5 * report.ce_target + 0.5 * (report.scl_target + report.tcl_target), abs=1e-12
    )


def test_epoch_step_count_matches_product():
    cfg = _config(target_batch_size=2, source_batch_size=3, max_epochs=1)
    state = _fresh_state(cfg)
    reports = train_epoch(_mini_events(6, "s"), _mini_events(4, "t"), state, cfg)
    assert len(reports) == 2 * 2  # ceil(4/2) * ceil(6/3)

    state_b = _fresh_state(cfg)
    reports_b = train_epoch(_mini_events(3, "s"), _mini_events(2, "t"), state_b, cfg)
    assert len(reports_b) == 1


def test_same_seed_same_params_bitwise():
    cfg = _config(max_epochs=2)
    source, target = _mini_events(6, "s"), _mini_events(4, "t")

    def run():
        state = _fresh_state(cfg)
        for _ in range(cfg.max_epochs):
            train_epoch(source, target, state, cfg)
        return state.params.copy_values()

    a, b = run(), run()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_alpha_zero_matches_manual_ce_only_route_bitwise():
    cfg = _config(alpha=0.0, tcl_enabled=False, augment=None, max_epochs=2)
    source, target = _mini_events(6, "s"), _mini_events(4, "t")

    state = _fresh_state(cfg)
    for _ in range(cfg.max_epochs):
        train_epoch(source, target, state, cfg)

    # independent route: assemble only the two classification terms
    manual = _fresh_state(cfg)

    def manual_epoch():
        gen = manual.streams.shuffle
        t_order = gen.permutation(len(target))
        s_order = gen.permutation(len(source))
        t_shuffled = [target[i] for i in t_order]
        s_shuffled = [source[i] for i in s_order]
        t_batches = [
            t_shuffled[i : i + cfg.target_batch_size]
            for i in range(0, len(t_shuffled), cfg.target_batch_size)
        ]
        s_batches = [
            s_shuffled[i : i + cfg.source_batch_size]
            for i in range(0, len(s_shuffled), cfg.source_batch_size)
        ]
        for tb in t_batches:
            for sb in s_batches:
                sb_batch = GraphBatch.from_events([p.embedding for p in sb], [p.graph for p in sb])
                tb_batch = GraphBatch.from_events([p.embedding for p in tb], [p.graph for p in tb])
                src = encode_batch(sb_batch, manual.params, mode="train", streams=manual.streams)
                tgt = encode_batch(tb_batch, manual.params, mode="train", streams=manual.streams)
                ce_s = ce_from_probs(src.probs, np.array([p.label for p in sb]))
                ce_t = ce_from_probs(tgt.probs, np.array([p.label for p in tb]))
                total = (ce_s + ce_t) * 0.5
                visited = total.backward()
                grads = {
                    name: (t.grad if t.grad is not None else np.zeros_like(t.data))
                    for name, t in manual.params.tensors.items()
                }
                adamw_step(manual.optimizer, manual.params.tensors, grads)
                nc.clear_grads(visited)

    for _ in range(cfg.max_epochs):
        manual_epoch()

    for name, tensor in state.params.tensors.items():
        assert np.array_equal(tensor.data, manual.params.tensors[name].data), name


def test_nonfinite_loss_aborts_with_term_name():
    cfg = _config(tau=1e-12, max_epochs=1)  # absurd temperature overflows exp()
    state = _fresh_state(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingStepError, match="l_"):
            train_step(_mini_events(4, "s"), _mini_events(3, "t"), state, cfg)


def test_fit_patience_stops_and_epoch_cap_zero():
    source, target = _mini_events(6, "s"), _mini_events(8, "t")
    cfg = _config(max_epochs=0)
    result = fit(source, target, cfg)
    assert result.history == []
    fresh = init_params(cfg.model, RngStreams(cfg.seed))
    for name, tensor in fresh.tensors.items():
        assert np.array_equal(tensor.data, result.params.tensors[name].data)

    # learning rate zero: the score can never improve after epoch 1
    cfg = _config(max_epochs=50, patience=1, learning_rate=0.0)
    result = fit(source, target, cfg)
    assert len(result.history) == 2  # stopped right after the second epoch
    assert result.best_score == max(h[result.state.monitor] for h in result.history)


def test_fit_best_snapshot_is_best_observed():
    source, target = _mini_events(6, "s"), _mini_events(10, "t")
    cfg = _config(max_epochs=6, patience=2, val_fraction=0.2)
    result = fit(source, target, cfg)
    scores = [h["val_macro_f1"] for h in result.history if "val_macro_f1" in h]
    assert result.best_score == max(scores)
    assert scores[0] <= result.best_score


def test_fit_small_fold_falls_back_to_loss_monitor(caplog):
    source = _mini_events(6, "s")
    target = _mini_events(2, "t")  # one event per class: no carve possible
    cfg = _config(max_epochs=1)
    with caplog.at_level("WARNING"):
        result = fit(source, target, cfg)
    assert result.state.monitor == "neg_train_loss"
    assert any("validation carve" in r.message for r in caplog.records)


def test_fit_writes_step_and_epoch_log(tmp_path):
    source, target = _mini_events(6, "s"), _mini_events(8, "t")
    cfg = _config(max_epochs=2)
    log_path = tmp_path / "log.jsonl"
    fit(source, target, cfg, log_path=log_path)
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    step_records = [r for r in records if "l" in r]
    epoch_records = [r for r in records if "val_macro_f1" in r]
    assert len(epoch_records) == 2
    # 8 target events carve 1 per class for validation: 6 train -> 3 batches of 2,
    # 6 source events -> 2 batches of 3
    assert len(step_records) == 2 * (3 * 2)
    assert {"epoch", "step", "l_ce_s", "l_scl_t", "l_tcl_t", "alpha", "tau"} <= set(step_records[0])


def test_resume_is_bitwise_identical(tmp_path):
    source, target = _mini_events(6, "s"), _mini_events(8, "t")
    straight_cfg = _config(max_epochs=4, patience=10)
    straight = fit(source, target, straight_cfg)

    first_cfg = _config(max_epochs=2, patience=10)
    first = fit(source, target, first_cfg)
    save_state(first.state, first_cfg, tmp_path / "state.bin")
    resumed_state = load_state(tmp_path / "state.bin")
    resumed = fit(source, target, straight_cfg, resume_state=resumed_state)

    for name, tensor in straight.state.params.tensors.items():
        assert np.array_equal(tensor.data, resumed.state.params.tensors[name].data), name
    for name in straight.state.best_values:
        assert np.array_equal(straight.state.best_values[name], resumed.state.best_values[name])
    assert straight.best_score == resumed.best_score
    assert straight.state.epoch == resumed.state.epoch


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda raw: raw[:-8], "truncated"),
        (lambda raw: raw + bytes(8), "trailing bytes"),
        (lambda raw: raw.replace(b'"version": 1', b'"version": 9'), r"unsupported version 9 \(expected 1\)$"),
    ],
    ids=["truncated", "trailing-bytes", "bad-version"],
)
def test_damaged_state_file_raises_typed_error(tmp_path, damage, message):
    cfg = _config(max_epochs=1)
    state = fit(_mini_events(6, "s"), _mini_events(8, "t"), cfg).state
    path = tmp_path / "state.bin"
    save_state(state, cfg, path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(SnapshotError, match=message):
        load_state(path)


def test_precision_is_scoped_to_the_call():
    cfg = _config(max_epochs=1, precision="f32")
    source = Dataset(events=[p.event for p in _mini_events(6, "s")], role="source")
    target = Dataset(events=[p.event for p in _mini_events(8, "t")], role="target")
    provider = HashedProvider(dim=8)
    cross_validate(source, target, cfg, provider, provider, k=2)
    assert nc.active_dtype() == np.float64
    result = fit(_mini_events(6, "s"), _mini_events(8, "t"), cfg)
    assert result.params.w0.data.dtype == np.float32
    assert nc.active_dtype() == np.float64


def test_training_reduces_loss_on_separable_batches():
    cfg = _config(
        max_epochs=1,
        learning_rate=0.02,
        alpha=0.5,
        source_batch_size=6,
        target_batch_size=6,
        augment=AugmentStrategy(kind="feature_dropout", feature_dropout_rate=0.1),
    )
    source, target = _mini_events(6, "s"), _mini_events(6, "t")
    state = _fresh_state(cfg)
    losses = []
    for _ in range(50):
        losses.append(train_step(source, target, state, cfg).loss)
    assert np.mean(losses) < losses[0]
    assert losses[-1] < losses[0]


def test_cross_validate_counts_and_determinism():
    spec = SynthSpec(source_events=12, target_events=10, mean_replies=3.0, seed=5)
    source_ds, target_ds = generate(spec)
    provider = HashedProvider(dim=8)
    cfg = _config(max_epochs=1, val_fraction=0.0, source_batch_size=6, target_batch_size=4)

    seen_sizes = []
    orig_fit = fit

    def spy_fit(source, fold, fold_cfg, **kwargs):
        seen_sizes.append(len(fold))
        return orig_fit(source, fold, fold_cfg, **kwargs)

    import rumorgraph.trainer as trainer_mod

    trainer_mod_fit = trainer_mod.fit
    trainer_mod.fit = spy_fit
    try:
        result = cross_validate(source_ds, target_ds, cfg, provider, provider, k=5)
    finally:
        trainer_mod.fit = trainer_mod_fit

    assert seen_sizes == [2, 2, 2, 2, 2]  # each run trains on one fold of 10/5 events
    assert len(result.fold_metrics) == 5
    assert set(result.mean) == {"accuracy", "macro_f1", "f1_rumor", "f1_nonrumor"}

    repeat = cross_validate(source_ds, target_ds, cfg, provider, provider, k=5)
    assert repeat.mean == result.mean
    assert repeat.plan_assignment == result.plan_assignment


def test_config_validation():
    with pytest.raises(ValueError):
        _config(alpha=1.2)
    with pytest.raises(ValueError):
        _config(patience=0)
    with pytest.raises(ValueError):
        _config(tcl_enabled=True, augment=None)
    cfg = _config(tcl_enabled=False, augment=None, alpha=0.3)
    assert cfg.augment is None


def test_evaluate_prepared_accuracy():
    target = _mini_events(4, "t")
    cfg = _config()
    state = _fresh_state(cfg)
    metrics = evaluate_prepared(target, state.params)
    assert 0.0 <= metrics.accuracy <= 1.0
    assert 0.0 <= metrics.macro_f1 <= 1.0
