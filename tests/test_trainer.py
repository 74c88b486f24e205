"""Training loop: step algebra, determinism, early stopping, best-epoch selection, CV protocol."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rumorgraph import numcore as nc
from rumorgraph import augment, model, trainer
from rumorgraph.augment import AugmentStrategy
from rumorgraph.dataio import CheckpointSpec, split_folds, visible_posts
from rumorgraph.embed import HashedProvider, embed_event, unpack
from rumorgraph.model import (
    GraphBatch,
    ModelConfig,
    classify,
    encode_batch,
    init_params,
    load_snapshot,
    save_snapshot,
)
from rumorgraph.numcore import AdamWState, RngStreams, TrainingStepError, adamw_step, child_seed, tensor
from rumorgraph.objectives import ce_from_probs
from rumorgraph.propagation import build_graph
from rumorgraph.runconfig import _PATH_KEYS, parse_run_config
from rumorgraph.synth import SynthSpec, generate
from rumorgraph.trainer import (
    PreparedEvent,
    TrainConfig,
    TrainState,
    cross_validate,
    early_detection,
    evaluate_prepared,
    fit,
    prepare_events,
    train_epoch,
    train_step,
)
from tests import oracles
from tests.conftest import make_event, random_tree_event
from tests.oracles import truncate_event

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


def _monitor(result) -> str:
    """The score a fit monitored: the one key of its history records beside ``epoch``."""
    (name,) = set(result.history[0]) - {"epoch"}
    return name


def _discard(step, record):
    """A ``train_epoch`` step logger that keeps nothing."""


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
    record = train_step(_mini_events(3, "s"), _mini_events(2, "t"), state, cfg)
    for name, param in state.params.tensors.items():
        assert np.array_equal(param.data, before[name])
    assert math.isfinite(record["l"])
    assert record["alpha"] == cfg.alpha
    # reported blend obeys the stated relation
    assert record["l"] == pytest.approx((record["l_s"] + record["l_t"]) / 2, abs=1e-12)
    assert record["l_s"] == pytest.approx(0.5 * record["l_ce_s"] + 0.5 * record["l_scl_s"], abs=1e-12)
    assert record["l_t"] == pytest.approx(
        0.5 * record["l_ce_t"] + 0.5 * (record["l_scl_t"] + record["l_tcl_t"]), abs=1e-12
    )


def test_epoch_step_count_matches_product():
    cfg = _config(target_batch_size=2, source_batch_size=3, max_epochs=1)
    state = _fresh_state(cfg)
    reports = train_epoch(_mini_events(6, "s"), _mini_events(4, "t"), state, cfg, _discard)
    assert len(reports) == 2 * 2  # ceil(4/2) * ceil(6/3)

    state_b = _fresh_state(cfg)
    reports_b = train_epoch(_mini_events(3, "s"), _mini_events(2, "t"), state_b, cfg, _discard)
    assert len(reports_b) == 1


def test_same_seed_same_params_bitwise():
    cfg = _config(max_epochs=2)
    source, target = _mini_events(6, "s"), _mini_events(4, "t")

    def run():
        state = _fresh_state(cfg)
        for _ in range(cfg.max_epochs):
            train_epoch(source, target, state, cfg, _discard)
        return state.params.copy_values()

    a, b = run(), run()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def test_alpha_zero_matches_manual_ce_only_route_bitwise():
    cfg = _config(alpha=0.0, tcl_enabled=False, max_epochs=2)
    source, target = _mini_events(6, "s"), _mini_events(4, "t")

    state = _fresh_state(cfg)
    for _ in range(cfg.max_epochs):
        train_epoch(source, target, state, cfg, _discard)

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
                ce_s = ce_from_probs(classify(src, manual.params.wc, manual.params.bc), np.array([p.label for p in sb]))
                ce_t = ce_from_probs(classify(tgt, manual.params.wc, manual.params.bc), np.array([p.label for p in tb]))
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


def test_fit_patience_stops_and_epoch_cap_zero(tmp_path):
    source, target = _mini_events(6, "s"), _mini_events(8, "t")
    cfg = _config(max_epochs=0)
    result = fit(source, target, cfg, tmp_path / "capped.jsonl")
    assert result.history == []
    fresh = init_params(cfg.model, RngStreams(cfg.seed))
    for name, tensor in fresh.tensors.items():
        assert np.array_equal(tensor.data, result.params.tensors[name].data)

    # learning rate zero: the score can never improve after epoch 1
    cfg = _config(max_epochs=50, patience=1, learning_rate=0.0)
    result = fit(source, target, cfg, tmp_path / "patient.jsonl")
    assert len(result.history) == 2  # stopped right after the second epoch
    assert result.best_score == max(h[_monitor(result)] for h in result.history)


def test_fit_best_snapshot_is_best_observed(tmp_path):
    source, target = _mini_events(6, "s"), _mini_events(10, "t")
    cfg = _config(max_epochs=6, patience=2, val_fraction=0.2)
    result = fit(source, target, cfg, tmp_path / "log.jsonl")
    scores = [h["val_macro_f1"] for h in result.history if "val_macro_f1" in h]
    assert result.best_score == max(scores)
    assert scores[0] <= result.best_score


def test_fit_returns_the_best_epochs_parameters(tmp_path):
    # a fit cut at the first best epoch ends on the parameters the full fit keeps
    source, target = _mini_events(6, "s"), _mini_events(10, "t")
    full = fit(source, target, _config(max_epochs=8, patience=8, val_fraction=0.0), tmp_path / "full.jsonl")
    best_epoch = next(h["epoch"] for h in full.history if h[_monitor(full)] == full.best_score)
    assert best_epoch < len(full.history)
    cut_cfg = _config(max_epochs=best_epoch, patience=8, val_fraction=0.0)
    cut = fit(source, target, cut_cfg, tmp_path / "cut.jsonl")
    assert cut.best_score == full.best_score
    for name, param in full.params.tensors.items():
        assert param.data.tobytes() == cut.params.tensors[name].data.tobytes(), name


def test_fit_small_fold_falls_back_to_loss_monitor(tmp_path, caplog):
    source = _mini_events(6, "s")
    target = _mini_events(2, "t")  # one event per class: no carve possible
    cfg = _config(max_epochs=1)
    with caplog.at_level("WARNING"):
        result = fit(source, target, cfg, tmp_path / "log.jsonl")
    assert _monitor(result) == "neg_train_loss"
    assert any("validation carve" in r.message for r in caplog.records)


def test_fit_without_a_carve_asked_for_does_not_warn(tmp_path, caplog):
    source = _mini_events(6, "s")
    cfg = _config(max_epochs=1, val_fraction=0.0)
    with caplog.at_level("WARNING"):
        results = [fit(source, _mini_events(count, "t"), cfg, tmp_path / f"{count}.jsonl") for count in (2, 8)]
    assert [_monitor(r) for r in results] == ["neg_train_loss", "neg_train_loss"]
    assert not any("validation carve" in r.message for r in caplog.records)


def test_fit_writes_step_and_epoch_log(tmp_path):
    source, target = _mini_events(6, "s"), _mini_events(8, "t")
    cfg = _config(max_epochs=2)
    log_path = tmp_path / "log.jsonl"
    fit(source, target, cfg, log_path)
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    step_records = [r for r in records if "l" in r]
    epoch_records = [r for r in records if "val_macro_f1" in r]
    assert len(epoch_records) == 2
    # 8 target events carve 1 per class for validation: 6 train -> 3 batches of 2,
    # 6 source events -> 2 batches of 3
    assert len(step_records) == 2 * (3 * 2)
    assert {"epoch", "step", "l_ce_s", "l_scl_t", "l_tcl_t", "alpha", "tau"} <= set(step_records[0])


def test_only_a_fresh_fit_draws_initial_weights(tmp_path, monkeypatch):
    # the best epoch's parameters and a loaded snapshot are built from their shapes
    draws = []
    glorot_init = nc.glorot_init
    monkeypatch.setattr(nc, "glorot_init", lambda *args: draws.append(args[0]) or glorot_init(*args))
    source, target = _mini_events(6, "s"), _mini_events(8, "t")
    cfg = _config(max_epochs=1)
    first = fit(source, target, cfg, tmp_path / "log.jsonl")
    assert len(draws) == 3  # w0, w1 and wc
    save_snapshot(first.params, seed=cfg.seed, path=tmp_path / "model.snapshot")
    load_snapshot(tmp_path / "model.snapshot")
    assert len(draws) == 3


def test_precision_is_scoped_to_the_call(tmp_path):
    cfg = _config(max_epochs=1, precision="f32")
    cross_validate(_mini_events(6, "s"), _mini_events(8, "t"), cfg, 2, tmp_path)
    assert nc.active_dtype() == np.float64
    result = fit(_mini_events(6, "s"), _mini_events(8, "t"), cfg, tmp_path / "log.jsonl")
    assert result.params.w0.data.dtype == np.float32
    assert nc.active_dtype() == np.float64


def test_f32_step_agrees_with_f64():
    # same seed and batches: the loss terms agree to a relative 1e-5 (about 100
    # float32 ulps) and the updated parameters to 1e-6, against an update of
    # about learning_rate = 1e-2 per entry
    source_ds, target_ds = generate(SynthSpec(source_events=6, target_events=4, mean_replies=4.0, seed=2))
    provider = HashedProvider(dim=8)
    source, target = prepare_events(source_ds.events, provider), prepare_events(target_ds.events, provider)
    cfg = _config()
    runs = {}
    for name in ("f64", "f32"):
        with nc.precision(name):
            state = _fresh_state(cfg)
            runs[name] = train_step(source, target, state, cfg), state.params.copy_values()
    (report64, params64), (report32, params32) = runs["f64"], runs["f32"]
    assert params32["w0"].dtype == np.float32
    for term, value in report64.items():
        assert report32[term] == pytest.approx(value, rel=1e-5), term
    for name, value in params64.items():
        assert np.allclose(params32[name], value, rtol=0.0, atol=1e-6), name


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("kind", ["adversarial", "feature_dropout", "graph_dropedge"])
def test_steps_match_the_oracle_kernels_bitwise(kind, precision, monkeypatch):
    # each in-place kernel matches its oracle alone (test_kernels.py); whole
    # steps also catch a buffer reused while a neighbouring rule still reads it.
    # The oracle side runs the unfused encoder (four tape nodes per
    # convolution, gathered claim rows, their concatenation, a float dropout
    # mask, a mean per event) keeping every value, the loss terms and their
    # blend composed of primitive ops, and a backward pass that keeps every
    # gradient, so the tape's visit and accumulation order is checked too, as
    # are the lean side's rebuilt ln1 output and the values it drops. The
    # adversarial view's backward and the feature-dropout product run through
    # that same backward and ``mul`` on both sides.
    source_ds, target_ds = generate(SynthSpec(source_events=6, target_events=4, mean_replies=4.0, seed=3))
    provider = HashedProvider(dim=8)
    source, target = prepare_events(source_ds.events, provider), prepare_events(target_ds.events, provider)
    cfg = _config(augment=AugmentStrategy(kind=kind), weight_decay=0.01)
    assert cfg.model.dropout > 0.0

    def two_steps():
        with nc.precision(precision):
            state = _fresh_state(cfg)
            for _ in range(2):
                train_step(source, target, state, cfg)
        return state

    lean = two_steps()
    monkeypatch.setattr(tensor, "_BLOCK_BYTES", 200)  # layer_norm blocks of 1 to 5 rows here
    blocked = two_steps()
    monkeypatch.setattr(nc, "graph_conv", oracles.graph_conv)
    monkeypatch.setattr(nc, "layer_norm", oracles.claim_layer_norm)
    monkeypatch.setattr(nc, "segment_mean", oracles.segment_mean)
    monkeypatch.setattr(nc, "drop", lambda *tensors: None)
    monkeypatch.setattr(nc.Tensor, "backward", oracles.backward)
    monkeypatch.setattr(trainer, "adamw_step", oracles.adamw_step)
    for name in ("ce_from_probs", "scl_source", "scl_cross", "tcl", "joint"):
        monkeypatch.setattr(trainer, name, getattr(oracles, name))
    monkeypatch.setattr(augment, "ce_from_probs", oracles.ce_from_probs)
    reference = two_steps()
    for state in (lean, blocked):
        assert state.params.w0.data.dtype == {"f64": np.float64, "f32": np.float32}[precision]
        for name, param in state.params.tensors.items():
            assert param.data.tobytes() == reference.params.tensors[name].data.tobytes(), name
            assert state.optimizer.m[name].tobytes() == reference.optimizer.m[name].tobytes(), name
            assert state.optimizer.v[name].tobytes() == reference.optimizer.v[name].tobytes(), name


def test_desk_shaped_step_tapes_one_node_per_loss_term(monkeypatch):
    # 32 + 32 events, d 16/16/8 and a DropEdge view, as perfbench's desk workload:
    # 44 nodes, 31 with a rule. With the loss terms and their blend composed of
    # primitive ops (tests/oracles.py), the same step tapes 163 (123).
    source_ds, target_ds = generate(SynthSpec(source_events=32, target_events=32, mean_replies=6.0, seed=5))
    provider = HashedProvider(dim=16)
    source, target = prepare_events(source_ds.events, provider), prepare_events(target_ds.events, provider)
    cfg = _config(model=ModelConfig(d_in=16, d_hidden=16, d_out=8), source_batch_size=32, target_batch_size=32)
    tapes = []
    backward = nc.Tensor.backward

    def recording_backward(self):
        tapes.append(backward(self))
        return tapes[-1]

    monkeypatch.setattr(nc.Tensor, "backward", recording_backward)
    train_step(source, target, _fresh_state(cfg), cfg)
    (tape,) = tapes
    assert len(tape) <= 44
    # backward let go of every rule it ran; _make gives a node parents exactly when it gives it a rule
    assert all(node._backward is None for node in tape)
    assert sum(bool(node._parents) for node in tape) <= 31


@pytest.mark.parametrize(
    "kind, tcl_enabled, heads",
    [("graph_dropedge", True, 3), ("adversarial", True, 4), ("feature_dropout", True, 3), ("graph_dropedge", False, 2)],
)
def test_a_training_step_runs_the_classifier_head_once_per_view(monkeypatch, kind, tcl_enabled, heads):
    # the source, the target and (with TCL) the augmented view; the adversarial
    # view's direction runs the head once more, on a detached leaf
    calls = []
    head = model.classify

    def counting_head(*args):
        calls.append(args)
        return head(*args)

    for module in (model, trainer, augment):
        monkeypatch.setattr(module, "classify", counting_head)
    cfg = _config(augment=AugmentStrategy(kind=kind), tcl_enabled=tcl_enabled)
    train_step(_mini_events(3, "s"), _mini_events(2, "t"), _fresh_state(cfg), cfg)
    assert len(calls) == heads


def _step_peak(source, target, cfg) -> int:
    """The ``tracemalloc`` peak of one ``train_step`` after a first one, in which AdamW allocates its moments."""
    state = _fresh_state(cfg)
    train_step(source, target, state, cfg)
    tracemalloc.start()
    try:
        train_step(source, target, state, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_train_step_memory_peak_stays_lean():
    # 324 source and 346 target nodes; a step encodes the target batch twice
    # (the second time as its DropEdge view). Keeping the gathered claim rows, their concatenation, a float dropout
    # mask and every interior gradient on the tape read 12.9 MB here; the
    # fused claim residual, the boolean mask and the freed gradients 6.9 MB;
    # one tape node per convolution, which keeps no products or
    # pre-activations, 5.7 MB; the dropout mask applied inside the second
    # convolution, which keeps no masked rows, 5.0 MB (4.79 MB with numpy 2.4.6);
    # dropping the values no backward reads, forming ln1's output again in
    # conv2's backward and sharing the target's feature rows with its view,
    # 3.06 MB; layer norms that keep h's normalized columns, the claim rows
    # and per-row statistics instead of whole normalized rows, rules let go
    # as backward runs and a dropout mask drawn a block at a time, 2.55 MB;
    # feature rows unpacked again for conv1's weight gradient and conv2's
    # input masked in place, 2.28 MB. The bound leaves about 10% over 2.55 MB.
    source_ds, target_ds = generate(SynthSpec(source_events=16, target_events=16, mean_replies=20.0, seed=7))
    provider = HashedProvider(dim=64)
    source, target = prepare_events(source_ds.events, provider), prepare_events(target_ds.events, provider)
    cfg = _config(
        model=ModelConfig(d_in=64, d_hidden=32, d_out=16), source_batch_size=16, target_batch_size=16
    )
    assert _step_peak(source, target, cfg) < 2_800_000


def test_a_training_encode_keeps_no_dense_feature_rows():
    # 32 events, 231 nodes, at d_in 768 and d_hidden = d_out = 8, f64: a dense
    # feature row takes 6,144 B, more than the rest of a node's share of the
    # tape (the dropout mask, 776 B, leads it) and its event's share of ln1's
    # claim rows. Keeping the dense rows for conv1's weight gradient read 8,063 B
    # a node live after the batch's encode; unpacking them again in that rule, 1,924.
    source_ds, _ = generate(SynthSpec(source_events=32, target_events=4, seed=4))
    cfg = ModelConfig(d_in=768, d_hidden=8, d_out=8)
    prepared = prepare_events(source_ds.events, HashedProvider(dim=cfg.d_in))
    rows, graphs = [p.embedding for p in prepared], [p.graph for p in prepared]
    params, streams = init_params(cfg, RngStreams(1)), RngStreams(2)
    encode_batch(GraphBatch.from_events(rows, graphs), params, mode="train", streams=streams)  # lazy imports outside
    tracemalloc.start()
    try:
        reps = encode_batch(GraphBatch.from_events(rows, graphs), params, mode="train", streams=streams)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert reps._backward is not None
    assert kept / sum(g.n for g in graphs) < cfg.d_in * 8 / 2


def _desk_step_peak(mean_replies: float) -> tuple[int, int]:
    """The peak of one warm 32 + 32-event step at the desk widths 16/16/8 (``_step_peak``), and its node count."""
    source_ds, target_ds = generate(SynthSpec(source_events=32, target_events=32, mean_replies=mean_replies, seed=5))
    provider = HashedProvider(dim=16)
    source, target = prepare_events(source_ds.events, provider), prepare_events(target_ds.events, provider)
    cfg = _config(model=ModelConfig(d_in=16, d_hidden=16, d_out=8), source_batch_size=32, target_batch_size=32)
    return _step_peak(source, target, cfg), sum(p.graph.n for p in source + target)


@pytest.mark.parametrize("mean_replies, nodes", [(6.0, 461), (200.0, 12_958)])
def test_train_step_peak_per_node_follows_the_buffer_inventory(mean_replies, nodes):
    # 32 + 32 events at the desk widths 16/16/8, f64, with a DropEdge view, so
    # a step encodes 1.5 nodes per node of its batches. Per encoded node the
    # tape keeps the two relu masks (16 + 8 B), the dropout mask (32 B), both
    # layer norms' normalized columns of h ((16 + 8) x 8 B) and their per-row
    # means and inverse standard deviations (2 x 2 x 8 B); per node it holds,
    # over three neighbour operators, about 60 B of index arrays, and no dense
    # feature rows, which conv1's weight gradient unpacks again. The widest
    # backward transient is at most four (rows, 32) float64 arrays over one
    # batch, half the nodes. Batch-sized buffers (the loss terms' matrices,
    # the parameters' gradients) add about 0.34 MB, the intercept of the peak
    # over mean_replies 1 to 200. The bound leaves 10% over that sum; the
    # peak read 1,660 and 815 B per node here, 1,705 and 944 with the stacked
    # features on the tape, 2,132 and 1,438 with whole normalized rows as
    # well, and 3,168 and 2,463 with every value kept.
    peak, counted = _desk_step_peak(mean_replies)
    assert counted == nodes
    per_node = 1.5 * (16 + 8 + 32 + 8 * (16 + 8) + 2 * 2 * 8) + 60 + 0.5 * 4 * 8 * 32
    assert peak / nodes < 1.1 * (per_node + 340_000 / nodes)


def test_train_step_peak_per_node_does_not_grow_with_the_trees():
    # memory linear in nodes: no buffer of a step may grow faster than the
    # nodes do, as a dense (sum n)^2 operator would. The peak read 1,079 B per
    # node over 3,208 nodes at mean_replies 50 and 777 B over 50,973 at 800
    # (1,203 and 922 with the stacked features on the tape).
    (peak_small, nodes_small), (peak_large, nodes_large) = _desk_step_peak(50.0), _desk_step_peak(800.0)
    assert nodes_large > 10 * nodes_small
    assert peak_large / nodes_large <= peak_small / nodes_small


def test_one_fit_learns_to_classify_held_out_target_events(tmp_path):
    # Only the reply-stance channel transfers at shift_strength 1.0. One fold of
    # the 5-fold few-shot protocol trains on 20 target events and is scored on
    # the other 80. The seed was fixed before measuring: seed 11 reads macro-F1
    # 0.800 (seeds 12 and 13 read 0.887 and 0.837), against 0.5 for chance.
    seed = 11
    source_ds, target_ds = generate(
        SynthSpec(source_events=120, target_events=100, shift_strength=1.0, seed=seed)
    )
    provider = HashedProvider(dim=128)
    source, target = prepare_events(source_ds.events, provider), prepare_events(target_ds.events, provider)
    cfg = TrainConfig(
        model=ModelConfig(d_in=128, d_hidden=64, d_out=32),
        alpha=0.0,
        learning_rate=0.005,
        max_epochs=30,
        patience=30,
        val_fraction=0.0,
        seed=child_seed(seed, "fold0"),
    )
    assignment = split_folds(target_ds.events, 5, seed)
    train_fold = [p for p in target if assignment[p.event.event_id] == 0]
    test_fold = [p for p in target if assignment[p.event.event_id] != 0]
    assert (len(train_fold), len(test_fold)) == (20, 80)
    result = fit(source, train_fold, cfg, tmp_path / "log.jsonl")
    assert evaluate_prepared(test_fold, result.params).macro_f1 >= 0.65


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
        losses.append(train_step(source, target, state, cfg)["l"])
    assert np.mean(losses) < losses[0]
    assert losses[-1] < losses[0]


def test_cross_validate_counts_and_determinism(tmp_path):
    spec = SynthSpec(source_events=12, target_events=10, mean_replies=3.0, seed=5)
    source_ds, target_ds = generate(spec)
    provider = HashedProvider(dim=8)
    source, target = prepare_events(source_ds.events, provider), prepare_events(target_ds.events, provider)
    cfg = _config(max_epochs=1, val_fraction=0.0, source_batch_size=6, target_batch_size=4)

    seen_sizes = []
    orig_fit = fit

    def spy_fit(source, fold, fold_cfg, log_path):
        seen_sizes.append(len(fold))
        return orig_fit(source, fold, fold_cfg, log_path)

    import rumorgraph.trainer as trainer_mod

    first, repeated = tmp_path / "first", tmp_path / "repeated"
    first.mkdir()
    repeated.mkdir()
    trainer_mod_fit = trainer_mod.fit
    trainer_mod.fit = spy_fit
    try:
        result = cross_validate(source, target, cfg, 5, first)
    finally:
        trainer_mod.fit = trainer_mod_fit

    assert seen_sizes == [2, 2, 2, 2, 2]  # each run trains on one fold of 10/5 events
    assert len(result.folds) == 5
    assert set(result.mean) == {"accuracy", "macro_f1", "f1_rumor", "f1_nonrumor"}
    names = [name for fold in range(5) for name in (f"fold{fold}.snapshot", f"fold{fold}_train_log.jsonl")]
    assert result.files == names
    assert sorted(p.name for p in first.iterdir()) == sorted(names)

    repeat = cross_validate(source, target, cfg, 5, repeated)
    assert repeat.mean == result.mean
    assert repeat.fold_assignment == result.fold_assignment
    for name in names:
        assert (repeated / name).read_bytes() == (first / name).read_bytes(), name


def test_config_validation():
    with pytest.raises(ValueError):
        _config(alpha=1.2)
    with pytest.raises(ValueError):
        _config(patience=0)


def test_default_augmentation_is_dropedge_in_code_and_config():
    assert TrainConfig(TINY).augment == AugmentStrategy("graph_dropedge")
    record = {"paths": dict.fromkeys(_PATH_KEYS, "unused"), "model": {"d_in": 8}}
    assert parse_run_config(record).train.augment == AugmentStrategy("graph_dropedge")
    record["augment"] = {"kind": "adversarial"}
    assert parse_run_config(record).train.augment == AugmentStrategy("adversarial")


def test_evaluate_prepared_accuracy():
    target = _mini_events(4, "t")
    cfg = _config()
    state = _fresh_state(cfg)
    metrics = evaluate_prepared(target, state.params)
    assert 0.0 <= metrics.accuracy <= 1.0
    assert 0.0 <= metrics.macro_f1 <= 1.0


def test_evaluate_prepared_rejects_an_empty_list():
    with pytest.raises(ValueError, match="nothing to score"):
        evaluate_prepared([], _fresh_state(_config()).params)


def test_evaluation_peak_memory_is_set_by_the_chunk_budget(monkeypatch):
    # 300 events, 5,157 nodes; scored as one batch, the peak was 16.7 MB
    cfg = ModelConfig(d_in=64, d_hidden=64, d_out=32)
    gen = np.random.default_rng(8)
    events = [random_tree_event(gen, f"e{i}", ("rumor", "non-rumor")[i % 2], max_nodes=34) for i in range(300)]
    prepared = prepare_events(events, HashedProvider(dim=cfg.d_in))
    assert sum(p.graph.n for p in prepared) > 5000
    params = init_params(cfg, RngStreams(2))
    budget = 256 * 1024  # 256 rows of the widest buffer, (n, d_hidden + d_in)
    monkeypatch.setattr(model, "_CHUNK_BYTES", budget)
    evaluate_prepared(prepared[:2], params)  # lazy imports in numpy land outside the measurement
    tracemalloc.start()
    try:
        evaluate_prepared(prepared, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * budget + 2 * len(prepared) * cfg.rep_dim * 8  # a chunk's buffers, then the stacked outputs


def test_prepared_hashed_rows_are_packed_to_at_most_160_bytes_a_node():
    # 6,144 bytes a node dense at width 768, where a hashed row holds a few nonzero entries
    source, target = generate(SynthSpec(source_events=40, target_events=40, seed=6))
    prepared = prepare_events(source.events + target.events, HashedProvider(dim=768))
    nodes = sum(p.graph.n for p in prepared)
    packed = sum(p.embedding.masks.nbytes + p.embedding.values.nbytes + p.embedding.counts.nbytes for p in prepared)
    assert nodes > 400
    assert packed <= 160 * nodes


def test_early_detection_never_holds_the_corpus_dense_rows(monkeypatch):
    # 300 events, 5,157 nodes: their dense rows at width 768 take 31.7 MB, so holding them from
    # preparing to the last checkpoint would exceed it; a 1 MiB chunk keeps the encode's own buffers small
    cfg = ModelConfig(d_in=768, d_hidden=16, d_out=8)
    gen = np.random.default_rng(8)
    events = [random_tree_event(gen, f"e{i}", ("rumor", "non-rumor")[i % 2], max_nodes=34) for i in range(300)]
    dense_bytes = sum(e.node_count for e in events) * cfg.d_in * 8
    params = init_params(cfg, RngStreams(2))
    monkeypatch.setattr(model, "_CHUNK_BYTES", 1024 * 1024)
    spec = CheckpointSpec("post_count", (2.0, 4.0, 8.0, math.inf))
    provider = HashedProvider(dim=cfg.d_in)
    early_detection(prepare_events(events[:2], provider), params, spec)  # lazy imports in numpy land outside the measurement
    tracemalloc.start()
    try:
        early_detection(prepare_events(events, provider), params, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_prefix_matches_preparing_the_truncated_event_bitwise(seed):
    event = random_tree_event(np.random.default_rng(seed), "ev", "rumor", max_nodes=12)
    provider = HashedProvider(dim=8)
    (prepared,) = prepare_events([event], provider)
    for mode, grid in (
        ("post_count", [1, 2, 3, 5, 8, 13, math.inf]),
        ("elapsed_time", [30, 60, 90, 150, 300, 600, math.inf]),
    ):
        for value in grid:
            truncated = truncate_event(event, mode, value)
            prefix = prepared.prefix(visible_posts(event, mode, value))
            assert unpack(prefix.embedding).tobytes() == embed_event(truncated, provider).rows.tobytes()
            assert prefix.graph == build_graph(truncated)
            assert prefix.label == prepared.label
        assert prepared.prefix(visible_posts(event, mode, math.inf)) is prepared
