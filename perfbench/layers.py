"""Per-layer metrics: the counters kept at layer boundaries, and how the
traced run turns spans and counters into named metrics."""

from __future__ import annotations

from probe import Probe, layer_table

# Functions timed in untraced runs: just what the end-to-end metrics need.
BOUNDARY = (
    ("trainer.train_step", "rumorgraph.trainer", "train_step"),
    ("trainer.evaluate_prepared", "rumorgraph.trainer", "evaluate_prepared"),
    ("evalkit.predict_events", "rumorgraph.evalkit", "predict_events"),
    ("model.from_events", "rumorgraph.model.GraphBatch", "from_events"),
)


def _add(counters: dict, key: str, amount: float) -> None:
    counters[key] = counters.get(key, 0) + amount


def _events(args, kwargs, result, duration, counters):
    _add(counters, "events", len(args[0]))


def _matmul(args, kwargs, result, duration, counters):
    _add(counters, "flops", 2 * result.data.size * args[0].shape[-1])


def _backward(args, kwargs, result, duration, counters):
    _add(counters, "nodes", len(result))


def _dropedge(args, kwargs, result, duration, counters):
    _add(counters, "edges_in", len(args[0].edges))
    _add(counters, "edges_kept", len(result.edges))


def _from_events(args, kwargs, result, duration, counters):
    graphs = args[2] if len(args) > 2 else kwargs["graphs"]
    nodes = sum(result.sizes)
    _add(counters, "nodes", nodes)
    _add(counters, "mixing_dense", nodes * nodes)
    # a tree's normalized adjacency holds its self-loops and both directions of each edge
    _add(counters, "mixing_nonzero", sum(g.n + 2 * len(g.edges) for g in graphs))
    counters["mixing_bytes_max"] = max(counters.get("mixing_bytes_max", 0), result.mixing.nbytes)


def _encode_batch(args, kwargs, result, duration, counters):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "eval")
    _add(counters, f"{mode}_s", duration)


def _embed_event(args, kwargs, result, duration, counters):
    _add(counters, "posts", args[0].node_count)


def _fit(args, kwargs, result, duration, counters):
    counters["s_max"] = max(counters.get("s_max", 0.0), duration)


OBSERVERS = {
    "trainer.evaluate_prepared": _events,
    "evalkit.predict_events": _events,
    "numcore.matmul": _matmul,
    "numcore.backward": _backward,
    "propagation.dropedge": _dropedge,
    "model.from_events": _from_events,
    "model.encode_batch": _encode_batch,
    "embed.embed_event": _embed_event,
    "trainer.fit": _fit,
}


SPAN_COLUMNS = ("calls", "s", "self_s")

# metric -> (unit, span name, column). Span columns come from the layer
# table; every other column is a counter kept by that span's observer.
PER_LAYER = {
    "propagation.build_graph.s": ("s", "propagation.build_graph", "s"),
    "propagation.build_graph.calls": ("count", "propagation.build_graph", "calls"),
    "propagation.dropedge.s": ("s", "propagation.dropedge", "s"),
    "propagation.dropedge.kept_ratio": ("ratio", "propagation.dropedge", "kept_ratio"),
    "model.from_events.s": ("s", "model.from_events", "s"),
    "model.from_events.nodes": ("count", "model.from_events", "nodes"),
    "model.mixing_bytes_max": ("B", "model.from_events", "mixing_bytes_max"),
    "model.mixing_nonzero_ratio": ("ratio", "model.from_events", "mixing_nonzero_ratio"),
    "model.encode_batch.train_s": ("s", "model.encode_batch", "train_s"),
    "model.encode_batch.eval_s": ("s", "model.encode_batch", "eval_s"),
    "model.save_snapshot.s": ("s", "model.save_snapshot", "s"),
    "numcore.matmul.s": ("s", "numcore.matmul", "s"),
    "numcore.matmul.calls": ("count", "numcore.matmul", "calls"),
    "numcore.matmul.flops": ("flop", "numcore.matmul", "flops"),
    "numcore.layer_norm.s": ("s", "numcore.layer_norm", "s"),
    "numcore.gather_rows.s": ("s", "numcore.gather_rows", "s"),
    "numcore.segment_mean.s": ("s", "numcore.segment_mean", "s"),
    "numcore.backward.s": ("s", "numcore.backward", "s"),
    "numcore.backward.nodes": ("count", "numcore.backward", "nodes"),
    "numcore.adamw_step.s": ("s", "numcore.adamw_step", "s"),
    "objectives.ce_from_probs.s": ("s", "objectives.ce_from_probs", "s"),
    "objectives.scl_source.s": ("s", "objectives.scl_source", "s"),
    "objectives.scl_cross.s": ("s", "objectives.scl_cross", "s"),
    "objectives.tcl.s": ("s", "objectives.tcl", "s"),
    "augment.augment_batch.s": ("s", "augment.augment_batch", "s"),
    "trainer.train_step.self_s": ("s", "trainer.train_step", "self_s"),
    "trainer.prepare_events.s": ("s", "trainer.prepare_events", "s"),
    "trainer.evaluate_prepared.s": ("s", "trainer.evaluate_prepared", "s"),
    "trainer.fit.s_max": ("s", "trainer.fit", "s_max"),
    "embed.embed_event.s": ("s", "embed.embed_event", "s"),
    "embed.embed_event.posts": ("count", "embed.embed_event", "posts"),
    "dataio.parse_events.s": ("s", "dataio.parse_events", "s"),
    "evalkit.compute_metrics.s": ("s", "evalkit.compute_metrics", "s"),
}

# Reported beside the per-layer metrics but left out of BENCHMARK.json: they
# read zero on the training workloads, which run no detection command.
DETECTION_ONLY = {
    "dataio.truncate_event.s": ("s", "dataio.truncate_event", "s"),
    "evalkit.predict_events.s": ("s", "evalkit.predict_events", "s"),
    "evalkit.early_detection.s": ("s", "evalkit.early_detection", "s"),
    "evalkit.pca_project.s": ("s", "evalkit.pca_project", "s"),
}


def combine(once: list[Probe], passes: list[Probe]) -> tuple[dict, dict]:
    """Layer table and counters of the phases run once plus the mean of the passes.

    Counters named ``*_max`` take the largest value seen anywhere.
    """
    table: dict[str, dict[str, float]] = {}
    counters: dict[str, dict[str, float]] = {}
    weighted = [(p, 1.0) for p in once] + [(p, 1.0 / len(passes)) for p in passes]
    for probe, weight in weighted:
        for name, row in layer_table(probe.spans).items():
            into = table.setdefault(name, {"calls": 0.0, "s": 0.0, "self_s": 0.0})
            for column, value in row.items():
                into[column] += weight * value
        for name, values in probe.counters.items():
            into = counters.setdefault(name, {})
            for key, value in values.items():
                if key.endswith("_max"):
                    into[key] = max(into.get(key, 0), value)
                else:
                    into[key] = into.get(key, 0) + weight * value
    return table, counters


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(table: dict, counters: dict) -> dict[str, dict]:
    """Every metric of PER_LAYER and DETECTION_ONLY, zero where a layer never ran."""
    dropedge = counters.get("propagation.dropedge", {})
    batches = counters.get("model.from_events", {})
    derived = {
        ("propagation.dropedge", "kept_ratio"): _ratio(dropedge.get("edges_kept", 0), dropedge.get("edges_in", 0)),
        ("model.from_events", "mixing_nonzero_ratio"): _ratio(
            batches.get("mixing_nonzero", 0), batches.get("mixing_dense", 0)
        ),
    }
    metrics = {}
    for metric, (unit, name, column) in (PER_LAYER | DETECTION_ONLY).items():
        if column in SPAN_COLUMNS:
            value = table.get(name, {}).get(column, 0.0)
        else:
            value = derived.get((name, column), counters.get(name, {}).get(column, 0.0))
        metrics[metric] = {"value": float(value), "unit": unit}
    return metrics
