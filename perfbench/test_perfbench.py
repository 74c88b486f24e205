"""Self-tests of the benchmark.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import run as bench
from layers import PER_LAYER
from probe import Span, self_times
from stats import tail_percentile
from workloads import WORKLOADS, Session, TrainWorkload

bench.load_program()

from rumorgraph import cli  # noqa: E402
from rumorgraph import numcore as nc  # noqa: E402
from rumorgraph.model import GraphBatch  # noqa: E402
from rumorgraph.numcore.tensor import Tensor  # noqa: E402

TINY = TrainWorkload(
    name="tiny",
    why="a traced run small enough for a unit test",
    model={"d_in": 16, "d_hidden": 16, "d_out": 8},
    corpus={"source_events": 32, "target_events": 72, "mean_replies": 3},
    epochs=1,
)


def _bindings() -> dict:
    """Every callable bound in a rumorgraph module, and the traced methods."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "rumorgraph" or name.startswith("rumorgraph."):
            found.update({(name, attr): v for attr, v in vars(module).items() if callable(v)})
    found[("Tensor", "backward")] = Tensor.__dict__["backward"]
    found[("GraphBatch", "from_events")] = GraphBatch.__dict__["from_events"]
    return found


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    nc.set_precision("f32")
    before = _bindings()
    try:
        run = bench.measure(TINY, 3, 0, True, tmp_path_factory.mktemp("work"), Session(cli.main))
        yield run, before, _bindings(), nc.active_dtype()
    finally:
        nc.set_precision("f64")


def test_traced_run_restores_patched_attributes_and_precision(traced):
    run, before, after, dtype = traced
    assert run.traced_passes and run.traced_setup.probe.spans
    assert after == before
    assert dtype == "float32"


def test_traced_run_writes_the_same_artifacts_as_untraced_passes(traced):
    run, *_ = traced
    assert run.traced_passes[0].hashes == run.passes[0].hashes
    assert run.oracle_deviation <= 1e-9


def test_self_time_subtracts_direct_children():
    spans = [Span("a", -1, 0.0, 10.0), Span("b", 0, 1.0, 4.0), Span("c", 1, 2.0, 3.0), Span("d", 0, 5.0, 6.0)]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_of_augment_batch_excludes_its_encode_batch(traced):
    run, *_ = traced
    spans = run.traced_passes[0].probe.spans
    own = self_times(spans)
    augments = [i for i, s in enumerate(spans) if s.name == "augment.augment_batch"]
    assert augments
    for i in augments:
        children = [s for s in spans if s.parent == i]
        assert "model.encode_batch" in [s.name for s in children]
        assert own[i] == pytest.approx(spans[i].duration - sum(s.duration for s in children), abs=1e-12)
        assert 0.0 <= own[i] < spans[i].duration
    top = sum(s.duration for s in spans if s.parent == -1)
    assert sum(own) == pytest.approx(top, rel=1e-9)


@pytest.mark.parametrize(
    "count, expected",
    [(15, None), (20, (50.0, 10, 20)), (99, (50.0, 50, 99)), (100, (90.0, 90, 100)),
     (1000, (99.0, 990, 1000)), (10000, (99.9, 9990, 10000))],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert tail_percentile([float(v) for v in range(count, 0, -1)]) == expected


def test_benchmark_json_lists_the_code_metrics_and_workloads():
    spec = json.loads((Path(bench.ROOT) / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(n, u) for n, (u, _s, _c) in PER_LAYER.items()]
