"""Event parsing, fold splitting, and checkpoint truncation."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rumorgraph.dataio import (
    CheckpointSpec,
    DatasetError,
    parse_events,
    split_folds,
    truncate_event,
    write_events,
)
from tests.conftest import make_dataset, make_event, random_tree_event


def _write_jsonl(tmp_path, records, name="events.jsonl"):
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")
    return path


def _claim_only(event_id="e1", label="rumor", timestamp=0):
    return {
        "event_id": event_id,
        "label": label,
        "claim": {"post_id": f"{event_id}-p0", "text": "claim", "timestamp": timestamp},
        "posts": [],
    }


def test_parse_single_claim_event(tmp_path):
    ds = parse_events(_write_jsonl(tmp_path, [_claim_only()]))
    assert len(ds.events) == 1
    assert ds.events[0].node_count == 1
    assert ds.events[0].label == "rumor"


def test_parse_chain_depth_and_order(tmp_path):
    rec = _claim_only()
    rec["posts"] = [
        {"post_id": "e1-p2", "parent_id": "e1-p1", "text": "b", "timestamp": 120},
        {"post_id": "e1-p1", "parent_id": "e1-p0", "text": "a", "timestamp": 60},
    ]
    event = parse_events(_write_jsonl(tmp_path, [rec])).events[0]
    assert [p.post_id for p in event.posts] == ["e1-p0", "e1-p1", "e1-p2"]
    assert event.depth() == 2
    assert [p.timestamp for p in event.posts] == [0, 60, 120]


def test_parse_normalizes_absolute_epochs(tmp_path):
    rec = {
        "event_id": "e1",
        "label": "non-rumor",
        "claim": {"post_id": "c", "text": "claim", "timestamp": 1_600_000_000},
        "posts": [{"post_id": "r", "parent_id": "c", "text": "x", "timestamp": 1_600_000_090}],
    }
    event = parse_events(_write_jsonl(tmp_path, [rec])).events[0]
    assert event.claim.timestamp == 0
    assert event.posts[1].timestamp == 90


def test_parse_unknown_parent_is_structural_error(tmp_path):
    rec = _claim_only()
    rec["posts"] = [{"post_id": "r", "parent_id": "ghost", "text": "x", "timestamp": 5}]
    with pytest.raises(DatasetError, match="'e1'.*'r'.*'ghost'"):
        parse_events(_write_jsonl(tmp_path, [rec]))


def test_parse_duplicate_post_id(tmp_path):
    rec = _claim_only()
    rec["posts"] = [
        {"post_id": "r", "parent_id": "e1-p0", "text": "x", "timestamp": 5},
        {"post_id": "r", "parent_id": "e1-p0", "text": "y", "timestamp": 6},
    ]
    with pytest.raises(DatasetError, match="duplicate post_id"):
        parse_events(_write_jsonl(tmp_path, [rec]))


def test_parse_missing_label(tmp_path):
    rec = _claim_only()
    del rec["label"]
    with pytest.raises(DatasetError, match="label"):
        parse_events(_write_jsonl(tmp_path, [rec]))


def test_parse_parent_after_child_timestamp(tmp_path):
    rec = _claim_only()
    rec["posts"] = [
        {"post_id": "late", "parent_id": "e1-p0", "text": "x", "timestamp": 100},
        {"post_id": "early", "parent_id": "late", "text": "y", "timestamp": 50},
    ]
    with pytest.raises(DatasetError, match="posted later"):
        parse_events(_write_jsonl(tmp_path, [rec]))


def test_parse_single_label_warns(tmp_path, caplog):
    path = _write_jsonl(tmp_path, [_claim_only("e1"), _claim_only("e2")])
    with caplog.at_level("WARNING"):
        parse_events(path)
    assert any("single label" in r.message for r in caplog.records)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    count=st.integers(min_value=3, max_value=20),
)
def test_roundtrip_random_datasets(tmp_path_factory, seed, count):
    gen = np.random.default_rng(seed)
    events = [
        random_tree_event(gen, f"ev{i}", "rumor" if gen.random() < 0.5 else "non-rumor")
        for i in range(count)
    ]
    ds = make_dataset(events)
    path = tmp_path_factory.mktemp("roundtrip") / "events.jsonl"
    write_events(ds, path)
    parsed = parse_events(path, role=ds.role)
    assert parsed.events == ds.events


def test_split_folds_balanced_counts():
    gen = np.random.default_rng(0)
    events = [random_tree_event(gen, f"r{i}", "rumor") for i in range(5)]
    events += [random_tree_event(gen, f"n{i}", "non-rumor") for i in range(5)]
    plan = split_folds(make_dataset(events), k=5, seed=3)
    for fold in range(5):
        ids = plan.fold_ids(fold)
        assert len(ids) == 2
        labels = {e.event_id: e.label for e in events}
        assert sorted(labels[i] for i in ids) == ["non-rumor", "rumor"]


def test_split_folds_deterministic_and_partitioning():
    gen = np.random.default_rng(5)
    events = [
        random_tree_event(gen, f"e{i}", "rumor" if i % 2 else "non-rumor") for i in range(23)
    ]
    ds = make_dataset(events)
    plan_a = split_folds(ds, k=4, seed=11)
    plan_b = split_folds(ds, k=4, seed=11)
    assert plan_a == plan_b
    # folds partition the dataset
    assert sorted(plan_a.assignment) == sorted(e.event_id for e in events)
    for label in ("rumor", "non-rumor"):
        sizes = [
            sum(1 for e in events if e.label == label and plan_a.assignment[e.event_id] == f)
            for f in range(4)
        ]
        assert max(sizes) - min(sizes) <= 1


def test_split_folds_small_class_error():
    events = [make_event("a", "rumor", []), make_event("b", "non-rumor", []), make_event("c", "non-rumor", [])]
    with pytest.raises(DatasetError, match="stratify"):
        split_folds(make_dataset(events), k=2, seed=0)


def test_truncate_post_count_claim_only():
    event = make_event("e", "rumor", [0, 0, 1])
    got = truncate_event(event, "post_count", 1)
    assert got.node_count == 1
    assert got.claim == event.claim


def test_truncate_time_beyond_max_is_identity():
    event = make_event("e", "rumor", [0, 1], timestamps=[60, 120])
    assert truncate_event(event, "elapsed_time", 10_000) is event
    assert truncate_event(event, "elapsed_time", math.inf) is event


def test_truncate_time_chain_example():
    event = make_event("e", "rumor", [0, 1], timestamps=[60, 120])
    got = truncate_event(event, "elapsed_time", 90)
    assert got.node_count == 2
    assert [p.timestamp for p in got.posts] == [0, 60]


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_truncate_monotone_and_valid(seed):
    gen = np.random.default_rng(seed)
    event = random_tree_event(gen, "ev", "rumor", max_nodes=12)
    for mode, grid in (
        ("post_count", [1, 2, 4, 8, math.inf]),
        ("elapsed_time", [30, 90, 300, math.inf]),
    ):
        previous = set()
        for value in grid:
            got = truncate_event(event, mode, value)
            ids = {p.post_id for p in got.posts}
            assert previous <= ids  # monotone growth
            previous = ids
            # surviving posts still form a parent-earlier tree
            seen = set()
            for i, post in enumerate(got.posts):
                if i:
                    assert post.parent_id in seen
                seen.add(post.post_id)
        assert truncate_event(event, mode, math.inf) is event


def test_checkpoint_spec_validation():
    CheckpointSpec("post_count", (1, 5, math.inf))
    with pytest.raises(DatasetError, match="ascending"):
        CheckpointSpec("elapsed_time", (5.0, 5.0))
    with pytest.raises(DatasetError, match="positive"):
        CheckpointSpec("elapsed_time", (0.0, 5.0))
    with pytest.raises(DatasetError, match="integers"):
        CheckpointSpec("post_count", (1.5,))
    with pytest.raises(DatasetError, match="mode"):
        CheckpointSpec("sideways", (1.0,))
