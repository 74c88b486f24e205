"""Synthetic benchmark generator: determinism, validity, and the shift knob."""

import collections

import pytest

from rumorgraph.embed import tokenize
from rumorgraph.runconfig import dataclass_from_json
from rumorgraph.synth import SynthSpec, SynthSpecError, generate


def test_spec_validation():
    SynthSpec()
    with pytest.raises(SynthSpecError):
        SynthSpec(class_balance=1.5)
    with pytest.raises(SynthSpecError):
        SynthSpec(source_events=3, class_balance=0.5)  # a class would get < 2 events
    with pytest.raises(SynthSpecError):
        dataclass_from_json(SynthSpec, {"source_events": 20, "target_events": 20, "bogus": 1}, SynthSpecError)


def test_generation_deterministic():
    spec = SynthSpec(source_events=20, target_events=12, seed=9)
    a_src, a_tgt = generate(spec)
    b_src, b_tgt = generate(spec)
    assert a_src.events == b_src.events
    assert a_tgt.events == b_tgt.events
    c_src, _ = generate(SynthSpec(source_events=20, target_events=12, seed=10))
    assert a_src.events != c_src.events


def test_counts_and_balance():
    spec = SynthSpec(source_events=30, target_events=20, class_balance=0.5, seed=1)
    source, target = generate(spec)
    assert len(source.events) == 30 and len(target.events) == 20
    assert sum(e.label == "rumor" for e in source.events) == 15
    assert sum(e.label == "rumor" for e in target.events) == 10
    assert all(e.event_id.startswith("source-") for e in source.events)
    assert all(e.event_id.startswith("target-") for e in target.events)


def test_generated_events_are_valid_trees():
    spec = SynthSpec(source_events=10, target_events=10, mean_replies=8.0, branching=0.8, seed=3)
    for ds in generate(spec):
        for event in ds.events:
            seen = set()
            for i, post in enumerate(event.posts):
                if i == 0:
                    assert post.parent_id is None and post.timestamp == 0
                else:
                    assert post.parent_id in seen
                seen.add(post.post_id)
            assert event.node_count >= 3  # claim plus at least two replies


def _token_sets(dataset):
    tokens = collections.Counter()
    for event in dataset.events:
        for post in event.posts:
            tokens.update(tokenize(post.text))
    return tokens


def _cues(dataset):
    return {t for t in _token_sets(dataset) if "cue" in t}


def test_zero_shift_shares_vocabulary_per_class():
    spec = SynthSpec(source_events=40, target_events=40, shift_strength=0.0, seed=2)
    source, target = generate(spec)
    all_tokens = set(_token_sets(source)) | set(_token_sets(target))
    assert not any(t.startswith(("source", "target")) for t in all_tokens)


def test_full_shift_separates_cue_vocabulary_but_not_stance():
    spec = SynthSpec(source_events=40, target_events=40, shift_strength=1.0, seed=2)
    source, target = generate(spec)
    src_cues, tgt_cues = _cues(source), _cues(target)
    assert src_cues and all(t.startswith("source") for t in src_cues)
    assert tgt_cues and all(t.startswith("target") for t in tgt_cues)
    assert not (src_cues & tgt_cues)
    # stance vocabulary stays shared across domains
    src_stance = {t for t in _token_sets(source) if t.startswith(("deny", "agree"))}
    tgt_stance = {t for t in _token_sets(target) if t.startswith(("deny", "agree"))}
    assert src_stance and src_stance & tgt_stance
