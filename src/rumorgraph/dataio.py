"""Conversation-thread datasets: JSONL parsing, folds, and checkpoint truncation.

An event is a claim post plus its replies, which form a tree through
parent links. On disk each event is one JSON object per line:

    {"event_id": str, "label": "rumor"|"non-rumor",
     "claim": {"post_id": str, "text": str, "timestamp": int},
     "posts": [{"post_id": str, "parent_id": str, "text": str, "timestamp": int}, ...]}

Timestamps are seconds. Absolute epochs are accepted and normalized so the
claim sits at 0 and replies carry elapsed seconds since the claim.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

from .numcore import RngStreams

log = logging.getLogger(__name__)

LABELS = ("non-rumor", "rumor")


class DatasetError(ValueError):
    """The event file violates the format or a structural invariant."""


@dataclass(frozen=True)
class Post:
    post_id: str
    parent_id: str | None  # None only for the claim
    text: str
    timestamp: int  # seconds since the claim was posted; claim has 0


@dataclass(frozen=True)
class Event:
    """A claim, its replies in chronological order, and a veracity label."""

    event_id: str
    label: str
    posts: tuple[Post, ...]  # claim first, then replies by (timestamp, post_id)

    @property
    def claim(self) -> Post:
        return self.posts[0]

    @property
    def node_count(self) -> int:
        return len(self.posts)

    def depth(self) -> int:
        """Longest reply chain, with the claim at depth 0."""
        depths = {self.claim.post_id: 0}
        for post in self.posts[1:]:
            depths[post.post_id] = depths[post.parent_id] + 1
        return max(depths.values())


@dataclass
class Dataset:
    events: list[Event]
    role: str = "unspecified"  # source | target


@dataclass(frozen=True)
class FoldPlan:
    assignment: dict[str, int]  # event_id -> fold index

    def fold_ids(self, fold: int) -> list[str]:
        return [eid for eid, f in self.assignment.items() if f == fold]


@dataclass(frozen=True)
class CheckpointSpec:
    mode: str  # elapsed_time | post_count
    values: tuple[float, ...]  # strictly ascending; math.inf means unbounded

    def __post_init__(self):
        if self.mode not in ("elapsed_time", "post_count"):
            raise DatasetError(f"unknown checkpoint mode {self.mode!r}")
        if not self.values:
            raise DatasetError("checkpoint list is empty")
        if any(v <= 0 for v in self.values):
            raise DatasetError("checkpoint values must be positive")
        if list(self.values) != sorted(set(self.values)):
            raise DatasetError(f"checkpoint values must be strictly ascending: {self.values}")
        if self.mode == "post_count":
            for v in self.values:
                if not math.isinf(v) and (v < 1 or v != int(v)):
                    raise DatasetError(f"post_count checkpoints must be integers >= 1, got {v}")


# -- parsing -----------------------------------------------------------------


def _require(record: dict, key: str, kind, where: str):
    if key not in record:
        raise DatasetError(f"{where}: missing field {key!r}")
    value = record[key]
    if kind is int and isinstance(value, bool):
        raise DatasetError(f"{where}: field {key!r} must be {kind.__name__}")
    if not isinstance(value, kind):
        raise DatasetError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def _parse_event(record: dict, line_no: int) -> Event:
    where = f"line {line_no}"
    event_id = _require(record, "event_id", str, where)
    where = f"event {event_id!r}"
    label = _require(record, "label", str, where)
    if label not in LABELS:
        raise DatasetError(f"{where}: label must be one of {LABELS}, got {label!r}")

    claim_rec = _require(record, "claim", dict, where)
    claim_id = _require(claim_rec, "post_id", str, f"{where} claim")
    if not claim_id:
        raise DatasetError(f"{where}: claim post_id is empty")
    claim_ts = _require(claim_rec, "timestamp", int, f"{where} claim")
    claim_text = _require(claim_rec, "text", str, f"{where} claim")

    replies = []
    seen = {claim_id}
    for rec in _require(record, "posts", list, where):
        if not isinstance(rec, dict):
            raise DatasetError(f"{where}: reply records must be objects")
        pid = _require(rec, "post_id", str, f"{where} post")
        if not pid:
            raise DatasetError(f"{where}: post_id is empty")
        if pid in seen:
            raise DatasetError(f"{where}: duplicate post_id {pid!r}")
        seen.add(pid)
        replies.append(
            Post(
                post_id=pid,
                parent_id=_require(rec, "parent_id", str, f"{where} post {pid!r}"),
                text=_require(rec, "text", str, f"{where} post {pid!r}"),
                timestamp=_require(rec, "timestamp", int, f"{where} post {pid!r}") - claim_ts,
            )
        )

    for reply in replies:
        if reply.parent_id not in seen:
            raise DatasetError(f"{where}: post {reply.post_id!r} references unknown parent {reply.parent_id!r}")
        if reply.timestamp < 0:
            raise DatasetError(f"{where}: post {reply.post_id!r} predates the claim")

    posts = [Post(claim_id, None, claim_text, 0)]
    posts.extend(sorted(replies, key=lambda p: (p.timestamp, p.post_id)))

    position = {p.post_id: i for i, p in enumerate(posts)}
    by_id = {p.post_id: p for p in posts}
    for i, post in enumerate(posts[1:], start=1):
        parent = by_id[post.parent_id]
        if parent.timestamp > post.timestamp:
            raise DatasetError(
                f"{where}: post {post.post_id!r} replies to {parent.post_id!r} "
                f"posted later ({parent.timestamp}s > {post.timestamp}s)"
            )
        if position[post.parent_id] >= i:
            raise DatasetError(
                f"{where}: post {post.post_id!r} sorts before its parent {post.parent_id!r}"
            )
    return Event(event_id=event_id, label=label, posts=tuple(posts))


def parse_events(path, role: str = "unspecified") -> Dataset:
    """Parse and validate a JSONL event file into a Dataset."""
    events = []
    seen_ids = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise DatasetError(f"line {line_no}: invalid JSON ({err.msg})") from err
            event = _parse_event(record, line_no)
            if event.event_id in seen_ids:
                raise DatasetError(f"duplicate event_id {event.event_id!r}")
            seen_ids.add(event.event_id)
            events.append(event)
    if not events:
        raise DatasetError(f"{path}: no events found")
    labels = {e.label for e in events}
    if len(labels) == 1:
        log.warning("dataset %s contains a single label (%s)", path, labels.pop())
    return Dataset(events=events, role=role)


def write_events(dataset: Dataset, path) -> None:
    """Serialize a Dataset back to the JSONL event format."""
    with open(path, "w", encoding="utf-8") as fh:
        for event in dataset.events:
            claim = event.claim
            record = {
                "event_id": event.event_id,
                "label": event.label,
                "claim": {"post_id": claim.post_id, "text": claim.text, "timestamp": claim.timestamp},
                "posts": [
                    {
                        "post_id": p.post_id,
                        "parent_id": p.parent_id,
                        "text": p.text,
                        "timestamp": p.timestamp,
                    }
                    for p in event.posts[1:]
                ],
            }
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


# -- fold splitting ------------------------------------------------------------


def split_folds(dataset: Dataset, k: int, seed: int) -> FoldPlan:
    """Assign every event to one of k folds, stratified by label."""
    if k < 2:
        raise DatasetError(f"fold count must be >= 2, got {k}")
    gen = RngStreams(seed).shuffle
    assignment: dict[str, int] = {}
    for label in LABELS:
        ids = sorted(e.event_id for e in dataset.events if e.label == label)
        if not ids:
            continue
        if len(ids) < k:
            raise DatasetError(
                f"cannot stratify: class {label!r} has {len(ids)} events for k={k}"
            )
        order = gen.permutation(len(ids))
        for slot, idx in enumerate(order):
            assignment[ids[idx]] = slot % k
    return FoldPlan(assignment=assignment)


# -- checkpoint truncation -----------------------------------------------------


def truncate_event(event: Event, mode: str, value: float) -> Event:
    """Restrict an event to the content available at a detection checkpoint.

    elapsed_time keeps replies posted no later than ``value`` seconds after
    the claim; post_count keeps the first ``value`` posts in sorted order
    (the claim counts). The claim itself always survives.
    """
    if value <= 0:
        raise DatasetError(f"checkpoint value must be positive, got {value}")
    if mode == "elapsed_time":
        kept = [event.posts[0]] + [p for p in event.posts[1:] if p.timestamp <= value]
    elif mode == "post_count":
        count = len(event.posts) if math.isinf(value) else int(value)
        kept = list(event.posts[:count])
    else:
        raise DatasetError(f"unknown checkpoint mode {mode!r}")
    if len(kept) == len(event.posts):
        return event
    return Event(event_id=event.event_id, label=event.label, posts=tuple(kept))
