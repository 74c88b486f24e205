"""Conversation-thread datasets: JSONL parsing, folds, and detection checkpoints.

An event is a claim post plus its replies, which form a tree through
parent links. On disk each event is one JSON object per line:

    {"event_id": str, "label": "rumor"|"non-rumor",
     "claim": {"post_id": str, "text": str, "timestamp": int},
     "posts": [{"post_id": str, "parent_id": str, "text": str, "timestamp": int}, ...]}

Timestamps are seconds. Absolute epochs are accepted and normalized so the
claim sits at 0 and replies carry elapsed seconds since the claim.

An event's posts sort claim first, then replies by time; a detection
checkpoint keeps the first of them, and ``visible_posts`` says how many.

Every JSON file read from outside, but a snapshot's header, is decoded here,
and each fault becomes the caller's error type. ``read_json`` reads a
whole-file value (run configs, synth specs): an unreadable file, invalid
JSON, text that is not UTF-8, too many digits or too deep a nesting raise
that error. ``json_lines`` yields each non-blank line's number and value
(events, embeddings): invalid JSON names the file and line, text that is not
UTF-8 names the file, and a missing file raises ``OSError``.
"""

from __future__ import annotations

import bisect
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


@dataclass(frozen=True)
class CheckpointSpec:
    mode: str  # elapsed_time | post_count
    values: tuple[float, ...]  # strictly ascending; math.inf means unbounded

    def __post_init__(self):
        if self.mode not in ("elapsed_time", "post_count"):
            raise DatasetError(f"unknown checkpoint mode {self.mode!r}")
        if not self.values:
            raise DatasetError("checkpoint list is empty")
        for v in self.values:
            if math.isnan(v):
                raise DatasetError(f"checkpoint value {v} is not a number")
        if any(v <= 0 for v in self.values):
            raise DatasetError("checkpoint values must be positive")
        if list(self.values) != sorted(set(self.values)):
            raise DatasetError(f"checkpoint values must be strictly ascending: {self.values}")
        if self.mode == "post_count":
            for v in self.values:
                if not math.isinf(v) and (v < 1 or v != int(v)):
                    raise DatasetError(f"post_count checkpoints must be integers >= 1, got {v}")


# -- parsing -----------------------------------------------------------------


def read_json(path, error):
    """The JSON value a whole file holds, raising ``error`` on any fault."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:  # missing or unreadable: as bad an input as a malformed one
        raise error(str(err)) from err
    except (ValueError, RecursionError) as err:  # malformed, not UTF-8, too many digits, or nested too deep
        raise error(f"{path}: invalid JSON ({getattr(err, 'msg', err)})") from err


def json_lines(path, error):
    """Yield ``(line number, value)`` for each non-blank line of a JSONL file, raising ``error`` on a fault."""
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(map(str.strip, fh), start=1):
                if line:
                    try:
                        yield line_no, json.loads(line)
                    except (ValueError, RecursionError) as err:  # malformed, too many digits, or nested too deep
                        raise error(f"{path} line {line_no}: invalid JSON ({getattr(err, 'msg', err)})") from err
    except UnicodeDecodeError as err:
        raise error(f"{path}: not UTF-8 text ({err.reason})") from err


def _require(record: dict, key: str, kind, where: str):
    if key not in record:
        raise DatasetError(f"{where}: missing field {key!r}")
    value = record[key]
    if kind is int and isinstance(value, bool):
        raise DatasetError(f"{where}: field {key!r} must be {kind.__name__}")
    if not isinstance(value, kind):
        raise DatasetError(f"{where}: field {key!r} must be {kind.__name__}")
    return value


def _parse_event(record, line_no: int) -> Event:
    where = f"line {line_no}"
    if not isinstance(record, dict):
        raise DatasetError(f"{where}: an event must be a JSON object")
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


def parse_events(path) -> Dataset:
    """Parse and validate a JSONL event file into a Dataset."""
    events: dict[str, Event] = {}
    for line_no, record in json_lines(path, DatasetError):
        event = _parse_event(record, line_no)
        if event.event_id in events:
            raise DatasetError(f"duplicate event_id {event.event_id!r}")
        events[event.event_id] = event
    if not events:
        raise DatasetError(f"{path}: no events found")
    labels = {e.label for e in events.values()}
    if len(labels) == 1:
        log.warning("dataset %s contains a single label (%s)", path, labels.pop())
    return Dataset(events=list(events.values()))


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


def split_folds(events: list[Event], k: int, seed: int) -> dict[str, int]:
    """Assign every event to one of k folds, stratified by label: event_id -> fold."""
    gen = RngStreams(seed).shuffle
    assignment: dict[str, int] = {}
    for label in LABELS:
        ids = sorted(e.event_id for e in events if e.label == label)
        if not ids:
            continue
        if len(ids) < k:
            raise DatasetError(
                f"cannot stratify: class {label!r} has {len(ids)} events for k={k}"
            )
        order = gen.permutation(len(ids))
        for slot, idx in enumerate(order):
            assignment[ids[idx]] = slot % k
    return assignment


# -- detection checkpoints ------------------------------------------------------


def visible_posts(event: Event, mode: str, value: float) -> int:
    """How many posts of an event a detection checkpoint keeps: always the first ones.

    elapsed_time keeps the claim and the replies posted no later than ``value``
    seconds after it (replies sort by timestamp); post_count keeps the first
    ``value`` posts, the claim included. Every reply sorts after its parent.
    """
    if mode == "elapsed_time":
        return bisect.bisect_right(event.posts, value, lo=1, key=lambda p: p.timestamp)
    return event.node_count if math.isinf(value) else min(int(value), event.node_count)
