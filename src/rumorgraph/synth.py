"""Synthetic two-domain rumor corpora for desk-scale verification.

Both domains share the same class-conditional generative process: claims
carry class-indicative topic cues, replies carry denial- or support-style
tokens whose polarity follows the class with a configurable probability, and
reply trees grow by random attachment. The domain gap is lexical and one
sided: a configurable fraction of the *cue* vocabulary is swapped for
domain-specific tokens (each event samples one cue from a pool wide enough
that a few-shot fold cannot cover it), while the stance vocabulary is shared
across domains. Cues are therefore a within-domain shortcut that does not
transfer; the reply-pattern channel is the domain-invariant evidence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .dataio import Dataset, Event, Post
from .numcore import INT64_MAX, RngStreams
from .runconfig import dataclass_from_json

INDICATIVE_POOL = 32  # class-indicative cue tokens per class and domain
STANCE_POOL = 12  # denial/support tokens per polarity, shared across domains
# the largest Poisson mean (its POISSON_LAM_MAX) numpy's Generator draws from
POISSON_MEAN_MAX = INT64_MAX - math.sqrt(INT64_MAX) * 10


class SynthSpecError(ValueError):
    """The synthetic-benchmark specification is invalid."""


@dataclass(frozen=True)
class SynthSpec:
    source_events: int = 200
    target_events: int = 100
    class_balance: float = 0.5  # fraction of events labeled rumor
    vocab_size: int = 120  # shared filler vocabulary
    shift_strength: float = 0.6  # fraction of cue tokens that are domain-specific; stance tokens are shared
    mean_replies: float = 6.0
    branching: float = 0.5  # chance a reply attaches below another reply
    structural_signal: float = 0.8  # chance a reply's stance follows the event class
    seed: int = 0

    def __post_init__(self):
        for name in ("class_balance", "shift_strength", "branching", "structural_signal"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SynthSpecError(f"{name} must lie in [0, 1], got {value}")
        if not 1 <= self.vocab_size <= INT64_MAX:
            raise SynthSpecError(f"vocab_size must lie in [1, {INT64_MAX}], got {self.vocab_size}")
        if not 1 <= self.mean_replies <= POISSON_MEAN_MAX:
            raise SynthSpecError(f"mean_replies must lie in [1, {POISSON_MEAN_MAX!r}], got {self.mean_replies!r}")
        if self.seed < 0:
            raise SynthSpecError(f"seed must be >= 0, got {self.seed}")
        for name in ("source_events", "target_events"):
            count = getattr(self, name)
            rumors = int(round(self.class_balance * count))
            if min(rumors, count - rumors) < 2:
                raise SynthSpecError(f"{name}: each class needs >= 2 events")

    @classmethod
    def from_file(cls, path) -> "SynthSpec":
        try:
            with open(path, encoding="utf-8") as fh:
                record = json.load(fh)
        except OSError as err:  # missing or unreadable: as bad a spec as a malformed one
            raise SynthSpecError(str(err)) from err
        except (ValueError, RecursionError) as err:  # malformed, not UTF-8, or nested too deep
            raise SynthSpecError(f"{path}: invalid JSON ({getattr(err, 'msg', err)})") from err
        return dataclass_from_json(cls, record, SynthSpecError)


def _pool(role: str, base: str, size: int, shift: float) -> list[str]:
    """Token pool for one domain: a shared head and a domain-specific tail."""
    shared = size - int(round(shift * size))
    return [
        f"{base}{i}" if i < shared else f"{role}{base}{i}"
        for i in range(size)
    ]


def _generate_event(spec: SynthSpec, role: str, event_id: str, label: str, gen) -> Event:
    rumor = label == "rumor"
    indicative = _pool(role, "rumorcue" if rumor else "newscue", INDICATIVE_POOL, spec.shift_strength)
    deny = _pool("", "deny", STANCE_POOL, 0.0)
    support = _pool("", "agree", STANCE_POOL, 0.0)

    def fillers(count: int) -> list[str]:
        return [f"w{gen.integers(spec.vocab_size)}" for _ in range(count)]

    claim_tokens = [indicative[gen.integers(len(indicative))]] + fillers(3)
    claim = Post(post_id=f"{event_id}-p0", parent_id=None, text=" ".join(claim_tokens), timestamp=0)

    replies: list[Post] = []
    n_replies = max(2, int(gen.poisson(spec.mean_replies)))
    for i in range(1, n_replies + 1):
        if replies and gen.random() < spec.branching:
            parent = replies[int(gen.integers(len(replies)))].post_id
        else:
            parent = claim.post_id
        follows_class = gen.random() < spec.structural_signal
        stance = deny if (rumor == follows_class) else support
        tokens = [stance[gen.integers(len(stance))]] + fillers(2)
        replies.append(
            Post(
                post_id=f"{event_id}-p{i}",
                parent_id=parent,
                text=" ".join(tokens),
                timestamp=60 * i,
            )
        )
    return Event(event_id=event_id, label=label, posts=tuple([claim] + replies))


def _generate_domain(spec: SynthSpec, role: str, count: int, gen) -> Dataset:
    rumors = int(round(spec.class_balance * count))
    labels = ["rumor"] * rumors + ["non-rumor"] * (count - rumors)
    order = gen.permutation(count)
    events = [
        _generate_event(spec, role, f"{role}-{i:04d}", labels[order[i]], gen)
        for i in range(count)
    ]
    return Dataset(events=events)


def generate(spec: SynthSpec) -> tuple[Dataset, Dataset]:
    """Source and target datasets, fully determined by the spec (seed included)."""
    gen = RngStreams(spec.seed).synth
    source = _generate_domain(spec, "source", spec.source_events, gen)
    target = _generate_domain(spec, "target", spec.target_events, gen)
    return source, target
