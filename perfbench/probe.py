"""In-memory spans around the public functions of rumorgraph's modules.

A probe replaces a function object with a timing wrapper under every name
that refers to it in the loaded ``rumorgraph`` modules (``trainer.encode_batch``,
``augment.encode_batch`` and ``model.encode_batch`` are one function bound
under three names), and on the classes that own the traced methods. Leaving
the ``with`` block puts every original object back.

Spans record a name, the index of the enclosing span, and start and end
times from ``time.perf_counter``. They stay in memory until the run ends.
A span's self time is its duration minus the durations of its direct
children; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "rumorgraph"

# Layers traced in a full run, each a module of the package.
LAYER_MODULES = {
    "dataio": "rumorgraph.dataio",
    "embed": "rumorgraph.embed",
    "propagation": "rumorgraph.propagation",
    "model": "rumorgraph.model",
    "numcore": "rumorgraph.numcore",
    "objectives": "rumorgraph.objectives",
    "augment": "rumorgraph.augment",
    "trainer": "rumorgraph.trainer",
    "evalkit": "rumorgraph.evalkit",
}

# Public methods traced alongside the module functions: (layer, class, method).
TRACED_METHODS = (
    ("numcore", "rumorgraph.numcore.tensor.Tensor", "backward"),
    ("model", "rumorgraph.model.GraphBatch", "from_events"),
)

# Accessors and per-token helpers. They run in about a microsecond, are called
# from inside traced functions, and their time shows in their callers' self time.
UNTRACED = frozenset(
    {
        "numcore.as_tensor",
        "numcore.active_dtype",
        "numcore.fnv1a64",
        "embed.tokenize",
        "embed.hashed_embed",
    }
)


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at the top
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Target:
    """One function to wrap, with an optional observer of its calls.

    ``observe(args, kwargs, result, seconds, counters)`` adds to ``counters``,
    the per-name dict of counts kept beside the spans.
    """

    name: str
    owner: object  # module or class that defines the function
    attr: str
    observe: Callable | None = None


@dataclass
class Probe:
    targets: list[Target]
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, dict[str, float]] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, target: Target, original: Callable) -> Callable:
        spans, stack, name, observe = self.spans, self._stack, target.name, target.observe
        counters = self.counters.setdefault(name, {})

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, time.perf_counter())
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result, span.end - span.start, counters)
            return result

        return wrapper

    def __enter__(self) -> "Probe":
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        try:
            for target in self.targets:
                raw = inspect.getattr_static(target.owner, target.attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(target, raw.__func__))
                    self._patch(target.owner, target.attr, wrapped)
                    continue
                wrapper = self._wrap(target, raw)
                if inspect.isclass(target.owner):
                    self._patch(target.owner, target.attr, wrapper)
                    continue
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += span.duration
        row["self_s"] += own
    return table


def resolve(dotted: str):
    """A loaded module, or an attribute of one, by dotted name."""
    if dotted in sys.modules:
        return sys.modules[dotted]
    module_name, _, attr = dotted.rpartition(".")
    return getattr(sys.modules[module_name], attr)


def public_functions(layer: str, module_name: str) -> list[Target]:
    """Functions a layer's module defines or re-exports from its own package."""
    module = sys.modules[module_name]
    targets = []
    for attr, value in sorted(vars(module).items()):
        if attr.startswith("_") or not inspect.isfunction(value):
            continue
        if not value.__module__.startswith(module_name):
            continue
        name = f"{layer}.{attr}"
        if name not in UNTRACED:
            targets.append(Target(name, module, attr))
    return targets


def full_targets(observers: dict[str, Callable]) -> list[Target]:
    """Every traced function and method, with the observers named in ``observers``."""
    targets = []
    for layer, module_name in LAYER_MODULES.items():
        targets.extend(public_functions(layer, module_name))
    for layer, owner, attr in TRACED_METHODS:
        targets.append(Target(f"{layer}.{attr}", resolve(owner), attr))
    for target in targets:
        target.observe = observers.get(target.name)
    return targets
