"""In-memory span tracing of the program's layers, from outside the program.

Nothing in ``src/`` knows about this module: the benchmark wraps the public
functions at each layer boundary (``install`` replaces a module or class
attribute and ``restore`` puts it back) and every call then records a
:class:`Span` with its name, start, end and parent.

Parents come from a :class:`contextvars.ContextVar`.  Each asyncio task
runs in its own copy of the context, so concurrent connections on one
event loop keep separate span stacks, and a thread started by an executor
begins with an empty context, so ``engine.run`` inside the batcher's
executor thread is a root there (a thread-local parent).  Such cross-thread
causes are recorded as a *link* instead: the span that awaited the work
names the span that did it.

A span's self time is its duration minus the part of its interval its
children cover (:func:`self_times`).  The self times of one tree therefore
sum exactly to its root's duration, which :func:`check_accounting` turns
into a check against an independently measured wall time.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_CURRENT: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass
class Span:
    """One timed call: ``start``/``end`` are ``perf_counter`` seconds."""

    id: int
    name: str
    start: float
    parent: Optional[int]
    end: Optional[float] = None
    attrs: dict = field(default_factory=dict)
    #: A span in another thread this one waited for (its virtual child).
    link: Optional[int] = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start


class Tracer:
    """Records spans; ``install`` wraps callables so their calls become spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------- #
    def current(self) -> Optional[Span]:
        return _CURRENT.get()

    def open(self, name: str, root: bool = False, **attrs) -> "Tuple[Span, contextvars.Token]":
        """Start a span under the current one (or as a root) and make it current."""
        parent = None if root else _CURRENT.get()
        span = Span(
            id=next(self._ids),
            name=name,
            start=time.perf_counter(),
            parent=parent.id if parent is not None else None,
            attrs=attrs,
        )
        self.spans.append(span)
        return span, _CURRENT.set(span)

    def close(self, span: Span, token: "contextvars.Token") -> None:
        span.end = time.perf_counter()
        _CURRENT.reset(token)

    def detach(self) -> None:
        """Leave no span current (ends a root opened without a matching close)."""
        _CURRENT.set(None)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """A synchronous wrapper recording one span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, token = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span, token)

        return traced

    # -- patching -------------------------------------------------------- #
    def install(self, owner: object, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` with ``wrapper(original)``; undone by :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------- #
# Self time
# ---------------------------------------------------------------------- #
def covered(interval: Tuple[float, float], parts: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``parts`` clipped to ``interval``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in parts if min(b, hi) > max(a, lo))
    total, run_lo, run_hi = 0.0, None, None
    for a, b in clipped:
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def children_of(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    """Tree children plus linked spans, keyed by parent id."""
    spans = list(spans)
    by_id = {s.id: s for s in spans}
    kids: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            kids.setdefault(s.parent, []).append(s)
        if s.link is not None and s.link in by_id:
            kids.setdefault(s.id, []).append(by_id[s.link])
    return kids


def _own(span: Span, kids: Dict[int, List[Span]]) -> float:
    parts = ((c.start, c.end) for c in kids.get(span.id, ()) if c.end is not None)
    return span.duration - covered((span.start, span.end), parts)


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Each finished span's duration minus the union of its children's intervals."""
    spans = [s for s in spans if s.end is not None]
    kids = children_of(spans)
    return {s.id: _own(s, kids) for s in spans}


def subtree(root: Span, kids: Dict[int, List[Span]]) -> List[Span]:
    """The root and everything under it, following links too (each span once)."""
    out, seen, stack = [], set(), [root]
    while stack:
        span = stack.pop()
        if span.id in seen:
            continue
        seen.add(span.id)
        out.append(span)
        stack.extend(kids.get(span.id, ()))
    return out


def layer_self_times(roots: Iterable[Span], spans: Iterable[Span], rename: Dict[str, str]) -> Dict[str, float]:
    """Sum self time per layer over every root's tree.

    A span shared by several trees (one engine batch serving several
    co-batched requests) counts once per tree: each request waited for it.
    ``rename`` maps span names to layer names; a root's own self time is the
    layer named for the root.
    """
    spans = [s for s in spans if s.end is not None]
    kids = children_of(spans)
    totals: Dict[str, float] = {}
    for root in roots:
        for s in subtree(root, kids):
            layer = rename.get(s.name, s.name)
            totals[layer] = totals.get(layer, 0.0) + _own(s, kids)
    return totals


@dataclass(frozen=True)
class Accounting:
    """How well the layer self times account for the measured wall time."""

    wall: float
    layers_sum: float
    unattributed: float
    tolerance: float

    @property
    def error_frac(self) -> float:
        return abs(self.layers_sum - self.wall) / self.wall if self.wall > 0 else 0.0

    @property
    def unattributed_frac(self) -> float:
        return self.unattributed / self.wall if self.wall > 0 else 0.0

    @property
    def ok(self) -> bool:
        return self.error_frac <= self.tolerance


def check_accounting(layers: Dict[str, float], wall: float, unattributed_layer: str, tolerance: float) -> Accounting:
    """Compare the summed layer self times against an independent wall time."""
    return Accounting(
        wall=wall,
        layers_sum=sum(layers.values()),
        unattributed=layers.get(unattributed_layer, 0.0),
        tolerance=tolerance,
    )
