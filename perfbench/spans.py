"""Span recording from outside the program: wrappers at layer boundaries.

A :class:`Tracer` keeps spans in memory (name, start, end, parent,
run or job id) and counters; :func:`install` replaces functions at the
name their caller looks them up by with timing (or counting) wrappers
and returns a function that puts the originals back.  Nothing in
``src/`` is edited: the benchmark reaches every layer through the
attributes the program already resolves at call time.

Spans nest per thread.  They also link across threads: an
``ADOPTED`` span that starts on a thread with no open span is parented
to the innermost open ``ANCHOR`` span, so a fleet worker's
``tuner.tune`` spans nest under the ``compiler.tune`` that started them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (span id, name, start, end, parent id or 0, context id)
Span = Tuple[int, str, float, float, int, str]

#: cross-thread parenting: a thread's first ADOPTED span nests under
#: the innermost open ANCHOR span
ADOPTED, ANCHOR = "tuner.tune", "compiler.tune"


class Tracer:
    """In-memory span and counter sink shared by every wrapper."""

    def __init__(self, context: Callable[[], Optional[str]] = lambda: None):
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.totals: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._context = context
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_anchors: List[int] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: float) -> None:
        """Add ``value`` to the running total ``key`` (thread-safe)."""
        with self._lock:
            self.totals[key] += value

    def timed(self, name: str, fn: Callable,
              note: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so every call records one span named ``name``.

        ``note(args, kwargs, result)`` runs after the call, outside the
        span, to update counters from the call's arguments or result.
        """

        adopted = name == ADOPTED
        anchor = name == ANCHOR
        anchors = self._open_anchors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = anchors[-1] if adopted and anchors else 0
            span_id = next(self._ids)
            stack.append(span_id)
            if anchor:
                anchors.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if anchor:
                    anchors.remove(span_id)
                self.spans.append(
                    (span_id, name, start, end, parent, self._context() or "")
                )
            if note is not None:
                note(args, kwargs, result)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap a hot inner call so it is counted, never timed."""
        counts, lock = self.counts, self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write_jsonl(self, path: str) -> None:
        """Write every span, then one counters line, as JSONL."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, ctx in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start,
                    "end": end, "parent": parent, "ctx": ctx,
                }) + "\n")
            fh.write(json.dumps({
                "counts": dict(self.counts), "totals": dict(self.totals),
            }) + "\n")


def read_jsonl(path: str) -> Tuple[List[Span], Counter, Dict[str, float]]:
    """Load what :meth:`Tracer.write_jsonl` wrote."""
    spans: List[Span] = []
    counts: Counter = Counter()
    totals: Dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if "counts" in row:
                counts.update(row["counts"])
                totals = row["totals"]
            else:
                spans.append((row["id"], row["name"], row["start"],
                              row["end"], row["parent"], row["ctx"]))
    return spans, counts, totals


def _resolve(target: str) -> Tuple[object, str]:
    """``"pkg.mod:Name.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


#: one patch: (target, span or counter name, mode, note).  Mode "time"
#: records a span (``note`` as in :meth:`Tracer.timed`), "count" only
#: counts, and "wrap" applies ``note(original)`` as the wrapper itself.
Patch = Tuple[str, str, str, Optional[Callable]]


def install(tracer: Tracer, patches: Sequence[Patch]) -> Callable[[], None]:
    """Install every patch; returns the function that undoes them all."""
    originals = []
    for target, name, mode, note in patches:
        owner, attr = _resolve(target)
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        if mode == "time":
            wrapped = tracer.timed(name, raw, note)
        elif mode == "count":
            wrapped = tracer.counted(name, raw)
        else:
            wrapped = note(raw)
        setattr(owner, attr, wrapped)
        originals.append((owner, attr, raw))

    def restore() -> None:
        for owner, attr, raw in reversed(originals):
            setattr(owner, attr, raw)

    return restore


# ----------------------------------------------------------------------
# span arithmetic


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def busy(spans: Sequence[Span], name: str) -> float:
    """Seconds covered by outermost ``name`` spans (nested reentry and
    concurrent threads both count once per thread-second)."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for span_id, span_name, start, end, parent, _ in spans:
        if span_name != name:
            continue
        ancestor = by_id.get(parent)
        nested = False
        while ancestor is not None:
            if ancestor[1] == name:
                nested = True
                break
            ancestor = by_id.get(ancestor[4])
        if not nested:
            total += end - start
    return total


def calls(spans: Sequence[Span], name: str) -> int:
    """How many spans carry ``name``."""
    return sum(1 for s in spans if s[1] == name)


def outside(spans: Sequence[Span], name: str, excluded: str) -> float:
    """Busy seconds of ``name`` spans with no ``excluded`` ancestor."""
    by_id = {s[0]: s for s in spans}
    kept = []
    for span in spans:
        if span[1] != name:
            continue
        ancestor = by_id.get(span[4])
        while ancestor is not None and ancestor[1] != excluded:
            ancestor = by_id.get(ancestor[4])
        if ancestor is None:
            kept.append(span)
    return busy(kept, name)


def self_time(spans: Sequence[Span], name: str) -> float:
    """Duration of ``name`` spans minus the union of their children."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        children[span[4]].append((span[2], span[3]))
    total = 0.0
    for span_id, span_name, start, end, _, _ in spans:
        if span_name == name:
            total += (end - start) - _union_length(children[span_id])
    return total
