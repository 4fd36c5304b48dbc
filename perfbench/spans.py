"""Spans around the program's layer entry points, kept in memory.

The traced run wraps the entry points each layer exposes, the way a
profiler's probe would: class methods (looked up on the class at call time)
and the module globals that :mod:`repro.serving.server` resolves at call
time.  A function that a module imported by name is not intercepted by
patching its home module, so every hook below names the namespace the
*caller* resolves it in.  Nothing under ``src/`` changes; with the hooks
uninstalled the program runs exactly as shipped.

A span is ``(name, thread ident, start, end)`` on the ``perf_counter``
clock.  :func:`attribute` turns the spans into wall time per span name:
each instant goes to the innermost open span of each thread, and when
several threads are inside spans at once they share the instant equally,
so the attributed times add up to the wall time the spans cover — no
instant is counted twice on a two-core, GIL-bound process.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

Span = Tuple[str, int, float, float]

#: The root span the benchmark opens around each op.  Its self time is the
#: time no layer hook covered: benchmark glue plus unwrapped program code.
OP_SPAN = "bench.op"

#: Hooks: (module, class or ``None`` for a module global, attribute, span).
#: ``serving.batch`` covers ``serve_batch`` on the calling thread and
#: ``serve_one`` on each pool worker, so the serving layer's own work
#: (dedup, pool, admission, memo, result bookkeeping) lands in one name.
HOOKS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.serving.server", "SnapshotServer", "serve_batch", "serving.batch"),
    ("repro.serving.server", "SnapshotServer", "serve_one", "serving.batch"),
    ("repro.serving.server", "SnapshotServer", "_current_context", "serving.epoch_warm"),
    ("repro.serving.server", None, "execute_request", "serving.execute"),
    ("repro.serving.server", None, "compute_top_k", "core.top_k"),
    ("repro.serving.server", None, "count_valid_packages", "core.count"),
    ("repro.serving.server", None, "is_top_k_selection", "core.check"),
    ("repro.serving.server", None, "selection_from_items", "core.check"),
    ("repro.core.oracle", "ExistPackOracle", "__call__", "core.exists"),
    ("repro.core.compatibility", "CompatibilityOracle", "is_satisfied", "core.qc_probe"),
    ("repro.queries.sp", "SPQuery", "evaluate", "queries.evaluate"),
    ("repro.queries.cq", "ConjunctiveQuery", "evaluate", "queries.evaluate"),
    ("repro.relational.database", "Database", "snapshot", "relational.snapshot"),
    ("repro.relational.database", "Database", "_apply_validated", "relational.commit"),
    ("repro.incremental.views", None, "apply_maintained", "incremental.maintain"),
    ("repro.incremental.views", "MaintainedQuery", "on_modification", "incremental.maintain"),
    ("repro.durability.wal", "WriteAheadLog", "append", "wal.append"),
    ("repro.durability.wal", "WriteAheadLog", "sync", "wal.sync"),
    ("repro.durability.checkpoint", None, "write_checkpoint", "checkpoint.write"),
)

#: Spans whose thread is blocked on other threads' spans (``serve_batch``
#: waits in ``pool.map``): they own an instant only while no other thread
#: is inside a span.
WAITING_SPANS: FrozenSet[str] = frozenset({"serving.batch"})


class SpanRecorder:
    """Spans of one traced phase, in memory until :meth:`write_chrome_trace`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, threading.get_ident(), start, end))

    def write_chrome_trace(self, path: Path) -> None:
        """The spans as Chrome trace-event JSON, one track per thread."""
        if not self.spans:
            return
        origin = min(span[2] for span in self.spans)
        threads: Dict[int, int] = {}
        events = []
        for name, ident, start, end in self.spans:
            tid = threads.setdefault(ident, len(threads) + 1)
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "ts": round((start - origin) * 1e6, 3),
                    "dur": round((end - start) * 1e6, 3),
                }
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def _wrap(function, name: str, recorder: SpanRecorder):
    spans = recorder.spans
    clock = time.perf_counter
    ident = threading.get_ident

    @functools.wraps(function)
    def traced(*args, **kwargs):
        start = clock()
        try:
            return function(*args, **kwargs)
        finally:
            spans.append((name, ident(), start, clock()))

    return traced


def resolve(hook: Tuple[str, Optional[str], str, str]) -> Tuple[object, Callable]:
    """The namespace a hook patches and the function it wraps.

    Raises :class:`LookupError` when the target is gone: a renamed or
    inlined entry point would otherwise drop its span to zero and move its
    time silently into the caller's self time.
    """
    module_name, class_name, attribute, _ = hook
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name, None)
    original = vars(owner).get(attribute) if owner is not None else None
    if not callable(original):
        target = ".".join(part for part in (module_name, class_name, attribute) if part)
        raise LookupError(f"trace hook target {target} does not exist; update perfbench.spans.HOOKS")
    return owner, original


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every hook for the block; the originals are restored on exit."""
    targets = [(*resolve(hook), hook[2], hook[3]) for hook in HOOKS]
    restore = []
    try:
        for owner, original, attribute, name in targets:
            setattr(owner, attribute, _wrap(original, name, recorder))
            restore.append((owner, attribute, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)


def _leaf_segments(spans: Iterable[Tuple[float, float, str]]) -> List[Tuple[float, float, str]]:
    """One thread's properly nested spans → ``(start, end, innermost name)``."""
    ordered = sorted(spans, key=lambda span: (span[0], -span[1]))
    segments: List[Tuple[float, float, str]] = []
    stack: List[Tuple[float, str]] = []
    cursor = 0.0
    for start, end, name in ordered:
        while stack and stack[-1][0] <= start:
            top_end, top_name = stack.pop()
            segments.append((cursor, top_end, top_name))
            cursor = top_end
        if stack:
            segments.append((cursor, start, stack[-1][1]))
        stack.append((end, name))
        cursor = start
    while stack:
        top_end, top_name = stack.pop()
        segments.append((cursor, top_end, top_name))
        cursor = top_end
    return [segment for segment in segments if segment[1] > segment[0]]


def attribute(
    spans: Iterable[Span], waiting: FrozenSet[str] = WAITING_SPANS
) -> Dict[str, float]:
    """Wall seconds per span name; see the module docstring for the rule."""
    per_thread: Dict[int, List[Tuple[float, float, str]]] = defaultdict(list)
    for name, ident, start, end in spans:
        per_thread[ident].append((start, end, name))
    timelines = [_leaf_segments(items) for items in per_thread.values()]
    totals: Dict[str, float] = defaultdict(float)
    if len(timelines) == 1:
        for start, end, name in timelines[0]:
            totals[name] += end - start
        return dict(totals)
    # Sweep every thread's segments together.  Ends sort before starts at
    # one instant, so a thread moving from one segment to the next never
    # looks like two open segments.
    events = []
    for thread, segments in enumerate(timelines):
        for start, end, name in segments:
            events.append((start, 1, thread, name))
            events.append((end, 0, thread, name))
    events.sort(key=lambda event: (event[0], event[1]))
    active: Dict[int, str] = {}
    previous = None
    for when, is_start, thread, name in events:
        if previous is not None and when > previous and active:
            owners = [n for n in active.values() if n not in waiting] or list(active.values())
            share = (when - previous) / len(owners)
            for owner in owners:
                totals[owner] += share
        previous = when
        if is_start:
            active[thread] = name
        else:
            active.pop(thread, None)
    return dict(totals)
