"""The thread-safe metrics registry: named counters, gauges and histograms.

The runtime makes decisions the operator cannot see — the planner picks
access paths, the plan cache and the compatibility oracle hit or miss, the
resilience layer sheds and retries.  This module gives every such decision a
*named instrument*: the layers increment counters, set gauges and observe
histogram samples against one :class:`MetricsRegistry`, and the registry
renders the totals as a frozen snapshot, a JSON document or a
Prometheus-style text exposition.

Per the knob contract, metrics off is bit-identical and near-free: the
active registry is one module global (:data:`_ACTIVE`), installed by
:func:`use_metrics` for a ``with`` block, and every instrumented code path
guards itself with the same ``_ACTIVE is None`` inline test
:mod:`repro.resilience.faults` pioneered — off, an instrumented path costs
one module-attribute load.  Hot loops additionally batch their increments
into local integers and flush once through :meth:`MetricsRegistry.inc_many`,
so even the *enabled* path takes the registry lock a constant number of
times per evaluation, not per row.

**Naming scheme** (enforced at registration, checked again by
``benchmarks/conftest.py``): instrument names are dotted paths of
lower-snake segments — ``layer.noun.verb`` or ``layer.noun_unit`` —
matching :data:`INSTRUMENT_NAME_PATTERN`, e.g. ``plan.cache.hits`` or
``serving.queue_wait_s``.  Histograms carry a unit suffix (``_s`` for
seconds).  Counters may split one total across *labels* (``serving.errors``
by error code); the snapshot renders a labelled count as
``name{label="value"}`` next to the family total.

Every instrument ships registered at import time via the ``register_*``
helpers below (idempotent for an identical spec, loud on a conflicting
redefinition), so a typo'd name fails at the instrumentation site instead of
silently accumulating into a parallel universe.
"""

from __future__ import annotations

import json
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

#: The documented naming scheme: dotted lower-snake segments, two or more.
INSTRUMENT_NAME_PATTERN = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

#: Default histogram bucket upper bounds (seconds): roughly powers of four
#: from 100µs to ~1.6s, bounded — the registry never grows a bucket list.
DEFAULT_TIME_BUCKETS = (0.0001, 0.0004, 0.0016, 0.0064, 0.0256, 0.1024, 0.4096, 1.6384)

_COUNTER = "counter"
_GAUGE = "gauge"
_HISTOGRAM = "histogram"


@dataclass(frozen=True)
class Instrument:
    """One registered instrument: its kind, help text and (histogram) buckets.

    ``label_key`` names the dimension a labelled counter splits its total
    across (``code`` for typed errors, ``point`` for fault points).
    """

    name: str
    kind: str
    help: str
    buckets: Tuple[float, ...] = ()
    label_key: str = "code"


#: The process-wide instrument registry, populated at import time by the
#: instrumented modules.  ``benchmarks/conftest.py`` validates every name
#: against :data:`INSTRUMENT_NAME_PATTERN` and checks uniqueness.
INSTRUMENTS: Dict[str, Instrument] = {}


def _register(
    name: str,
    kind: str,
    help: str,
    buckets: Tuple[float, ...] = (),
    label_key: str = "code",
) -> str:
    if not INSTRUMENT_NAME_PATTERN.match(name):
        raise ValueError(
            f"instrument name {name!r} violates the naming scheme "
            f"{INSTRUMENT_NAME_PATTERN.pattern!r}"
        )
    spec = Instrument(name, kind, help, buckets, label_key)
    existing = INSTRUMENTS.get(name)
    if existing is not None and existing != spec:
        raise ValueError(f"instrument {name!r} already registered as {existing}")
    INSTRUMENTS[name] = spec
    return name


def register_counter(name: str, help: str, label_key: str = "code") -> str:
    """Register a monotonically increasing counter; returns the name."""
    return _register(name, _COUNTER, help, label_key=label_key)


def register_gauge(name: str, help: str) -> str:
    """Register a point-in-time gauge; returns the name."""
    return _register(name, _GAUGE, help)


def register_histogram(
    name: str, help: str, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS
) -> str:
    """Register a bounded-bucket histogram; returns the name.

    ``buckets`` are the ascending upper bounds; an implicit +inf bucket
    catches the overflow, so the per-registry state is a fixed-size array —
    observing can never allocate proportionally to the data.
    """
    bounds = tuple(sorted(float(b) for b in buckets))
    if not bounds:
        raise ValueError("a histogram needs at least one bucket bound")
    return _register(name, _HISTOGRAM, help, bounds)


@dataclass(frozen=True)
class HistogramSnapshot:
    """A frozen view of one histogram: per-bucket counts plus summary stats.

    ``buckets`` pairs each registered upper bound (the final entry is
    ``inf``) with the count of samples ≤ that bound (non-cumulative).
    """

    buckets: Tuple[Tuple[float, int], ...]
    count: int
    sum: float
    min: Optional[float]
    max: Optional[float]

    def to_dict(self) -> Dict[str, object]:
        return {
            "buckets": [[bound, count] for bound, count in self.buckets],
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


class _Histogram:
    __slots__ = ("bounds", "counts", "count", "total", "low", "high")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # + the implicit +inf bucket
        self.count = 0
        self.total = 0.0
        self.low: Optional[float] = None
        self.high: Optional[float] = None

    def observe(self, value: float) -> None:
        index = 0
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                break
        else:
            index = len(self.bounds)
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if self.low is None or value < self.low:
            self.low = value
        if self.high is None or value > self.high:
            self.high = value

    def snapshot(self) -> HistogramSnapshot:
        bounds = self.bounds + (float("inf"),)
        return HistogramSnapshot(
            tuple(zip(bounds, tuple(self.counts))),
            self.count,
            self.total,
            self.low,
            self.high,
        )


class MetricsRegistry:
    """Thread-safe totals for every registered instrument.

    Counter writes are **lock-free**: each writer thread accumulates into its
    own private cell (a per-thread dict registered with the registry on first
    touch), so the hot instrumented paths never contend — under CPython's
    GIL a read-modify-write on a dict only *this* thread writes can never
    lose an update.  Readers aggregate across the cells, so totals are exact
    whenever the writers are quiescent (joined, or between requests).
    Gauges and histograms are written under the registry lock — they are
    per-request, not per-row, so the lock is off the hot path.  Instruments
    are validated against :data:`INSTRUMENTS` on first touch, so a typo'd
    name raises at the instrumentation site rather than minting a shadow
    series.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Every thread's counter cell.  Keys are ``str`` names for family
        #: totals and ``(name, label)`` pairs for labelled children.
        self._cells: List[Dict[object, int]] = []
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, _Histogram] = {}

    # -- write side ---------------------------------------------------------
    @staticmethod
    def _spec(name: str, kind: str) -> Instrument:
        spec = INSTRUMENTS.get(name)
        if spec is None:
            raise KeyError(f"unregistered instrument: {name!r}")
        if spec.kind != kind:
            raise TypeError(f"instrument {name!r} is a {spec.kind}, not a {kind}")
        return spec

    def _cell(self) -> Dict[object, int]:
        cell = getattr(self._local, "cell", None)
        if cell is None:
            cell = self._local.cell = {}
            with self._lock:
                self._cells.append(cell)
        return cell

    def inc(self, name: str, amount: int = 1, label: Optional[str] = None) -> None:
        """Add ``amount`` to a counter (optionally to one labelled child)."""
        self._spec(name, _COUNTER)
        cell = self._cell()
        cell[name] = cell.get(name, 0) + amount
        if label is not None:
            key = (name, label)
            cell[key] = cell.get(key, 0) + amount

    def inc_many(self, increments: Iterable[Tuple[str, int]]) -> None:
        """Batched :meth:`inc`; zero amounts are skipped (never touched)."""
        pairs = [(name, amount) for name, amount in increments if amount]
        for name, _ in pairs:
            self._spec(name, _COUNTER)
        if not pairs:
            return
        cell = self._cell()
        for name, amount in pairs:
            cell[name] = cell.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge to its current value."""
        self._spec(name, _GAUGE)
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one histogram sample."""
        spec = self._spec(name, _HISTOGRAM)
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = _Histogram(spec.buckets)
            histogram.observe(value)

    # -- read side ----------------------------------------------------------
    def _aggregate(self) -> Tuple[Dict[str, int], Dict[str, Dict[str, int]]]:
        """Sum every thread's cell into (family totals, labelled children).

        Called under :attr:`_lock` (which guards the cell list).  Each cell is
        copied before iteration — a C-level dict copy is atomic under the GIL,
        so a still-running writer can make the copy *stale*, never torn.
        """
        totals: Dict[str, int] = {}
        labelled: Dict[str, Dict[str, int]] = {}
        for cell in self._cells:
            for key, amount in dict(cell).items():
                if isinstance(key, str):
                    totals[key] = totals.get(key, 0) + amount
                else:
                    name, label = key
                    children = labelled.setdefault(name, {})
                    children[label] = children.get(label, 0) + amount
        return totals, labelled

    def counter(self, name: str, label: Optional[str] = None) -> int:
        """The current value of a counter (or of one labelled child)."""
        self._spec(name, _COUNTER)
        with self._lock:
            totals, labelled = self._aggregate()
        if label is None:
            return totals.get(name, 0)
        return labelled.get(name, {}).get(label, 0)

    def labelled_counts(self, name: str) -> Dict[str, int]:
        """The per-label breakdown of a labelled counter (may be empty)."""
        self._spec(name, _COUNTER)
        with self._lock:
            _, labelled = self._aggregate()
        return dict(labelled.get(name, {}))

    def snapshot(self) -> Mapping[str, object]:
        """A frozen, point-in-time view of every touched instrument.

        Returns an immutable mapping (a :class:`~types.MappingProxyType`)
        from instrument name to value: ``int`` for counters (labelled
        children appear as ``name{label="value"}`` entries next to the
        family total), ``float`` for gauges, :class:`HistogramSnapshot` for
        histograms.  Keys are sorted, so renderings are deterministic.
        """
        with self._lock:
            totals, labelled = self._aggregate()
            entries: Dict[str, object] = {}
            for name, value in totals.items():
                entries[name] = value
                label_key = INSTRUMENTS[name].label_key
                for label, count in labelled.get(name, {}).items():
                    entries[f'{name}{{{label_key}="{label}"}}'] = count
            entries.update(self._gauges)
            for name, histogram in self._histograms.items():
                entries[name] = histogram.snapshot()
            return MappingProxyType(dict(sorted(entries.items())))

    def to_json(self, indent: Optional[int] = None) -> str:
        """The snapshot as a JSON document (histograms expand to objects)."""
        payload = {
            name: value.to_dict() if isinstance(value, HistogramSnapshot) else value
            for name, value in self.snapshot().items()
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    def render_prometheus(self) -> str:
        """A Prometheus-style text exposition of every touched instrument.

        One ``# HELP`` / ``# TYPE`` header per family; counters render their
        labelled children, histograms render cumulative ``_bucket`` series
        plus ``_sum`` and ``_count``.  Dots in instrument names become
        underscores, per the Prometheus character set.
        """
        lines: List[str] = []
        with self._lock:
            counters, labelled = self._aggregate()
            gauges = dict(self._gauges)
            histograms = {name: h.snapshot() for name, h in self._histograms.items()}
        for name in sorted(counters):
            flat = name.replace(".", "_")
            spec = INSTRUMENTS[name]
            lines.append(f"# HELP {flat} {spec.help}")
            lines.append(f"# TYPE {flat} counter")
            lines.append(f"{flat} {counters[name]}")
            label_key = spec.label_key
            for label in sorted(labelled.get(name, {})):
                lines.append(f'{flat}{{{label_key}="{label}"}} {labelled[name][label]}')
        for name in sorted(gauges):
            flat = name.replace(".", "_")
            spec = INSTRUMENTS[name]
            lines.append(f"# HELP {flat} {spec.help}")
            lines.append(f"# TYPE {flat} gauge")
            lines.append(f"{flat} {gauges[name]}")
        for name in sorted(histograms):
            flat = name.replace(".", "_")
            spec = INSTRUMENTS[name]
            snap = histograms[name]
            lines.append(f"# HELP {flat} {spec.help}")
            lines.append(f"# TYPE {flat} histogram")
            cumulative = 0
            for bound, count in snap.buckets:
                cumulative += count
                le = "+Inf" if bound == float("inf") else f"{bound:g}"
                lines.append(f'{flat}_bucket{{le="{le}"}} {cumulative}')
            lines.append(f"{flat}_sum {snap.sum:g}")
            lines.append(f"{flat}_count {snap.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render_table(self) -> str:
        """A human-oriented summary table (the ``repro serve --metrics`` view)."""
        rows: List[Tuple[str, str]] = []
        for name, value in self.snapshot().items():
            if isinstance(value, HistogramSnapshot):
                mean = value.sum / value.count if value.count else 0.0
                rows.append(
                    (
                        name,
                        f"count={value.count} mean={mean:.6f} "
                        f"min={value.min if value.min is not None else 0:.6f} "
                        f"max={value.max if value.max is not None else 0:.6f}",
                    )
                )
            elif isinstance(value, float):
                rows.append((name, f"{value:g}"))
            else:
                rows.append((name, str(value)))
        if not rows:
            return "(no samples)"
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


#: The currently active registry, or ``None``.  Instrumented hot paths test
#: this directly (``if metrics._ACTIVE is not None: ...``) so that metrics
#: off costs a single module-attribute load — the exact idiom
#: :data:`repro.resilience.faults._ACTIVE` uses.
_ACTIVE: Optional[MetricsRegistry] = None


def active_registry() -> Optional[MetricsRegistry]:
    """The registry installed by the innermost :func:`use_metrics`, if any."""
    return _ACTIVE


@contextmanager
def use_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Install ``registry`` as the process-wide active registry for the block.

    Like :func:`repro.resilience.faults.chaos`, the scope is global — the
    instrumented points are reached from arbitrary worker threads — and does
    not nest: two overlapping registries would silently split one workload's
    totals.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("use_metrics() scopes do not nest")
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = None


# ---------------------------------------------------------------------------
# The instrument roster.  Registered here, in one place, so the naming-scheme
# check in benchmarks/conftest.py sees the complete set after one import and
# the instrumented modules refer to names that provably exist.
# ---------------------------------------------------------------------------
PLAN_CACHE_HITS = register_counter("plan.cache.hits", "join-plan cache hits")
PLAN_CACHE_MISSES = register_counter("plan.cache.misses", "join-plan cache misses (compilations)")

ORACLE_HITS = register_counter("oracle.verdict.hits", "compatibility verdicts served from cache")
ORACLE_MISSES = register_counter("oracle.verdict.misses", "compatibility verdicts probed")
ORACLE_RETENTIONS = register_counter(
    "oracle.verdict.retentions", "verdict caches retained across a non-footprint delta"
)
ORACLE_INVALIDATIONS = register_counter(
    "oracle.verdict.invalidations", "verdict caches cleared by a footprint delta"
)
ORACLE_WITNESS_BUILDS = register_counter(
    "oracle.witness.builds", "Qc witness-set indexes built (one join per disjunct)"
)
ORACLE_WITNESS_CARRIES = register_counter(
    "oracle.witness.carries",
    "Qc witness-set indexes carried from the previous epoch's by the Q(D) row diff",
)
ORACLE_WITNESS_VERDICTS = register_counter(
    "oracle.witness.verdicts", "compatibility verdicts served from a witness-set index"
)
ORACLE_WITNESS_DECLINES = register_counter(
    "oracle.witness.declines", "query-constraint verdicts the witness path left to the probe"
)

EXECUTOR_ROWS_SCANNED = register_counter(
    "executor.rows.scanned", "candidate rows surfaced by scan/range/reduced steps"
)
EXECUTOR_ROWS_PROBED = register_counter(
    "executor.rows.probed", "candidate rows surfaced by hash-probe and trie steps"
)
EXECUTOR_STEPS = register_counter("executor.steps", "evaluator search nodes entered")

ENGINE_NODES_EXAMINED = register_counter(
    "engine.nodes.examined", "package-lattice nodes examined by the search engine"
)
ENGINE_NODES_PRUNED = register_counter(
    "engine.nodes.pruned", "package-lattice subtree prunes (cost, compatibility, bound)"
)

DATABASE_COMMITS = register_counter(
    "database.commits", "effective delta commits (epoch advances)"
)
DATABASE_COW_CLONES = register_counter(
    "database.cow_clones", "relations cloned copy-on-write for a live snapshot"
)
DATABASE_SNAPSHOTS_PINNED = register_counter(
    "database.snapshots_pinned", "database snapshots pinned"
)

SERVING_REQUESTS = register_counter("serving.requests", "requests served (all outcomes)")
SERVING_RETRIES = register_counter("serving.retries", "request re-executions after retryable errors")
SERVING_SHEDS = register_counter("serving.sheds", "requests shed by bounded admission")
SERVING_ERRORS = register_counter(
    "serving.errors", "error results by typed code (labelled per code)"
)
SERVING_MEMO_HITS = register_counter(
    "serving.memo.hits", "requests answered from their epoch's answer memo"
)
SERVING_MEMO_EVICTIONS = register_counter(
    "serving.memo.evictions", "answers evicted from a full epoch answer memo (LRU)"
)
SERVING_INFLIGHT = register_gauge(
    "serving.inflight", "concurrently admitted requests (last observed)"
)
SERVING_QUEUE_WAIT_S = register_histogram(
    "serving.queue_wait_s", "seconds between batch submission and worker pickup"
)
SERVING_LATENCY_S = register_histogram(
    "serving.latency_s", "end-to-end request latency in seconds"
)

RESILIENCE_FAULTS_INJECTED = register_counter(
    "resilience.faults.injected",
    "faults fired by the active chaos plan",
    label_key="point",
)
RESILIENCE_DEADLINE_TIMEOUTS = register_counter(
    "resilience.deadline.timeouts", "deadline checks that raised a request timeout"
)

WAL_RECORDS_APPENDED = register_counter(
    "wal.records.appended", "delta records appended to the write-ahead log"
)
WAL_BYTES_APPENDED = register_counter(
    "wal.bytes.appended", "framed bytes appended to the write-ahead log"
)
WAL_FSYNCS = register_counter("wal.fsyncs", "fsync calls issued by the write-ahead log")
WAL_GROUP_COMMIT_BATCH_SIZE = register_histogram(
    "wal.group_commit.batch_size",
    "records made durable per fsync (group-commit batching factor)",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128),
)
CHECKPOINT_WRITTEN = register_counter(
    "checkpoint.written", "durable database images written"
)
RECOVERY_RECORDS_REPLAYED = register_counter(
    "recovery.records.replayed", "WAL tail records replayed by crash recovery"
)

COLUMNAR_BUILDS = register_counter(
    "columnar.builds", "columnar encodings built from the tuple set"
)
COLUMNAR_DECLINES = register_counter(
    "columnar.declines", "columnar builds that declined on unencodable values"
)
COLUMNAR_KERNEL_SELECTS = register_counter(
    "columnar.kernel.selects", "vectorized selection kernels executed"
)
COLUMNAR_ROWS_SELECTED = register_counter(
    "columnar.rows.selected", "rows surfaced by vectorized selection kernels"
)
