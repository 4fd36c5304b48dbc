"""Run one workload: repeated set-up, the timed loop, the traced phase.

Untraced (``--trace 0``) the harness sets the workload up at least
:data:`SETUP_REPEATS` times and for at least :data:`SETUP_MIN_S` seconds
(``setup_s`` is the median set-up; the last one is kept), runs ops in a
closed loop for the requested seconds, reads the peak resident set, then
runs the workload's untimed checks and finish.  Calibration samples
(:mod:`perfbench.calibration`) are taken before every set-up and about
every :data:`SAMPLE_EVERY_S` seconds of the loop, between ops; every
time and rate is scaled by the host speed they measured.  The end-to-end
metrics are :data:`END_TO_END`.

Traced (``--trace 1``) it runs repetitions of a fixed op sequence — the
first :attr:`Workload.trace_ops` ops of the seed's stream, from a fresh
set-up — once untraced and once with the layer hooks and the metrics
registry installed, alternating which goes first, while time remains.
Counts from one fixed sequence repeat exactly on the single-threaded
workloads, except the plan-cache counts (that cache is process-wide and
bounded); times are medians over the traced repetitions.  The
per-layer metrics are :data:`PER_LAYER`.
"""

from __future__ import annotations

import bisect
import gc
import resource
import statistics
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro.observability import MetricsRegistry, use_metrics
from repro.observability.summary import percentile_summary

from perfbench.calibration import HostSpeed
from perfbench.spans import OP_SPAN, SpanRecorder, attribute, installed
from perfbench.workloads import Workload

#: A run sets the workload up at least this many times, and until this
#: many seconds have passed; ``setup_s`` is the median.  A short set-up is
#: mostly warm-up ops, whose speed drifts over seconds on a shared host, so
#: its median needs a window of some seconds to be steady.
SETUP_REPEATS = 3
SETUP_MIN_S = 4.0
#: The timed loop is cut into this many consecutive blocks of ops; rates
#: are the median over blocks, so one stalled stretch moves them little.
BLOCKS = 10
#: Seconds of the timed loop between two calibration samples.
SAMPLE_EVERY_S = 1.0
#: The share of traced op time that may fall outside every layer span.
UNATTRIBUTED_TOLERANCE = 0.05

#: (name, unit, better) of every end-to-end metric, measured untraced.
#: The p90 op latency is printed but not reported: its spread over ten
#: runs reached 0.27 on ``ingest_durable`` (fsync tails), above any bound
#: a gate could use (see STEADINESS.md).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("cpu_s_per_op", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric of the traced run.
#: ``s/op`` is a span's self time per op; ``count`` a total over the fixed
#: traced ops.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("serving.batch_self_s", "s/op", "lower"),
    ("serving.epoch_warm_s", "s/op", "lower"),
    ("serving.execute_s", "s/op", "lower"),
    ("serving.solver_calls_per_op", "calls/op", "lower"),
    ("serving.solver_calls_per_request", "ratio", "lower"),
    ("resilience.deadline.timeouts", "count", "lower"),
    ("core.top_k_s", "s/op", "lower"),
    ("core.count_s", "s/op", "lower"),
    ("core.exists_s", "s/op", "lower"),
    ("core.check_s", "s/op", "lower"),
    ("core.qc_probe_s", "s/op", "lower"),
    ("engine.nodes.examined", "count", "lower"),
    ("engine.nodes.pruned", "count", "higher"),
    ("engine.prune_ratio", "ratio", "higher"),
    ("oracle.verdict.hits", "count", "higher"),
    ("oracle.verdict.misses", "count", "lower"),
    ("oracle.hit_ratio", "ratio", "higher"),
    ("queries.evaluate_s", "s/op", "lower"),
    ("plan.cache.hits", "count", "higher"),
    ("plan.cache.misses", "count", "lower"),
    ("executor.steps", "count", "lower"),
    ("executor.rows.scanned", "count", "lower"),
    ("executor.rows.probed", "count", "lower"),
    ("relational.snapshot_s", "s/op", "lower"),
    ("relational.commit_self_s", "s/op", "lower"),
    ("database.commits", "count", "lower"),
    ("database.cow_clones", "count", "lower"),
    ("database.snapshots_pinned", "count", "lower"),
    ("incremental.maintain_s", "s/op", "lower"),
    ("incremental.rows_changed_per_mod", "rows/mod", "lower"),
    ("wal.append_s", "s/op", "lower"),
    ("wal.sync_s", "s/op", "lower"),
    ("wal.fsyncs_per_commit", "ratio", "lower"),
    ("wal.bytes_per_user_byte", "ratio", "lower"),
    ("wal.op_share", "ratio", "lower"),
    ("checkpoint.write_s", "s/op", "lower"),
    ("checkpoint.bytes", "count", "lower"),
    ("recovery.records.replayed", "count", "lower"),
    ("recovery.recover_s", "s", "lower"),
    ("trace.ops", "count", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

#: Span name behind each ``s/op`` metric.
_SPAN_METRICS = {
    "serving.batch_self_s": "serving.batch",
    "serving.epoch_warm_s": "serving.epoch_warm",
    "serving.execute_s": "serving.execute",
    "core.top_k_s": "core.top_k",
    "core.count_s": "core.count",
    "core.exists_s": "core.exists",
    "core.check_s": "core.check",
    "core.qc_probe_s": "core.qc_probe",
    "queries.evaluate_s": "queries.evaluate",
    "relational.snapshot_s": "relational.snapshot",
    "relational.commit_self_s": "relational.commit",
    "incremental.maintain_s": "incremental.maintain",
    "wal.append_s": "wal.append",
    "wal.sync_s": "wal.sync",
    "checkpoint.write_s": "checkpoint.write",
}

#: Registry counters reported as they are.
_COUNTERS = (
    "resilience.deadline.timeouts",
    "engine.nodes.examined",
    "engine.nodes.pruned",
    "oracle.verdict.hits",
    "oracle.verdict.misses",
    "plan.cache.hits",
    "plan.cache.misses",
    "executor.steps",
    "executor.rows.scanned",
    "executor.rows.probed",
    "database.commits",
    "database.cow_clones",
    "database.snapshots_pinned",
)


class Run:
    """What the loops of one run measured, and every failure they saw.

    ``failures`` maps an op (or a check not tied to one op) to its reason;
    ``failed`` counts them, and any failure makes the run incorrect.
    """

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.cpu: List[float] = []
        self.failures: Dict[object, str] = {}

    def fail(self, failures: Iterable[Tuple[object, str]]) -> None:
        for key, reason in failures:
            self.failures.setdefault(key, reason)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)


def _offset(failures: Iterable[Tuple[object, str]], first: int):
    """Check failures keyed by their op's index within the whole run."""
    for key, reason in failures:
        yield (first + key if isinstance(key, int) and key >= 0 else (first, key)), reason


def block_medians(run: Run) -> Tuple[float, float]:
    """(ops per second, CPU seconds per op), each a median over blocks."""
    n = len(run.latencies)
    blocks = min(BLOCKS, n)
    rates, cpus = [], []
    for b in range(blocks):
        lo, hi = b * n // blocks, (b + 1) * n // blocks
        rates.append((hi - lo) / sum(run.latencies[lo:hi]))
        cpus.append(sum(run.cpu[lo:hi]) / (hi - lo))
    return statistics.median(rates), statistics.median(cpus)


def timed_setup(workload: Workload, run: Run, speed: Optional[HostSpeed] = None) -> float:
    """Set the workload up and run its discarded warm-up; returns seconds.

    The previous set-up's state is dropped first, untimed, so two set-ups
    never hold memory at once.
    """
    workload.release()
    gc.collect()
    if speed is not None:
        speed.sample()
    start = time.perf_counter()
    workload.setup()
    for index in range(-workload.warmup_ops, 0):
        given = workload.next_input()
        reason = workload.after_op(index, given, workload.op(given))
        if reason:
            run.fail([(("warm-up", index), reason)])
    gc.collect()
    return time.perf_counter() - start


def measure(
    workload: Workload,
    run: Run,
    seconds: Optional[float] = None,
    ops: Optional[int] = None,
    recorder: Optional[SpanRecorder] = None,
    speed: Optional[HostSpeed] = None,
) -> None:
    """Closed loop into ``run``: ``ops`` ops, or ops until ``seconds`` pass.

    Either way the loop only ends where the workload allows
    (:meth:`Workload.may_stop`).  A raising op is a failed op.
    """
    first = run.attempted
    clock, cpu_clock = time.perf_counter, time.process_time
    end = clock() + (seconds or 0.0)
    next_sample = clock() + SAMPLE_EVERY_S
    index = 0
    while True:
        given = workload.next_input()
        cpu_start = cpu_clock()
        start = clock()
        try:
            output = workload.op(given)
            error = None
        except Exception as raised:  # a failed op is counted, not fatal
            output, error = None, f"{type(raised).__name__}: {raised}"
        stop = clock()
        run.cpu.append(cpu_clock() - cpu_start)
        run.latencies.append(stop - start)
        if recorder is not None:
            recorder.record(OP_SPAN, start, stop)
        reason = error or workload.after_op(index, given, output)
        if reason:
            run.failures[first + index] = reason
        index += 1
        if speed is not None and stop >= next_sample:
            speed.sample()
            next_sample = clock() + SAMPLE_EVERY_S
        done = index >= ops if ops is not None else stop >= end
        if done and workload.may_stop():
            return


def end_to_end(workload: Workload, seconds: float) -> Tuple[Dict[str, float], Run, Dict[str, float]]:
    """The untraced run; returns (metrics, run, printed-only measurements).

    Times and rates are divided and multiplied by the host's factor for
    the workload (:meth:`HostSpeed.factor` of its ``wall_exponents``, or
    ``cpu_exponents`` for CPU time).  The printed-only measurements include
    each probe's scale (``scale.<probe>``) and the unscaled
    ``ops_per_s_unscaled``.
    """
    probes = {**workload.wall_exponents, **workload.cpu_exponents}
    run, speed = Run(), HostSpeed(workload.work_dir if "fsync" in probes else None)
    setups: List[float] = []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
        setups.append(timed_setup(workload, run, speed))
    measure(workload, run, seconds=seconds, speed=speed)
    # Read before the checks, whose own evaluations and recoveries would
    # otherwise set the high-water mark.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.fail(_offset(workload.check(), 0))
    extras, failures = workload.finish()
    run.fail(failures)
    ops_per_s, cpu_per_op = block_medians(run)
    latency = percentile_summary(run.latencies, (50.0, 90.0))
    speed.close()
    extras.update({f"scale.{probe}": scale for probe, scale in speed.scales().items()})
    extras["ops_per_s_unscaled"] = ops_per_s
    wall, cpu = speed.factor(workload.wall_exponents), speed.factor(workload.cpu_exponents)
    extras["op_p90_s"] = latency["p90"] / wall
    metrics = {
        "ops_per_s": ops_per_s * wall,
        "op_p50_s": latency["p50"] / wall,
        "cpu_s_per_op": cpu_per_op / cpu,
        "setup_s": statistics.median(setups) / wall,
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, run, extras


def _within_ops(spans, windows: List[Tuple[float, float]]):
    """The spans lying inside some op's time window (any thread)."""
    starts = [start for start, _ in windows]
    for span in spans:
        slot = bisect.bisect_right(starts, span[2]) - 1
        if slot >= 0 and span[3] <= windows[slot][1]:
            yield span


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder,
    registry: MetricsRegistry,
    ops: int,
    extras: Dict[str, float],
) -> Tuple[Dict[str, float], Optional[str]]:
    """Per-layer metrics of one traced repetition, and an accounting failure."""
    windows = sorted((start, end) for name, _, start, end in recorder.spans if name == OP_SPAN)
    spans = list(_within_ops(recorder.spans, windows))
    attributed = attribute(spans)
    op_time = sum(end - start for start, end in windows)
    calls: Dict[str, int] = {}
    for name, *_ in spans:
        calls[name] = calls.get(name, 0) + 1
    metrics = {metric: attributed.get(span, 0.0) / ops for metric, span in _SPAN_METRICS.items()}
    for name in _COUNTERS:
        metrics[name] = registry.counter(name)
    commits = registry.counter("database.commits")
    examined = registry.counter("engine.nodes.examined")
    hits, misses = registry.counter("oracle.verdict.hits"), registry.counter("oracle.verdict.misses")
    metrics.update(
        {
            "serving.solver_calls_per_op": calls.get("serving.execute", 0) / ops,
            "serving.solver_calls_per_request": _ratio(
                calls.get("serving.execute", 0), extras.get("requests", 0)
            ),
            "engine.prune_ratio": _ratio(registry.counter("engine.nodes.pruned"), examined),
            "oracle.hit_ratio": _ratio(hits, hits + misses),
            "incremental.rows_changed_per_mod": _ratio(extras.get("rows_changed", 0), commits),
            "wal.fsyncs_per_commit": _ratio(registry.counter("wal.fsyncs"), commits),
            "wal.bytes_per_user_byte": _ratio(
                registry.counter("wal.bytes.appended"), extras.get("user_bytes", 0)
            ),
            "wal.op_share": _ratio(
                attributed.get("wal.append", 0.0) + attributed.get("wal.sync", 0.0), op_time
            ),
            "checkpoint.bytes": extras.get("checkpoint_bytes", 0),
            "recovery.records.replayed": extras.get("records_replayed", 0),
            "recovery.recover_s": extras.get("recovery_s", 0.0),
            "trace.ops": ops,
            "trace.unattributed_share": _ratio(attributed.get(OP_SPAN, 0.0), op_time),
        }
    )
    covered = sum(attributed.values())
    failure = None
    if abs(covered - op_time) > 1e-6 * op_time:
        failure = f"attributed {covered:.6f}s of {op_time:.6f}s op time"
    elif metrics["trace.unattributed_share"] > UNATTRIBUTED_TOLERANCE:
        failure = (
            f"layer self times cover {1 - metrics['trace.unattributed_share']:.1%} of op time, "
            f"below the {1 - UNATTRIBUTED_TOLERANCE:.0%} tolerance"
        )
    return metrics, failure


def per_layer(workload: Workload, seconds: float, trace_path=None) -> Tuple[Dict[str, float], Run]:
    """The traced run; returns (per-layer metrics, all its ops)."""
    run = Run()
    reps: List[Dict[str, float]] = []
    overheads: List[float] = []
    started = time.perf_counter()
    rep_seconds = 0.0
    while not reps or time.perf_counter() - started + rep_seconds <= seconds:
        rep_start = time.perf_counter()
        op_seconds = {}
        for traced in (False, True) if len(reps) % 2 == 0 else (True, False):
            timed_setup(workload, run)
            first = run.attempted
            if traced:
                recorder, registry = SpanRecorder(), MetricsRegistry()
                before = workload.traced_counts()
                with installed(recorder), use_metrics(registry):
                    measure(workload, run, ops=workload.trace_ops, recorder=recorder)
                after = workload.traced_counts()
            else:
                measure(workload, run, ops=workload.trace_ops)
            run.fail(_offset(workload.check(), first))
            extras, failures = workload.finish()
            run.fail(failures)
            ops = run.attempted - first
            op_seconds[traced] = sum(run.latencies[first:])
            if traced:
                extras.update({key: after[key] - before[key] for key in after})
                metrics, failure = layer_metrics(recorder, registry, ops, extras)
                if failure:
                    run.fail([(("accounting", len(reps)), failure)])
                reps.append(metrics)
                if trace_path is not None and len(reps) == 1:
                    recorder.write_chrome_trace(trace_path)
        overheads.append(op_seconds[True] / op_seconds[False] - 1.0)
        rep_seconds = time.perf_counter() - rep_start
    # median_low keeps each value one that a repetition measured, so a
    # count that repeats exactly stays that exact count.
    result = {name: statistics.median_low(rep[name] for rep in reps) for name in reps[0]}
    result["trace.overhead"] = statistics.median_low(overheads)
    return result, run
