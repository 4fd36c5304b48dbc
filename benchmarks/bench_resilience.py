"""EXP-RESIL — goodput under an adversarial overload+fault trace.

PR 7 threads a resilience layer through the stack: request deadlines honoured
inside the evaluator and the package-lattice search, per-request typed error
results, bounded admission, retry-with-backoff, and a deterministic fault
harness.  This benchmark measures what that buys under attack.

The workload is :func:`~repro.serving.build_overload_trace`: each round leads
with a few *poison* requests — ``count`` probes with round-unique bounds that
must sweep the cubic size-3 lattice of
:func:`~repro.serving.overload_problem`, so they run for hundreds of
milliseconds while the witness probes behind them cost fractions of one —
replayed under a seeded chaos schedule injecting transient worker faults.
Two replicas walk the identical trace and fault schedule:

* **unguarded** — a plain :class:`~repro.serving.SnapshotServer`: every
  poison request captures a worker for its full run, and every injected
  fault is a lost answer;
* **guarded** — the same server armed with a
  :class:`~repro.serving.ResilienceConfig`: deadlines cut the poison off in
  tens of milliseconds (a typed ``timeout`` error, never a wrong answer),
  retries recover the transient faults, and bounded admission caps in-flight
  work.

The metric is **goodput**: correct answers — bit-identical to a fault-free
replay of the same trace — delivered within the SLA, per second of wall
clock.  Both replicas are also held to the chaos differential invariant
(every result is either correct or a clean typed error), and the guard's
knobs-off configuration is asserted bit-identical to no configuration at all.

``test_guarded_goodput_beats_unguarded_by_5x`` is the acceptance gate:
≥5x goodput at the largest trace, recorded to ``BENCH_resilience.json``.
It first checks the premise: a poison request of the largest trace must
cost at least the SLA (``POISON_TARGET_S``), or the sweep needs re-sizing.

Run stand-alone for the machine-readable report::

    PYTHONPATH=src python benchmarks/bench_resilience.py --json

The smallest sweep size below is auto-registered under the ``bench_smoke``
marker by ``benchmarks/conftest.py`` (sweeps are listed ascending).
"""

import contextlib

import pytest

from repro.bench.harness import time_callable
from repro.resilience import FaultPlan, FaultRule, chaos
from repro.serving import (
    ResilienceConfig,
    SnapshotServer,
    build_overload_trace,
    build_trace,
    execute_request,
)

from _report import REPO_ROOT, replay, run_cli, write_report

# (num_items, num_rounds, batch_size) triples, ascending.  Poison cost grows
# cubically with num_items (the size-3 lattice), which is the whole point.
# The sizes follow from a poison-cost target, not the other way round: at
# the largest size one poison ``count`` must outlast the SLA by a wide
# margin on the fastest verdict path, or the unguarded server meets the SLA
# and the trace is no overload.  Witness-set verdicts made a 50-item poison
# cost ≈20 ms; 120 items cost ≈200 ms on a 2-core VM.  The index-space
# lattice kernel then took 120 items down to 40-65 ms, under the SLA, and
# 160 items to 100-180 ms, too close to it; 200 items cost 210-250 ms.
OVERLOAD_SWEEP = [(30, 2, 8), (80, 3, 10), (200, 4, 12)]

#: The answer SLA the goodput metric counts against, and the (tighter)
#: deadline the guarded replica enforces per request.
SLA_S = 0.1
GUARD = ResilienceConfig(
    deadline_s=0.02,
    max_retries=3,
    retry_backoff_s=0.001,
    max_inflight=8,  # = the worker pool: exercised on every request, never sheds
)

#: Transient worker faults, injected identically into both replicas.
FAULT_RATE = 0.2

#: The least one poison request may cost at the largest sweep size.
POISON_TARGET_S = SLA_S

RESULTS_PATH = REPO_ROOT / "BENCH_resilience.json"


# ---------------------------------------------------------------------------
# Trace replay drivers (shared by the pytest benchmarks and the gate)
# ---------------------------------------------------------------------------
def _faults(fault_seed):
    """The per-round chaos schedule of a replica (none without a seed).

    :func:`replay` commits deltas outside it: the schedule attacks the
    serving path only, so both replicas (and the fault-free reference) walk
    the identical epoch history and answers stay positionally comparable.
    """
    if fault_seed is None:
        return contextlib.nullcontext
    return lambda: chaos(
        FaultPlan({"serving.worker": FaultRule(rate=FAULT_RATE)}, seed=fault_seed)
    )


def _run_unguarded(num_items, num_rounds, batch_size, fault_seed=None):
    trace = build_overload_trace(num_items, num_rounds, batch_size, seed=num_items)
    return replay(SnapshotServer(trace.problem), trace, _faults(fault_seed))


def _run_guarded(num_items, num_rounds, batch_size, fault_seed=None):
    trace = build_overload_trace(num_items, num_rounds, batch_size, seed=num_items)
    server = SnapshotServer(trace.problem, resilience=GUARD)
    return replay(server, trace, _faults(fault_seed))


def _goodput(results, reference, wall_seconds, sla_s=SLA_S):
    """Correct-within-SLA answers per second, plus the differential check.

    ``reference`` is the fault-free answer sequence for the identical trace;
    an ``ok`` result that disagrees with it is a *wrong answer* — the one
    outcome resilience must never produce — and fails the measurement.
    """
    good = 0
    for result, expected in zip(results, reference):
        if not result.ok:
            continue
        assert (result.epoch, result.answer) == expected, (
            "a faulted replay produced a wrong answer instead of a typed error"
        )
        good += result.latency_s <= sla_s
    return good / wall_seconds


# ---------------------------------------------------------------------------
# The pytest benchmark series
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("num_items,num_rounds,batch_size", OVERLOAD_SWEEP)
def test_guarded_overload_trace(benchmark, annotate, num_items, num_rounds, batch_size):
    annotate(
        group="resilience/overload",
        variant="guarded (deadlines + retries + admission)",
        num_items=num_items,
        num_rounds=num_rounds,
        batch_size=batch_size,
    )
    results = benchmark(
        lambda: _run_guarded(num_items, num_rounds, batch_size, fault_seed=num_items)
    )
    assert len(results) == num_rounds * batch_size


@pytest.mark.parametrize("num_items,num_rounds,batch_size", OVERLOAD_SWEEP[:1])
def test_unguarded_overload_trace(benchmark, annotate, num_items, num_rounds, batch_size):
    """The victim replica; larger sizes run only inside the goodput gate."""
    annotate(
        group="resilience/overload",
        variant="unguarded (poison runs to completion)",
        num_items=num_items,
        num_rounds=num_rounds,
        batch_size=batch_size,
    )
    results = benchmark(
        lambda: _run_unguarded(num_items, num_rounds, batch_size, fault_seed=num_items)
    )
    assert len(results) == num_rounds * batch_size


# ---------------------------------------------------------------------------
# The acceptance gate + machine-readable report
# ---------------------------------------------------------------------------
def _error_codes(results):
    codes = {}
    for result in results:
        if not result.ok:
            codes[result.error.code] = codes.get(result.error.code, 0) + 1
    return codes


def _poison_seconds(num_items):
    """What one poison request of the trace costs, alone on a warm epoch."""
    trace = build_overload_trace(num_items, 1, 4, seed=num_items)
    pinned = trace.problem.pinned()
    poison, cheap = trace.rounds[0][1][0], trace.rounds[0][1][-1]
    execute_request(pinned, cheap)  # the epoch's one-off work (Q(D), witness index)
    return time_callable(lambda: execute_request(pinned, poison))[0]


def _measure_pair(num_items, num_rounds, batch_size):
    """Reference, unguarded and guarded replays of the identical trace."""
    reference = [
        (result.epoch, result.answer)
        for result in _run_unguarded(num_items, num_rounds, batch_size)
    ]

    unguarded_seconds, unguarded = time_callable(
        lambda: _run_unguarded(num_items, num_rounds, batch_size, fault_seed=num_items)
    )
    guarded_seconds, guarded = time_callable(
        lambda: _run_guarded(num_items, num_rounds, batch_size, fault_seed=num_items)
    )

    unguarded_goodput = _goodput(unguarded, reference, unguarded_seconds)
    guarded_goodput = _goodput(guarded, reference, guarded_seconds)
    return {
        "num_items": num_items,
        "num_rounds": num_rounds,
        "batch_size": batch_size,
        "num_requests": num_rounds * batch_size,
        "poison_s": round(_poison_seconds(num_items), 6),
        "sla_s": SLA_S,
        "deadline_s": GUARD.deadline_s,
        "fault_rate": FAULT_RATE,
        "unguarded_seconds": round(unguarded_seconds, 6),
        "guarded_seconds": round(guarded_seconds, 6),
        "unguarded_goodput_per_s": round(unguarded_goodput, 1),
        "guarded_goodput_per_s": round(guarded_goodput, 1),
        "goodput_ratio": round(
            guarded_goodput / unguarded_goodput if unguarded_goodput else float("inf"),
            2,
        ),
        "unguarded_errors": _error_codes(unguarded),
        "guarded_errors": _error_codes(guarded),
    }


def _knobs_off_identical():
    """An all-default ResilienceConfig must serve bit-identically to none."""
    trace = build_trace(25, 3, 10, seed=4)
    plain = replay(SnapshotServer(trace.problem), trace)
    trace2 = build_trace(25, 3, 10, seed=4)
    armed = replay(SnapshotServer(trace2.problem, resilience=ResilienceConfig()), trace2)
    return [(r.epoch, r.answer, r.ok) for r in plain] == [
        (r.epoch, r.answer, r.ok) for r in armed
    ]


def run_sweep(sizes=tuple(OVERLOAD_SWEEP)):
    """Measure every sweep size and assemble the machine-readable report."""
    results = [_measure_pair(*size) for size in sizes]
    return {
        "benchmark": "resilience",
        "workload": "adversarial overload trace (round-unique poison count probes "
        "leading cheap witness batches over a size-3 lattice) under seeded "
        f"transient worker faults at rate {FAULT_RATE}",
        "sizes": [list(size) for size in sizes],
        "results": results,
        "knobs_off_identical": _knobs_off_identical(),
        "goodput_ratio_at_largest": results[-1]["goodput_ratio"],
    }


@pytest.mark.bench_full  # wall-clock assertion at the largest size: not a smoke test
def test_guarded_goodput_beats_unguarded_by_5x(record_property):
    """Acceptance gate: ≥5x goodput over the unguarded server under attack."""
    report = run_sweep()
    write_report(report, RESULTS_PATH)
    assert report["knobs_off_identical"], (
        "ResilienceConfig() with every knob off changed the served answers"
    )
    largest = report["results"][-1]
    for key, value in largest.items():
        record_property(key, value)
    assert largest["poison_s"] >= POISON_TARGET_S, (
        f"a poison request costs only {largest['poison_s'] * 1e3:.0f} ms, under the "
        f"{POISON_TARGET_S * 1e3:.0f} ms target: the trace is no overload; "
        "re-size OVERLOAD_SWEEP"
    )
    assert largest["goodput_ratio"] >= 5.0, (
        f"guarded goodput only {largest['goodput_ratio']:.1f}x the unguarded server "
        f"({largest['guarded_goodput_per_s']:.1f}/s vs "
        f"{largest['unguarded_goodput_per_s']:.1f}/s)"
    )


if __name__ == "__main__":
    run_cli(run_sweep, RESULTS_PATH, __doc__)
