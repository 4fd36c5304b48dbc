"""EXP-PLAN — the cost-based planner against the statistics-blind PR 1 planner.

PR 4 turns query evaluation into a cost-based optimizer: maintained relation
statistics drive atom ordering, ground one-sided comparisons run as
sorted-index *range probes*, and acyclic conjunctions with a predicted large
intermediate result get a Yannakakis semi-join reduction.  This benchmark
quantifies each lever against the PR 1 planner (most-constrained-first order,
hash probes only — built as a plan by :func:`statistics_blind_plan`, which compiles
without statistics and strips the range probes, and passed as ``plan=``):

* **Range-heavy selections** — the headline workload: a self-join of an item
  table under two selective price filters (the shape the relaxation layer's
  widened queries take).  The PR 1 planner post-filters full scans; the range
  probe bisects the sorted index and touches only the qualifying fraction.
* **Statistics-driven ordering** — a small×large join written large-first.
  The static order scans the large relation; statistics start from the small
  one and probe the large one instead.
* **Semi-join reduction** — a chain whose every intermediate join is large
  but whose final answer is empty (dangling tuples on both sides).  Every
  join order explodes; the two semi-join passes prune the middle relation to
  nothing before the join runs.

``test_cost_based_beats_pr1_by_5x_at_largest_size`` is the acceptance gate:
at the largest range-heavy sweep size the cost-based planner must be at least
5x faster wall-clock than the PR 1 planner while returning the identical
binding multiset, and it records all three series to ``BENCH_planner.json``
so the perf trajectory is tracked across PRs.

Run stand-alone for the machine-readable report::

    PYTHONPATH=src python benchmarks/bench_planner.py --json

The smallest sweep size of every benchmark below is auto-registered under the
``bench_smoke`` marker by ``benchmarks/conftest.py`` (sweeps are listed
ascending), so CI's smoke pass exercises each entry point end to end.
"""

import random

import pytest

from repro.bench.harness import time_callable
from repro.queries.ast import Comparison, ComparisonOp, RelationAtom, Var
from repro.relational.database import Database

from _report import REPO_ROOT, baseline_plan, bindings, run_cli, write_report

#: Row counts of the item table in the range-heavy workload, ascending.
RANGE_SWEEP = [400, 1000, 2400]

#: Row counts of the large relation in the ordering workload, ascending.
ORDERING_SWEEP = [1500, 3000, 6000]

#: Row counts per relation of the dangling-chain workload, ascending.
SEMIJOIN_SWEEP = [400, 800, 1600]

RESULTS_PATH = REPO_ROOT / "BENCH_planner.json"


def statistics_blind_plan(atoms, comparisons=()):
    """The baseline plan: the statistics-blind order with hash probes only.

    Without statistics the planner votes for no semi-join, multiway or
    columnar path, so stripping the compiled range probes (and the unused
    columnar pushdowns) leaves exactly the baseline planner's plan.
    """
    return baseline_plan(atoms, comparisons, strip=("range_probe", "columnar_pushdowns"))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
def range_heavy_workload(num_items: int, seed: int = 0):
    """Two selective price filters over a self-joined item table.

    ``Q(a, b) :- item(a, p) ∧ item(b, q) ∧ p < 20 ∧ q < 20`` with prices
    uniform in [0, 1000): each filter retains ~2% of the rows.  The PR 1
    planner scans all ``n`` items per atom (the second atom once per
    surviving outer row); the range probes touch only the ~0.02·n qualifying
    rows per atom.
    """
    rng = random.Random(seed)
    database = Database()
    database.create_relation(
        "item", ["iid", "price"], [(i, rng.randrange(1000)) for i in range(num_items)]
    )
    atoms = [
        RelationAtom("item", [Var("a"), Var("p")]),
        RelationAtom("item", [Var("b"), Var("q")]),
    ]
    comparisons = [
        Comparison(ComparisonOp.LT, Var("p"), 20),
        Comparison(ComparisonOp.LT, Var("q"), 20),
    ]
    return database, atoms, comparisons


def ordering_workload(num_big: int, seed: int = 0):
    """A small×large join written large-first.

    The static most-constrained-first order breaks the tie towards the first
    body atom and scans the large relation; the cost-based order starts from
    the 60-row relation and probes the large one on the join variable.
    """
    rng = random.Random(seed)
    database = Database()
    database.create_relation(
        "big", ["b", "c"], [(rng.randrange(1000), i) for i in range(num_big)]
    )
    database.create_relation(
        "small", ["a", "b"], [(i, rng.randrange(10)) for i in range(60)]
    )
    atoms = [
        RelationAtom("big", [Var("b"), Var("c")]),
        RelationAtom("small", [Var("a"), Var("b")]),
    ]
    return database, atoms, ()


def semijoin_workload(rows_per_relation: int, seed: int = 0):
    """A chain with large intermediate joins and an empty answer.

    ``Q(a, c) :- A(a, x) ∧ B(x, y) ∧ C(y, c)`` where ``A`` only covers the
    first half of the ``x`` domain, ``C`` only the second half of the ``y``
    domain, and ``B`` pairs first-half ``x`` with first-half ``y`` (and second
    with second).  Every ``B`` row joining ``A`` dangles at ``C`` and vice
    versa, so every join order pays the full A⋈B (or B⋈C) intermediate; the
    bottom-up semi-join pass empties ``B`` before the join runs.
    """
    rng = random.Random(seed)
    k = 50
    half = k // 2
    database = Database()
    database.create_relation(
        "A", ["a", "x"], [(i, rng.randrange(half)) for i in range(rows_per_relation)]
    )
    database.create_relation(
        "B",
        ["x", "y"],
        [
            (side * half + rng.randrange(half), side * half + rng.randrange(half))
            for i in range(rows_per_relation)
            for side in (i % 2,)
        ],
    )
    database.create_relation(
        "C",
        ["y", "c"],
        [(half + rng.randrange(half), i) for i in range(rows_per_relation)],
    )
    atoms = [
        RelationAtom("A", [Var("a"), Var("x")]),
        RelationAtom("B", [Var("x"), Var("y")]),
        RelationAtom("C", [Var("y"), Var("c")]),
    ]
    return database, atoms, ()


WORKLOADS = {
    "range": range_heavy_workload,
    "ordering": ordering_workload,
    "semijoin": semijoin_workload,
}


# ---------------------------------------------------------------------------
# The pytest benchmark series
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("num_items", RANGE_SWEEP)
def test_range_heavy_cost_based(benchmark, annotate, num_items):
    database, atoms, comparisons = range_heavy_workload(num_items)
    annotate(group="planner/range", variant="cost-based (range probes)", size=num_items)
    result = benchmark(lambda: bindings(database, atoms, comparisons))
    assert result  # ~2% of prices fall below the filter, so answers exist


@pytest.mark.parametrize("num_items", RANGE_SWEEP[:2])
def test_range_heavy_pr1(benchmark, annotate, num_items):
    """The PR 1 baseline; the largest size runs only in the speedup gate."""
    database, atoms, comparisons = range_heavy_workload(num_items)
    annotate(group="planner/range", variant="PR 1 (post-filtered scans)", size=num_items)
    plan = statistics_blind_plan(atoms, comparisons)
    result = benchmark(lambda: bindings(database, atoms, comparisons, plan))
    assert result


@pytest.mark.parametrize("num_big", ORDERING_SWEEP)
def test_ordering_cost_based(benchmark, annotate, num_big):
    database, atoms, comparisons = ordering_workload(num_big)
    annotate(group="planner/ordering", variant="cost-based (small first)", size=num_big)
    benchmark(lambda: bindings(database, atoms, comparisons))


@pytest.mark.parametrize("num_big", ORDERING_SWEEP[:2])
def test_ordering_pr1(benchmark, annotate, num_big):
    database, atoms, comparisons = ordering_workload(num_big)
    annotate(group="planner/ordering", variant="PR 1 (large scanned first)", size=num_big)
    plan = statistics_blind_plan(atoms, comparisons)
    benchmark(lambda: bindings(database, atoms, comparisons, plan))


@pytest.mark.parametrize("rows", SEMIJOIN_SWEEP)
def test_semijoin_cost_based(benchmark, annotate, rows):
    database, atoms, comparisons = semijoin_workload(rows)
    annotate(group="planner/semijoin", variant="cost-based (Yannakakis)", size=rows)
    result = benchmark(lambda: bindings(database, atoms, comparisons))
    assert result == []  # dangling tuples on both sides: the answer is empty


@pytest.mark.parametrize("rows", SEMIJOIN_SWEEP[:2])
def test_semijoin_pr1(benchmark, annotate, rows):
    database, atoms, comparisons = semijoin_workload(rows)
    annotate(group="planner/semijoin", variant="PR 1 (full intermediate)", size=rows)
    plan = statistics_blind_plan(atoms, comparisons)
    result = benchmark(lambda: bindings(database, atoms, comparisons, plan))
    assert result == []


# ---------------------------------------------------------------------------
# The acceptance gate + machine-readable report
# ---------------------------------------------------------------------------
def _measure_pair(workload_name: str, size: int, repeats: int = 3):
    """Time the PR 1 planner and the cost-based planner on one workload size."""
    database, atoms, comparisons = WORKLOADS[workload_name](size)
    baseline_seconds, baseline = time_callable(
        lambda: bindings(database, atoms, comparisons, statistics_blind_plan(atoms, comparisons))
    )
    # best-of-N shields the fast path from scheduler noise
    planned_seconds, planned = time_callable(
        lambda: bindings(database, atoms, comparisons), repeat=repeats
    )

    return {
        "workload": workload_name,
        "size": size,
        "pr1_seconds": round(baseline_seconds, 6),
        "cost_based_seconds": round(planned_seconds, 6),
        "speedup": round(baseline_seconds / planned_seconds, 2),
        "identical_results": planned == baseline,
    }


def run_sweep(
    range_sizes=tuple(RANGE_SWEEP),
    ordering_sizes=tuple(ORDERING_SWEEP),
    semijoin_sizes=tuple(SEMIJOIN_SWEEP),
):
    """Measure every series and assemble the machine-readable report."""
    range_results = [_measure_pair("range", size) for size in range_sizes]
    ordering_results = [_measure_pair("ordering", size) for size in ordering_sizes]
    semijoin_results = [_measure_pair("semijoin", size) for size in semijoin_sizes]
    return {
        "benchmark": "planner",
        "workload": "range-heavy self-join; small×large ordering; dangling-chain "
        "semi-join — cost-based planner vs the statistics-blind PR 1 planner",
        "range_sizes": list(range_sizes),
        "range_results": range_results,
        "ordering_results": ordering_results,
        "semijoin_results": semijoin_results,
        "speedup_at_largest": range_results[-1]["speedup"],
    }


@pytest.mark.bench_full  # wall-clock assertion at the largest size: not a smoke test
def test_cost_based_beats_pr1_by_5x_at_largest_size(record_property):
    """Acceptance gate: ≥5x end-to-end speedup at the largest range-heavy size."""
    report = run_sweep()
    write_report(report, RESULTS_PATH)
    largest = report["range_results"][-1]
    for key, value in largest.items():
        record_property(key, value)
    for series in ("range_results", "ordering_results", "semijoin_results"):
        assert all(row["identical_results"] for row in report[series]), (
            f"cost-based and PR 1 answers diverged in {series}"
        )
    assert largest["speedup"] >= 5.0, (
        f"cost-based planner only {largest['speedup']:.1f}x faster than PR 1 "
        f"({largest['cost_based_seconds']:.4f}s vs {largest['pr1_seconds']:.4f}s)"
    )


if __name__ == "__main__":
    run_cli(run_sweep, RESULTS_PATH, __doc__)
