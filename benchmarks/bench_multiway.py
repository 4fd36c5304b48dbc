"""EXP-MULTIWAY — the worst-case-optimal multiway join against the PR 4 planner.

PR 5 adds a leapfrog-triejoin access path for *cyclic* conjunctions: composite
trie indexes on the relations, a statistics-driven global variable elimination
order, and a unified-iterator leapfrog executor bounded by the AGM
fractional-cover size of the query.  This benchmark quantifies it against the
cost-based planner's binary join steps (built as a plan by
:func:`binary_plan`, the costed plan with its multiway verdict off, and passed
as ``plan=``) on the two canonical cyclic shapes:

* **Triangle** — the textbook AGM worst case: each of ``R``, ``S``, ``T`` is
  a hub star ``{(i, 0)} ∪ {(0, j)}``, so *every* binary join order pays an
  ``m²`` intermediate while both the answer and the AGM bound stay small.
  Cost-based atom ordering cannot help; only the multiway step does.
* **4-cycle** — four hub stars whose wing domains are pairwise disjoint
  except for the one block that closes the cycle: every consecutive binary
  join is ``m²``, the answer is ``m + 1`` rows.

Because the blowup is *order-independent by construction*, the speedup
measures the access path itself, not a lucky ordering.  The planner's own
verdict fires on both workloads (the heavy-hitter worst-case estimate sees
the hubs), so the fast series below runs the planner's own plan — exactly
what every production caller gets through ``cached_plan``.

``test_multiway_beats_pr4_by_5x_at_largest_sizes`` is the acceptance gate: at
the largest size of each cyclic workload the multiway path must be at least
5x faster end to end than the PR 4 planner while returning the identical
binding multiset, and it records both series to ``BENCH_multiway.json`` so
the perf trajectory is tracked across PRs.

Run stand-alone for the machine-readable report::

    PYTHONPATH=src python benchmarks/bench_multiway.py --json

The smallest sweep size of every benchmark below is auto-registered under the
``bench_smoke`` marker by ``benchmarks/conftest.py`` (sweeps are listed
ascending), so CI's smoke pass exercises each entry point end to end.
"""

import pytest

from repro.bench.harness import time_callable
from repro.queries.ast import RelationAtom, Var
from repro.queries.plan import plan_conjunction
from repro.relational.database import Database

from _report import REPO_ROOT, baseline_plan, bindings, relation_statistics, run_cli, write_report

#: Hub-star half-widths ``m`` of the triangle workload, ascending.
TRIANGLE_SWEEP = [100, 200, 400]

#: Hub-star half-widths ``m`` of the 4-cycle workload, ascending.
FOUR_CYCLE_SWEEP = [100, 200, 400]

RESULTS_PATH = REPO_ROOT / "BENCH_multiway.json"


def binary_plan(database, atoms):
    """The baseline plan: the costed binary steps, the multiway verdict off."""
    return baseline_plan(atoms, statistics=relation_statistics(database, atoms), run_multiway=False)


def _hub_star(hub, wing_in, wing_out):
    """``{(i, hub)} ∪ {(hub, j)}`` with caller-chosen wing domains."""
    return (
        {(i, hub) for i in wing_in} | {(hub, j) for j in wing_out} | {(hub, hub)}
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
def triangle_workload(m: int):
    """The AGM worst-case triangle: three hub stars over one domain.

    ``Q(x,y,z) :- R(x,y) ∧ S(y,z) ∧ T(z,x)`` with each relation
    ``{(i, 0)} ∪ {(0, j)}`` over ``i, j ∈ [1, m]``: every pairwise join
    produces ``m²`` intermediate rows regardless of order, while the answer
    is ``3m + 1`` rows and the AGM bound ``(2m+1)^{3/2}``.
    """
    wing = range(1, m + 1)
    database = Database()
    for name, attrs in (("R", ["x", "y"]), ("S", ["y", "z"]), ("T", ["z", "x"])):
        database.create_relation(name, attrs, _hub_star(0, wing, wing))
    x, y, z = Var("x"), Var("y"), Var("z")
    atoms = [
        RelationAtom("R", [x, y]),
        RelationAtom("S", [y, z]),
        RelationAtom("T", [z, x]),
    ]
    return database, atoms


def four_cycle_workload(m: int):
    """Four hub stars with disjoint wings; one shared block closes the cycle.

    ``Q(a,b,c,d) :- R1(a,b) ∧ R2(b,c) ∧ R3(c,d) ∧ R4(d,a)`` where every
    junction variable has its own hub and every wing its own value block,
    except that ``R4``'s outgoing wing reuses ``R1``'s incoming block — the
    only way around the cycle.  Each consecutive binary join is ``m²``; the
    answer is ``m + 1`` rows.
    """
    hubs = {"a": 1, "b": 2, "c": 3, "d": 4}

    def block(k):
        return range(10 + k * m, 10 + (k + 1) * m)

    closing = block(0)
    wings = [
        (block(0), block(1)),  # R1: a-wing (shared), b-wing
        (block(2), block(3)),  # R2
        (block(4), block(5)),  # R3
        (block(6), closing),  # R4: d-wing, a-wing closes back into R1's block
    ]
    database = Database()
    names = [("R1", "a", "b"), ("R2", "b", "c"), ("R3", "c", "d"), ("R4", "d", "a")]
    for (name, source, target), (wing_in, wing_out) in zip(names, wings):
        rows = (
            {(i, hubs[target]) for i in wing_in}
            | {(hubs[source], j) for j in wing_out}
            | {(hubs[source], hubs[target])}
        )
        database.create_relation(name, [source, target], rows)
    a, b, c, d = Var("a"), Var("b"), Var("c"), Var("d")
    atoms = [
        RelationAtom("R1", [a, b]),
        RelationAtom("R2", [b, c]),
        RelationAtom("R3", [c, d]),
        RelationAtom("R4", [d, a]),
    ]
    return database, atoms


WORKLOADS = {
    "triangle": triangle_workload,
    "four_cycle": four_cycle_workload,
}


# ---------------------------------------------------------------------------
# The pytest benchmark series
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("m", TRIANGLE_SWEEP)
def test_triangle_multiway(benchmark, annotate, m):
    database, atoms = triangle_workload(m)
    annotate(group="multiway/triangle", variant="multiway (leapfrog)", size=m)
    result = benchmark(lambda: bindings(database, atoms))
    assert len(result) == 3 * m + 1


@pytest.mark.parametrize("m", TRIANGLE_SWEEP[:2])
def test_triangle_pr4(benchmark, annotate, m):
    """The PR 4 baseline; the largest size runs only in the speedup gate."""
    database, atoms = triangle_workload(m)
    annotate(group="multiway/triangle", variant="PR 4 (binary steps)", size=m)
    plan = binary_plan(database, atoms)
    result = benchmark(lambda: bindings(database, atoms, plan=plan))
    assert len(result) == 3 * m + 1


@pytest.mark.parametrize("m", FOUR_CYCLE_SWEEP)
def test_four_cycle_multiway(benchmark, annotate, m):
    database, atoms = four_cycle_workload(m)
    annotate(group="multiway/four_cycle", variant="multiway (leapfrog)", size=m)
    result = benchmark(lambda: bindings(database, atoms))
    assert len(result) == m + 1


@pytest.mark.parametrize("m", FOUR_CYCLE_SWEEP[:2])
def test_four_cycle_pr4(benchmark, annotate, m):
    database, atoms = four_cycle_workload(m)
    annotate(group="multiway/four_cycle", variant="PR 4 (binary steps)", size=m)
    plan = binary_plan(database, atoms)
    result = benchmark(lambda: bindings(database, atoms, plan=plan))
    assert len(result) == m + 1


def test_planner_verdict_fires_on_both_workloads():
    """The fast series runs the planner's own plan: the verdict itself triggers."""
    for build in WORKLOADS.values():
        database, atoms = build(100)
        plan = plan_conjunction(atoms, statistics=relation_statistics(database, atoms))
        assert plan.multiway is not None
        assert plan.run_multiway


# ---------------------------------------------------------------------------
# The acceptance gate + machine-readable report
# ---------------------------------------------------------------------------
def _measure_pair(workload_name: str, size: int, repeats: int = 3):
    """Time the PR 4 planner and the multiway path on one workload size."""
    database, atoms = WORKLOADS[workload_name](size)
    baseline_seconds, baseline = time_callable(
        lambda: bindings(database, atoms, plan=binary_plan(database, atoms))
    )
    # best-of-N shields the fast path from scheduler noise
    multiway_seconds, multiway = time_callable(lambda: bindings(database, atoms), repeat=repeats)

    return {
        "workload": workload_name,
        "size": size,
        "pr4_seconds": round(baseline_seconds, 6),
        "multiway_seconds": round(multiway_seconds, 6),
        "speedup": round(baseline_seconds / multiway_seconds, 2),
        "identical_results": multiway == baseline,
    }


def run_sweep(
    triangle_sizes=tuple(TRIANGLE_SWEEP),
    four_cycle_sizes=tuple(FOUR_CYCLE_SWEEP),
):
    """Measure both series and assemble the machine-readable report."""
    triangle_results = [_measure_pair("triangle", size) for size in triangle_sizes]
    four_cycle_results = [_measure_pair("four_cycle", size) for size in four_cycle_sizes]
    return {
        "benchmark": "multiway",
        "workload": "AGM worst-case triangle and disjoint-wing 4-cycle — "
        "worst-case-optimal leapfrog triejoin vs the PR 4 binary planner",
        "triangle_sizes": list(triangle_sizes),
        "triangle_results": triangle_results,
        "four_cycle_results": four_cycle_results,
        "speedup_at_largest": triangle_results[-1]["speedup"],
        "four_cycle_speedup_at_largest": four_cycle_results[-1]["speedup"],
    }


@pytest.mark.bench_full  # wall-clock assertion at the largest size: not a smoke test
def test_multiway_beats_pr4_by_5x_at_largest_sizes(record_property):
    """Acceptance gate: ≥5x end-to-end speedup at the largest cyclic sizes."""
    report = run_sweep()
    write_report(report, RESULTS_PATH)
    for series in ("triangle_results", "four_cycle_results"):
        assert all(row["identical_results"] for row in report[series]), (
            f"multiway and PR 4 answers diverged in {series}"
        )
        largest = report[series][-1]
        for key, value in largest.items():
            record_property(f"{series}:{key}", value)
        assert largest["speedup"] >= 5.0, (
            f"multiway only {largest['speedup']:.1f}x faster than PR 4 on "
            f"{largest['workload']} at m={largest['size']} "
            f"({largest['multiway_seconds']:.4f}s vs {largest['pr4_seconds']:.4f}s)"
        )


if __name__ == "__main__":
    run_cli(run_sweep, RESULTS_PATH, __doc__)
