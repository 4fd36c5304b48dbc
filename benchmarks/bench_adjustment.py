"""EXP-S8 — Theorem 8.1 / Corollary 8.2: adjustment recommendations.

Sweeps:

* the 3SAT → ARPP encoding with a growing formula (NP-hard in the data), and
* item-level adjustments over growing candidate pools — unlike every other
  problem, the item restriction does *not* tame ARPP (Corollary 8.2): the
  search over subsets of candidate modifications dominates either way, which
  the two series show by growing at the same rate.

Like ``bench_enumeration.py``, the module doubles as a CLI with cross-PR
tracking: ``PYTHONPATH=src python benchmarks/bench_adjustment.py --json``
measures the incremental (PR 3, apply/undo deltas + maintained ``Q(D)``)
against the retained recompute search over the pool-growth sweep and writes
``BENCH_adjustment.json``.
"""

import pytest

from repro.adjustment import (
    find_item_adjustment,
    find_item_adjustment_recompute,
    find_package_adjustment,
)
from repro.bench.harness import time_callable
from repro.complexity import Problem, TABLE_8_2
from repro.logic.generators import random_3cnf
from repro.queries import identity_query_for
from repro.reductions import arpp_from_3sat
from repro.relational import Database, Relation
from repro.workloads.synthetic import item_schema, random_item_database

from _report import REPO_ROOT, run_cli, write_report

RESULTS_PATH = REPO_ROOT / "BENCH_adjustment.json"

POOL_SWEEP = [4, 6, 8]


@pytest.mark.parametrize("variables", [2, 3])
def test_arpp_packages_3sat(benchmark, annotate, variables):
    encoding = arpp_from_3sat(random_3cnf(variables, variables, seed=variables))
    annotate(
        group="ARPP/packages",
        paper_cell=str(TABLE_8_2[Problem.ARPP].poly_bounded) + " (data complexity)",
        variables=variables,
    )
    result = benchmark(encoding.solve)
    assert result.found == encoding.expected()


def _candidate_pool(size: int, seed: int) -> Database:
    rng_database = random_item_database(size, seed=seed)
    rows = [(iid + 1000, category, price, quality + 50) for iid, category, price, quality in rng_database.relation("items")]
    return Database([Relation(item_schema(), rows)])


@pytest.mark.parametrize("pool_size", POOL_SWEEP)
def test_arpp_items_pool_growth(benchmark, annotate, pool_size):
    """Item-level ARPP: the candidate pool, not the package size, drives the cost."""
    database = random_item_database(10, seed=1)
    query = identity_query_for(database.relation("items"))
    additions = _candidate_pool(pool_size, seed=2)
    annotate(
        group="ARPP/items",
        paper_cell=str(TABLE_8_2[Problem.ARPP].constant_bounded) + " even for items (Cor. 8.2)",
        pool_size=pool_size,
    )
    benchmark(
        lambda: find_item_adjustment(
            database,
            query,
            utility=lambda row: float(row[3]),
            additions=additions,
            rating_bound=1_000.0,  # unattainable: forces the full k'-bounded search
            k=1,
            max_changes=2,
            allow_deletions=False,
        )
    )


@pytest.mark.parametrize("max_changes", [1, 2, 3])
def test_arpp_k_prime_growth(benchmark, annotate, max_changes):
    """Growing the modification budget k′ grows the adjustment search space."""
    database = random_item_database(8, seed=3)
    query = identity_query_for(database.relation("items"))
    additions = _candidate_pool(6, seed=4)
    problem_like_bound = 1_000.0  # unattainable so the whole space is explored
    annotate(
        group="ARPP/k-prime",
        paper_cell=str(TABLE_8_2[Problem.ARPP].poly_bounded),
        max_changes=max_changes,
    )
    benchmark(
        lambda: find_item_adjustment(
            database,
            query,
            utility=lambda row: float(row[3]),
            additions=additions,
            rating_bound=problem_like_bound,
            k=1,
            max_changes=max_changes,
            allow_deletions=False,
        )
    )


def test_arpp_package_level_with_witness(benchmark, annotate):
    """A package-level adjustment that succeeds, with its witness checked."""
    from repro.core import AttributeSumCost, AttributeSumRating, PolynomialBound, RecommendationProblem

    database = random_item_database(8, seed=5)
    additions = _candidate_pool(5, seed=6)
    problem = RecommendationProblem(
        database=database,
        query=identity_query_for(database.relation("items")),
        cost=AttributeSumCost("price"),
        val=AttributeSumRating("quality"),
        budget=60.0,
        k=1,
        monotone_cost=True,
        size_bound=PolynomialBound(1.0, 1),
    )
    annotate(group="ARPP/packages/witness", paper_cell=str(TABLE_8_2[Problem.ARPP].poly_bounded))
    result = benchmark(
        lambda: find_package_adjustment(
            problem, additions, rating_bound=60.0, max_changes=2, allow_deletions=False
        )
    )
    assert result.found


# ---------------------------------------------------------------------------
# Cross-PR tracking: incremental vs recompute over the pool sweep
# ---------------------------------------------------------------------------
def _item_search_kwargs(pool_size: int):
    database = random_item_database(10, seed=1)
    query = identity_query_for(database.relation("items"))
    return database, query, dict(
        utility=lambda row: float(row[3]),
        additions=_candidate_pool(pool_size, seed=2),
        rating_bound=1_000.0,  # unattainable: forces the full k'-bounded search
        k=1,
        max_changes=2,
        allow_deletions=False,
    )


def _measure_pool(pool_size: int):
    database, query, kwargs = _item_search_kwargs(pool_size)
    recompute_seconds, recompute = time_callable(
        lambda: find_item_adjustment_recompute(database, query, **kwargs)
    )
    database, query, kwargs = _item_search_kwargs(pool_size)
    incremental_seconds, incremental = time_callable(
        lambda: find_item_adjustment(database, query, **kwargs)
    )
    return {
        "pool_size": pool_size,
        "recompute_seconds": round(recompute_seconds, 6),
        "incremental_seconds": round(incremental_seconds, 6),
        "speedup": round(recompute_seconds / incremental_seconds, 2),
        "identical_results": (
            incremental.found == recompute.found
            and incremental.adjustments_tried == recompute.adjustments_tried
        ),
    }


def run_sweep(pool_sizes=tuple(POOL_SWEEP)):
    """Measure every pool size and assemble the machine-readable report."""
    results = [_measure_pool(pool_size) for pool_size in pool_sizes]
    return {
        "benchmark": "adjustment",
        "workload": "item-level ARPP over growing candidate pools "
        "(incremental apply/undo deltas vs per-candidate recompute)",
        "sizes": [pool_size for pool_size in pool_sizes],
        "results": results,
        "speedup_at_largest": results[-1]["speedup"],
        "note": "Near parity by construction: at pool 8 both sides try 37 adjustments "
        "of a 10-item database in 3-5 ms, and copying 10 rows plus re-evaluating the "
        "identity query costs about what applying and undoing one delta through the "
        "maintained view does (median ratio 1.06 over 15 runs on a 2-core VM), so a "
        "single-shot reading such as 1.71x is timer noise.",
    }


@pytest.mark.bench_full  # timing-sensitive full sweep: not a smoke test
def test_adjustment_sweep_is_tracked(record_property):
    """Writes BENCH_adjustment.json; both paths must agree on every pool size."""
    report = run_sweep()
    write_report(report, RESULTS_PATH)
    for key, value in report["results"][-1].items():
        record_property(key, value)
    assert all(row["identical_results"] for row in report["results"])


if __name__ == "__main__":
    run_cli(run_sweep, RESULTS_PATH, __doc__)
