"""Differential tests: the package-lattice search engine against the
pre-engine recursive enumerator.

Property-based in the seeded-random style of ``test_evaluator_differential``:
every case derives a random recommendation problem from an integer seed
through the shared scenario kit (:mod:`scenarios`) — random item database,
cost/rating functions drawn from the standard function classes, compatibility
as a predicate or as a real ``Qc`` query over ``RQ``, random budget and size
bound — evaluates it through the production path
(:class:`repro.core.enumeration.PackageSearchEngine` and the solvers riding
it) and through the retained reference path
(:func:`repro.core.enumeration.enumerate_valid_packages_reference`, the
historical per-node-revalidating DFS), and asserts:

* identical valid-package multisets (with and without a rating bound, strict
  and non-strict),
* identical counts (the non-materializing CPP scan against a reference tally),
* identical ``best_valid_packages`` results *including tie-breaking* (the
  branch-and-bound mode against the exhaustive reference sort), and
* identical solver answers (RPP verdicts, CPP counts and histograms, FRP
  selections, MBP maximum bounds, EXISTPACK witnesses, QRPP/ARPP answers)
  with the pruning hints on or off and with verdicts witness-served or
  probed (:func:`scenarios.probe_path`).

Across the parametrized seeds the suite covers well over 100 generated
problems; any divergence fails with the seed in the test id, so a mismatch is
reproducible by construction.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Tuple

import pytest

from repro.adjustment.arpp import find_package_adjustment
from repro.core import (
    CountCost,
    CountRating,
    PredicateConstraint,
    QueryConstraint,
    best_valid_packages,
    best_valid_packages_reference,
    compute_top_k,
    count_valid_packages,
    enumerate_valid_packages,
    enumerate_valid_packages_reference,
    exists_valid_package,
    is_top_k_selection,
    maximum_bound,
)
from repro.core.enumeration import PackageSearchEngine
from repro.core.model import PolynomialBound, RecommendationProblem
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.queries.ast import Comparison, ComparisonOp, RelationAtom, Var
from repro.queries.cq import ConjunctiveQuery
from repro.relational.database import Database
from repro.relational.errors import StepLimitExceeded
from repro.relaxation.qrpp import find_package_relaxation
from repro.relaxation.relax import RelaxationSpace
from repro.resilience.deadline import Deadline, deadline_scope

from scenarios import probe_path, random_problem

NUM_DIFFERENTIAL_SEEDS = 110


def _random_problem(seed: int) -> Tuple[RecommendationProblem, float]:
    """A random problem + rating bound from the shared scenario kit."""
    return random_problem(seed)


def _unpruned(problem: RecommendationProblem) -> RecommendationProblem:
    return replace(
        problem, monotone_cost=False, antimonotone_compatibility=False, monotone_val=False
    )


def _package_set(iterator):
    return frozenset(iterator)


def _rendered(packages):
    """Packages as sorted item tuples — the byte-level comparison the suite pins."""
    return [package.sorted_items() for package in packages]


# ---------------------------------------------------------------------------
# Enumeration, counting and top-k against the reference path
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(NUM_DIFFERENTIAL_SEEDS))
def test_engine_matches_reference(seed):
    problem, rating_bound = _random_problem(seed)

    engine_all = _package_set(enumerate_valid_packages(problem))
    reference_all = _package_set(enumerate_valid_packages_reference(problem))
    assert engine_all == reference_all

    # The hints must never change the answer, only the work.
    assert _package_set(enumerate_valid_packages(_unpruned(problem))) == reference_all

    # Rating-bounded enumeration, strict and non-strict.
    for strict in (False, True):
        engine_bounded = _package_set(
            enumerate_valid_packages(problem, rating_bound=rating_bound, strict=strict)
        )
        reference_bounded = _package_set(
            enumerate_valid_packages_reference(
                problem, rating_bound=rating_bound, strict=strict
            )
        )
        assert engine_bounded == reference_bounded

    # The non-materializing count agrees with a reference tally.
    assert PackageSearchEngine(problem).count_valid(rating_bound=rating_bound) == len(
        _package_set(
            enumerate_valid_packages_reference(problem, rating_bound=rating_bound)
        )
    )

    # Top-k with exact tie-breaking: branch-and-bound against exhaustive sort.
    for how_many in (1, problem.k, len(reference_all) + 1):
        engine_best = best_valid_packages(problem, how_many)
        reference_best = best_valid_packages_reference(problem, how_many)
        assert _rendered(engine_best) == _rendered(reference_best)
        assert [problem.val(p) for p in engine_best] == [
            problem.val(p) for p in reference_best
        ]
        # ... and pruning off changes nothing.
        assert _rendered(best_valid_packages(_unpruned(problem), how_many)) == _rendered(
            reference_best
        )


@pytest.mark.parametrize("seed", range(0, NUM_DIFFERENTIAL_SEEDS, 4))
def test_engine_matches_reference_on_the_probe_path(seed):
    problem, rating_bound = _random_problem(seed)
    probed = probe_path(problem)
    assert _package_set(enumerate_valid_packages(probed)) == _package_set(
        enumerate_valid_packages_reference(problem)
    )
    assert PackageSearchEngine(probed).count_valid(
        rating_bound=rating_bound
    ) == PackageSearchEngine(problem).count_valid(rating_bound=rating_bound)
    assert _rendered(best_valid_packages(probed, problem.k)) == _rendered(
        best_valid_packages_reference(problem, problem.k)
    )


@pytest.mark.parametrize("seed", range(0, NUM_DIFFERENTIAL_SEEDS, 4))
def test_excluded_packages_are_skipped_identically(seed):
    problem, _ = _random_problem(seed)
    all_packages = sorted(
        enumerate_valid_packages_reference(problem), key=lambda p: p.sort_key()
    )
    if not all_packages:
        pytest.skip("no valid packages under this seed")
    exclude = all_packages[:: max(1, len(all_packages) // 3)]
    engine_rest = _package_set(enumerate_valid_packages(problem, exclude=exclude))
    reference_rest = _package_set(
        enumerate_valid_packages_reference(problem, exclude=exclude)
    )
    assert engine_rest == reference_rest
    assert engine_rest == _package_set(all_packages) - _package_set(exclude)


# ---------------------------------------------------------------------------
# The step budget, on all three search modes
# ---------------------------------------------------------------------------
SEARCH_MODES = {
    "iter_valid": lambda engine, bound: list(engine.iter_valid(rating_bound=bound)),
    "count_valid": lambda engine, bound: engine.count_valid(rating_bound=bound),
    "best_valid": lambda engine, bound: engine.best_valid(engine.problem.k),
}


@pytest.mark.parametrize("mode", sorted(SEARCH_MODES))
@pytest.mark.parametrize("seed", range(0, NUM_DIFFERENTIAL_SEEDS, 11))
def test_step_budget_fires_exactly_past_the_search_size(seed, mode):
    """``Deadline(max_steps=N)`` raises iff the search examines more than N
    nodes.  Each run is on a fresh problem whose ``Q(D)`` is evaluated
    before the budget, so no run reuses another's verdicts and the walk's
    one step per examined node is all it charges: these seeds' verdicts are
    witness-served or predicates, which charge the request nothing."""
    search = SEARCH_MODES[mode]

    def run(max_steps):
        problem, rating_bound = _random_problem(seed)
        problem.candidate_pool()
        engine = PackageSearchEngine(problem)
        with deadline_scope(Deadline(max_steps=max_steps)) as budget:
            return search(engine, rating_bound), budget.steps

    registry = MetricsRegistry()
    with use_metrics(registry):
        unbounded, steps = run(None)
    examined = registry.counter("engine.nodes.examined")
    assert steps == examined > 0
    if mode == "best_valid":
        assert unbounded[1] == examined
    # A budget equal to (or above) the search's own steps never fires.
    assert run(steps) == (unbounded, steps)
    assert run(steps + 1) == (unbounded, steps)
    for limit in sorted({0, steps // 2, steps - 1}):
        with pytest.raises(StepLimitExceeded):
            run(limit)


# ---------------------------------------------------------------------------
# Solver-level equality
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(0, NUM_DIFFERENTIAL_SEEDS, 3))
def test_solvers_agree_with_reference_search(seed):
    problem, rating_bound = _random_problem(seed)
    reference_all = list(enumerate_valid_packages_reference(problem))

    # FRP: selection, ratings and existence track the reference top-k exactly.
    frp = compute_top_k(problem)
    reference_best = best_valid_packages_reference(problem, problem.k)
    if len(reference_all) < problem.k:
        assert not frp.found
    else:
        assert frp.found
        assert _rendered(frp.selection) == _rendered(reference_best)
        assert list(frp.ratings) == [problem.val(p) for p in reference_best]
        # RPP accepts the computed selection and rejects nothing about it
        # differently with pruning off.
        verdict = is_top_k_selection(problem, frp.selection)
        assert verdict.is_top_k
        assert is_top_k_selection(_unpruned(problem), frp.selection).is_top_k

    # CPP count against the raw reference tally.
    cpp_result = count_valid_packages(problem, rating_bound)
    assert cpp_result.count == sum(
        1 for p in reference_all if problem.val(p) >= rating_bound
    )
    assert cpp_result.count == sum(count for _, count in cpp_result.by_size)

    # MBP: the maximum bound is the k-th largest reference rating.
    bound = maximum_bound(problem)
    ratings = sorted((problem.val(p) for p in reference_all), reverse=True)
    assert bound == (ratings[problem.k - 1] if len(ratings) >= problem.k else None)

    # EXISTPACK: witness existence agrees; any witness is genuinely valid.
    witness = exists_valid_package(problem, rating_bound=rating_bound)
    reference_exists = any(problem.val(p) >= rating_bound for p in reference_all)
    assert (witness is not None) == reference_exists
    if witness is not None:
        assert problem.is_valid_package(witness, rating_bound=rating_bound)


@pytest.mark.parametrize("seed", range(0, NUM_DIFFERENTIAL_SEEDS, 10))
def test_cpp_result_identical_across_pruning_and_caching(seed):
    from repro.core.cpp import count_valid_packages as cpp_count

    problem, rating_bound = _random_problem(seed)
    baseline = cpp_count(problem, rating_bound)
    for variant in (
        _unpruned(problem),
        probe_path(problem),
        probe_path(_unpruned(problem)),
    ):
        result = cpp_count(variant, rating_bound)
        assert result.count == baseline.count
        assert result.by_size == baseline.by_size


# ---------------------------------------------------------------------------
# QRPP / ARPP: identical answers with pruning on or off and on every verdict path
# ---------------------------------------------------------------------------
def _clash_qc() -> QueryConstraint:
    """``clash() :- RQ(n1, r1), RQ(n2, r2), r1 < 7, r2 > 7``: no low and high rating together."""
    n1, r1, n2, r2 = Var("n1"), Var("r1"), Var("n2"), Var("r2")
    clash = ConjunctiveQuery(
        [],
        [RelationAtom("RQ", [n1, r1]), RelationAtom("RQ", [n2, r2])],
        [Comparison(ComparisonOp.LT, r1, 7), Comparison(ComparisonOp.GT, r2, 7)],
        name="clash",
    )
    return QueryConstraint(clash, answer_relation="RQ")


def _verdict_paths(problem: RecommendationProblem):
    """``problem`` with witness-served verdicts, on the probe path, and behind a
    predicate of unknown footprint (whose memo clears on every database change)."""
    qc = problem.compatibility
    unknown_footprint = PredicateConstraint(qc.is_satisfied, qc.describe(), relations=None)
    return (
        problem,
        probe_path(problem),
        replace(problem, compatibility=unknown_footprint),
    )


def _shop_problem(database: Database, city: str, k: int = 1) -> RecommendationProblem:
    query = ConjunctiveQuery(
        [Var("name"), Var("rating")],
        [RelationAtom("shop", [Var("name"), city, Var("rating")])],
        name="city_shops",
    )
    return RecommendationProblem(
        database=database,
        query=query,
        cost=CountCost(),
        val=CountRating(),
        budget=2.0,
        k=k,
        size_bound=PolynomialBound(1.0, 1),
        monotone_cost=True,
        monotone_val=True,
        name="shops in a city",
        compatibility=_clash_qc(),
    )


@pytest.fixture
def shops() -> Database:
    database = Database()
    database.create_relation(
        "shop",
        ["name", "city", "rating"],
        [("alpha", "nyc", 8), ("beta", "nyc", 6), ("gamma", "bos", 9)],
    )
    return database


def _qrpp_answer(problem, space):
    result = find_package_relaxation(problem, space, rating_bound=2.0, max_gap=10.0)
    witnesses = _rendered(result.witnesses) if result.witnesses is not None else None
    return (result.found, result.gap, witnesses, result.relaxations_tried)


def test_qrpp_answers_identical_across_engine_configurations(shops):
    problem = _shop_problem(shops, "sfo")  # no shop in sfo: relaxation required
    space = RelaxationSpace.for_constants(problem.query, include=["sfo"])
    witness, probed, unknown_footprint = _verdict_paths(problem)
    baseline = _qrpp_answer(witness, space)
    # Relaxing the city succeeds, and the clash turns the pair alpha-beta down.
    assert baseline[0] and baseline[2] == [(("alpha", 8), ("gamma", 9))]
    for variant in (_unpruned(problem), probed, unknown_footprint):
        assert _qrpp_answer(variant, space) == baseline
    assert witness.compatibility_oracle().witness_verdicts > 0
    assert probed.compatibility_oracle().witness_verdicts == 0
    assert probed.compatibility_oracle().misses > 0


def _arpp_answer(problem, additions):
    result = find_package_adjustment(
        problem, additions, rating_bound=2.0, max_changes=2
    )
    witnesses = _rendered(result.witnesses) if result.witnesses is not None else None
    modifications = (
        tuple(result.adjustment.modifications) if result.adjustment is not None else None
    )
    return (result.found, result.size, modifications, witnesses, result.adjustments_tried)


def test_arpp_answers_identical_across_engine_configurations(shops):
    # alpha (8) and beta (6) clash, so nyc needs an insertion for a pair.
    problem = _shop_problem(shops, "nyc", k=1)
    additions = Database()
    additions.create_relation(
        "shop", ["name", "city", "rating"], [("delta", "nyc", 7), ("epsilon", "nyc", 9)]
    )
    witness, probed, unknown_footprint = _verdict_paths(problem)
    baseline = _arpp_answer(witness, additions)
    assert baseline[0] and baseline[1] == 1
    for variant in (_unpruned(problem), probed, unknown_footprint):
        assert _arpp_answer(variant, additions) == baseline
    # The three arms agree along different paths.
    served = witness.compatibility_oracle()
    assert served.witness_builds == 1 and served.witness_verdicts > 0
    assert served.witness_declines > 0
    assert probed.compatibility_oracle().witness_verdicts == 0
    assert probed.compatibility_oracle().retentions > 0
    assert unknown_footprint.compatibility_oracle().invalidations > 0


# ---------------------------------------------------------------------------
# Regressions for branch-and-bound edge cases
# ---------------------------------------------------------------------------
def test_branch_and_bound_with_infinite_budget():
    """An unbounded budget must disable the affordability cap, not crash."""
    import math

    problem, _ = _random_problem(7)
    unbounded = replace(
        problem, budget=math.inf, monotone_cost=False, monotone_val=True
    )
    engine_best = best_valid_packages(unbounded, 2)
    reference_best = best_valid_packages_reference(unbounded, 2)
    assert _rendered(engine_best) == _rendered(reference_best)


def test_branch_and_bound_with_infinite_empty_rating():
    """A rating with val(∅) = -∞ must not poison the root bound.

    Per-item gains are only admissible between non-empty packages; the
    engine's root level must therefore never prune through them, or the jump
    from -∞ to the first item silently truncates the top-k.
    """
    import math

    from repro.core.functions import AttributeSumRating

    problem, _ = _random_problem(11)
    poisoned = replace(
        problem,
        val=AttributeSumRating("quality", empty_value=-math.inf),
        monotone_val=True,  # still truthful: val never decreases when adding items
    )
    engine_best = best_valid_packages(poisoned, 2)
    reference_best = best_valid_packages_reference(poisoned, 2)
    assert _rendered(engine_best) == _rendered(reference_best)


@pytest.mark.parametrize("seed", range(0, NUM_DIFFERENTIAL_SEEDS, 7))
def test_generic_monotone_bound_without_item_gains(seed):
    """The gain-less branch-and-bound fallback (val(node ∪ remaining)) is exact.

    ``CallableRating`` exposes no ``item_gain``, so a monotone problem built
    on it exercises the generic suffix-set bound of ``best_valid`` instead of
    the positive-gain tables.
    """
    from repro.core.functions import CallableRating

    problem, _ = _random_problem(seed)
    quality_index = 3  # the synthetic items schema is (iid, category, price, quality)
    monotone = replace(
        problem,
        # Additive and non-negative, hence genuinely monotone — but opaque.
        val=CallableRating(
            lambda package: float(sum(item[quality_index] for item in package.items)),
            "opaque total quality",
        ),
        monotone_val=True,
    )
    engine_best = best_valid_packages(monotone, 2)
    reference_best = best_valid_packages_reference(monotone, 2)
    assert _rendered(engine_best) == _rendered(reference_best)


def test_malformed_greedy_seed_fails_loudly():
    """A seed item of the wrong arity raises, as the validating path used to."""
    from repro.core.heuristics import greedy_package
    from repro.relational.errors import IntegrityError

    problem, _ = _random_problem(3)
    with pytest.raises(IntegrityError):
        greedy_package(problem, seed_item=("wrong", "arity"))


def test_suite_covers_at_least_100_problems():
    """The acceptance criterion: 100+ generated random problems."""
    assert NUM_DIFFERENTIAL_SEEDS >= 100
