"""Tests for the POI problem solvers: enumeration, RPP, FRP, MBP, CPP, items."""

import pytest

from repro.core import (
    ExistPackOracle,
    Package,
    Selection,
    best_valid_packages,
    compute_top_k,
    compute_top_k_with_oracle,
    count_all_valid_packages,
    count_valid_packages,
    enumerate_candidate_packages,
    enumerate_valid_packages,
    exists_valid_package,
    is_maximum_bound,
    is_rating_bound,
    is_top_k_selection,
    item_recommendation_problem,
    maximum_bound,
    maximum_item_bound,
    selection_from_items,
    top_k_items,
    top_k_items_via_packages,
    count_items_above,
    is_top_k_item_selection,
)
from repro.core.enumeration import PackageSearchEngine
from repro.queries import identity_query_for
from repro.relational import Database
from repro.relational.errors import StepLimitExceeded
from repro.resilience.deadline import Deadline, deadline_scope


class TestEnumeration:
    def test_candidate_enumeration_counts(self, poi_problem):
        problem = poi_problem.with_constant_bound(2)
        candidates = list(enumerate_candidate_packages(problem))
        # 6 singletons + C(6,2) = 15 pairs
        assert len(candidates) == 21

    def test_include_empty(self, poi_problem):
        problem = poi_problem.with_constant_bound(1)
        candidates = list(enumerate_candidate_packages(problem, include_empty=True))
        assert any(package.is_empty() for package in candidates)

    def test_step_budget_bounds_the_candidate_enumeration(self, poi_problem):
        # Q(D) is evaluated before the budget, so every step is a package's.
        poi_problem.candidate_pool()
        with deadline_scope(Deadline()) as unbounded:
            candidates = list(enumerate_candidate_packages(poi_problem))
        steps = unbounded.steps
        assert steps == len(candidates) > 0
        with deadline_scope(Deadline(max_steps=steps)):
            assert list(enumerate_candidate_packages(poi_problem)) == candidates
        with deadline_scope(Deadline(max_steps=steps - 1)), pytest.raises(StepLimitExceeded):
            list(enumerate_candidate_packages(poi_problem))

    def test_valid_enumeration_respects_all_conditions(self, poi_problem):
        for package in enumerate_valid_packages(poi_problem):
            assert poi_problem.is_valid_package(package)

    def test_valid_enumeration_with_rating_bound(self, poi_problem):
        free_only = list(enumerate_valid_packages(poi_problem, rating_bound=0.0))
        assert free_only
        assert all(poi_problem.val(package) >= 0.0 for package in free_only)

    def test_pruning_does_not_lose_packages(self, poi_problem):
        """The pruned DFS must find exactly the same valid packages as brute force."""
        pruned = {p for p in enumerate_valid_packages(poi_problem)}
        from dataclasses import replace

        exhaustive_problem = replace(
            poi_problem, monotone_cost=False, antimonotone_compatibility=False
        )
        brute = {p for p in enumerate_valid_packages(exhaustive_problem)}
        assert pruned == brute

    def test_exclusion(self, poi_problem):
        first = exists_valid_package(poi_problem)
        second = exists_valid_package(poi_problem, exclude=[first])
        assert second is not None and second != first

    def test_exists_valid_package_none_when_impossible(self, poi_problem):
        assert exists_valid_package(poi_problem, rating_bound=1000.0) is None

    def test_best_valid_packages_sorted(self, poi_problem):
        best = best_valid_packages(poi_problem, 3)
        ratings = [poi_problem.val(package) for package in best]
        assert ratings == sorted(ratings, reverse=True)


class TestRPP:
    def test_computed_selection_passes(self, poi_problem):
        result = compute_top_k(poi_problem)
        assert is_top_k_selection(poi_problem, result.selection).is_top_k

    def test_wrong_size_selection(self, poi_problem):
        single = Selection([poi_problem.package_from_items([("high_line", "park", 0, 2)])])
        outcome = is_top_k_selection(poi_problem, single)
        assert not outcome.is_top_k
        assert "expected k" in outcome.reason

    def test_duplicate_packages_rejected(self, poi_problem):
        package = poi_problem.package_from_items([("high_line", "park", 0, 2)])
        outcome = is_top_k_selection(poi_problem, [package, package])
        assert not outcome.is_top_k
        assert "distinct" in outcome.reason

    def test_invalid_package_rejected(self, poi_problem):
        packages = [
            poi_problem.package_from_items([("met", "museum", 25, 3), ("moma", "museum", 25, 2)]),
            poi_problem.package_from_items([("high_line", "park", 0, 2)]),
        ]
        outcome = is_top_k_selection(poi_problem, packages)
        assert not outcome.is_top_k
        assert outcome.invalid_package is not None

    def test_dominated_selection_rejected_with_counterexample(self, poi_problem):
        expensive = [
            poi_problem.package_from_items([("broadway", "theater", 120, 3)]),
            poi_problem.package_from_items([("met", "museum", 25, 3)]),
        ]
        outcome = is_top_k_selection(poi_problem, expensive)
        assert not outcome.is_top_k
        assert outcome.counterexample is not None
        assert poi_problem.val(outcome.counterexample) > poi_problem.min_rating(
            Selection(expensive)
        )

    def test_selection_from_items_helper(self, poi_problem):
        selection = selection_from_items(
            poi_problem, [[("high_line", "park", 0, 2)], [("central_park", "park", 0, 3)]]
        )
        assert len(selection) == 2


class TestFRP:
    def test_top_k_ratings_descend(self, poi_problem):
        result = compute_top_k(poi_problem)
        assert result.found
        assert list(result.ratings) == sorted(result.ratings, reverse=True)

    def test_not_enough_packages_returns_none(self, poi_problem):
        impossible = poi_problem.with_budget(0).with_k(2)
        result = compute_top_k(impossible)
        assert not result.found

    def test_oracle_solver_agrees_with_exhaustive(self, poi_problem):
        exhaustive = compute_top_k(poi_problem)
        oracle = compute_top_k_with_oracle(poi_problem)
        assert oracle.found
        assert list(oracle.ratings) == list(exhaustive.ratings)
        assert oracle.oracle_calls > 0

    def test_oracle_object_counts_calls(self, poi_problem):
        oracle = ExistPackOracle(poi_problem)
        assert oracle.exists(-100.0)
        assert not oracle.exists(100.0)
        assert oracle.calls == 2
        oracle.reset_counter()
        assert oracle.calls == 0

    def test_top_rated_packages_never_none(self, poi_problem):
        from repro.core import top_rated_packages

        packages = top_rated_packages(poi_problem.with_budget(0), 3)
        assert packages == ()


class TestMBPAndCPP:
    def test_maximum_bound_matches_kth_rating(self, poi_problem):
        result = compute_top_k(poi_problem)
        bound = maximum_bound(poi_problem)
        assert bound == result.ratings[-1]

    def test_is_maximum_bound(self, poi_problem):
        bound = maximum_bound(poi_problem)
        assert is_maximum_bound(poi_problem, bound).is_maximum_bound
        too_low = is_maximum_bound(poi_problem, bound - 5)
        assert not too_low.is_maximum_bound and too_low.is_bound
        too_high = is_maximum_bound(poi_problem, bound + 5)
        assert not too_high.is_maximum_bound

    def test_is_rating_bound(self, poi_problem):
        assert is_rating_bound(poi_problem, -1000.0)
        assert not is_rating_bound(poi_problem, 1000.0)

    def test_maximum_bound_none_when_no_selection(self, poi_problem):
        assert maximum_bound(poi_problem.with_budget(0)) is None

    def test_cpp_counts_and_histogram(self, poi_problem):
        result = count_valid_packages(poi_problem, -1000.0)
        assert result.count == sum(count for _, count in result.by_size)
        assert result.count == count_all_valid_packages(poi_problem)
        assert count_valid_packages(poi_problem, 1000.0).count == 0

    def test_cpp_monotone_in_bound(self, poi_problem):
        low = count_valid_packages(poi_problem, -1000.0).count
        high = count_valid_packages(poi_problem, 0.0).count
        assert high <= low

    def test_raw_counter_matches_cpp(self, poi_problem):
        raw = PackageSearchEngine(poi_problem).count_valid(rating_bound=-1000.0)
        assert raw == count_valid_packages(poi_problem, -1000.0).count


class TestItems:
    def test_direct_and_embedded_agree(self, poi_database):
        query = identity_query_for(poi_database.relation("poi"))
        utility = lambda item: -float(item[2])
        direct = top_k_items(poi_database, query, utility, 3)
        embedded = top_k_items_via_packages(poi_database, query, utility, 3)
        assert direct.found and embedded.found
        assert set(direct.items) == set(embedded.items)
        assert list(direct.utilities) == list(embedded.utilities)

    def test_direct_and_embedded_break_utility_ties_alike(self):
        # repr order would pick (10,), (11,) ("10" < "11" < "9"); the package
        # embedding breaks ties by row_sort_key, numerically.
        database = Database()
        relation = database.create_relation("r", ["n"], [(9,), (10,), (11,)])
        query = identity_query_for(relation)
        direct = top_k_items(database, query, lambda item: 1.0, 2)
        embedded = top_k_items_via_packages(database, query, lambda item: 1.0, 2)
        assert set(direct.items) == set(embedded.items) == {(9,), (10,)}
        assert is_top_k_item_selection(database, query, lambda item: 1.0, direct.items)

    def test_not_enough_items(self, poi_database):
        query = identity_query_for(poi_database.relation("poi"))
        result = top_k_items(poi_database, query, lambda item: 0.0, 99)
        assert not result.found

    def test_is_top_k_item_selection(self, poi_database):
        query = identity_query_for(poi_database.relation("poi"))
        utility = lambda item: -float(item[2])
        best = top_k_items(poi_database, query, utility, 2)
        assert is_top_k_item_selection(poi_database, query, utility, best.items)
        assert not is_top_k_item_selection(
            poi_database, query, utility, [("met", "museum", 25, 3), ("moma", "museum", 25, 2)]
        )
        # duplicates rejected
        assert not is_top_k_item_selection(
            poi_database, query, utility, [best.items[0], best.items[0]]
        )

    def test_maximum_item_bound_and_count(self, poi_database):
        query = identity_query_for(poi_database.relation("poi"))
        utility = lambda item: -float(item[2])
        assert maximum_item_bound(poi_database, query, utility, 2) == 0.0
        assert count_items_above(poi_database, query, utility, 0.0) == 2
        assert maximum_item_bound(poi_database, query, utility, 99) is None
