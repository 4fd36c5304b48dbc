"""Rating-bounded walks cut by ``monotone_val`` and answer as the uncut walk.

With a rating bound ``B`` and a problem that declares ``monotone_val``,
``iter_valid``, ``first_valid`` and ``count_valid`` (the RPP outsider
search, CPP and EXISTPACK) skip every lattice subtree whose admissible
rating bound falls below ``B``.  A skipped subtree holds no package rated
``B`` or more, so each search yields the same packages in the same order,
and counts the same, as the same problem with ``monotone_val=False``.  The
random problems come from :func:`scenarios.random_problem`; the cases after
them aim at the corners of the bound: a bound a package meets exactly, a
size bound above two (and the tables themselves), a non-positive item cost,
a budget too large to divide by an item's cost, float sums that round, an
excluded package alone at the bound and a rating without per-item gains.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import is_top_k_selection
from repro.core.compatibility import EmptyConstraint
from repro.core.enumeration import PackageSearchEngine, best_valid_packages
from repro.core.functions import AttributeSumCost, AttributeSumRating, CallableRating
from repro.core.model import ConstantBound, RecommendationProblem
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.relational.database import Database
from repro.serving import overload_problem, serving_problem
from repro.workloads.synthetic import ITEM_ATTRIBUTES, ITEMS, item_selection_query

from scenarios import random_problem

SEEDS = [seed for seed in range(160) if random_problem(seed)[0].monotone_val]


def _uncut(problem: RecommendationProblem) -> RecommendationProblem:
    return replace(problem, monotone_val=False)


def _examined(run) -> int:
    registry = MetricsRegistry()
    with use_metrics(registry):
        run()
    return registry.counter("engine.nodes.examined")


def _answers(problem: RecommendationProblem, bound: float, strict: bool, exclude=()):
    """Every rating-bounded search mode's answer, rendered."""
    engine = PackageSearchEngine(problem)
    found = engine.iter_valid(rating_bound=bound, strict=strict, exclude=exclude)
    first = engine.first_valid(rating_bound=bound, strict=strict, exclude=exclude)
    return (
        [package.sorted_items() for package in found],
        None if first is None else first.sorted_items(),
        engine.count_valid(rating_bound=bound, strict=strict, by_size=True),
    )


def _achieved(problem: RecommendationProblem):
    """Every rating a valid package of ``problem`` reaches, ascending."""
    return sorted(set(PackageSearchEngine(_uncut(problem)).valid_ratings()))


def _assert_cut_as_uncut(problem: RecommendationProblem, bounds, exclude=()):
    """Same answers at every bound, strict and not; the cut walks examine
    no more nodes.  Returns the examined nodes, cut and uncut."""
    assert problem.monotone_val
    uncut = _uncut(problem)
    totals = [0, 0]
    for bound in bounds:
        for strict in (False, True):
            cut_nodes = _examined(lambda: _answers(problem, bound, strict, exclude))
            uncut_nodes = _examined(lambda: _answers(uncut, bound, strict, exclude))
            assert _answers(problem, bound, strict, exclude) == _answers(
                uncut, bound, strict, exclude
            ), (bound, strict)
            assert cut_nodes <= uncut_nodes
            totals[0] += cut_nodes
            totals[1] += uncut_nodes
    return tuple(totals)


def _items_database(rows) -> Database:
    database = Database()
    database.create_relation(ITEMS, list(ITEM_ATTRIBUTES), rows)
    return database


def _problem(rows, **fields) -> RecommendationProblem:
    settings = dict(
        database=_items_database(rows),
        query=item_selection_query(),
        cost=AttributeSumCost("price"),
        val=AttributeSumRating("quality"),
        budget=40.0,
        k=1,
        compatibility=EmptyConstraint(),
        size_bound=ConstantBound(3),
        monotone_cost=True,
        antimonotone_compatibility=True,
        monotone_val=True,
    )
    settings.update(fields)
    return RecommendationProblem(**settings)


# ---------------------------------------------------------------------------
# Random problems
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_a_cut_walk_answers_as_the_uncut_walk(seed):
    """At the drawn bound and at every rating a valid package reaches."""
    problem, bound = random_problem(seed)
    _assert_cut_as_uncut(problem, sorted({bound, *_achieved(problem)}))


def test_the_random_problems_do_get_cut():
    """The differential above is not vacuous: across its seeds the cut
    walks examine fewer nodes."""
    cut = uncut = 0
    for seed in SEEDS:
        problem, bound = random_problem(seed)
        for strict in (False, True):
            cut += _examined(lambda: _answers(problem, bound, strict))
            uncut += _examined(lambda: _answers(_uncut(problem), bound, strict))
    assert len(SEEDS) >= 50 and cut < uncut


# ---------------------------------------------------------------------------
# Corners of the bound
# ---------------------------------------------------------------------------
def test_a_bound_a_package_meets_exactly():
    """Each achieved rating as the bound: ``≥`` keeps the packages at it and
    ``>`` drops them, cut or not."""
    problem = serving_problem(24, seed=3)
    ratings = _achieved(problem)
    cut, uncut = _assert_cut_as_uncut(problem, ratings)
    assert len(ratings) > 10 and cut < uncut


def test_a_size_bound_of_three_cuts_on_the_sum_of_the_largest_gains():
    """Up to two more items per node (``m > 1``), capped by the budget."""
    problem = overload_problem(20, seed=1)
    engine = PackageSearchEngine(problem)
    tables = engine._bound_tables()
    assert engine.limit == 3 and tables.min_delta is not None
    cut, uncut = _assert_cut_as_uncut(problem, _achieved(problem)[::3])
    assert cut < uncut


@pytest.mark.parametrize(
    "build",
    [lambda: serving_problem(24, seed=3), lambda: overload_problem(20, seed=1)],
    ids=["m2", "m3"],
)
def test_the_bound_tables_hold_what_they_define(build):
    """``suffix_top[m][i]`` sums the ``m`` largest positive gains among
    ``items[i:]`` (all of them when fewer), largest first, and
    ``min_delta[i]`` is the cheapest item from ``i`` on."""
    problem = build()
    engine = PackageSearchEngine(problem)
    tables = engine._bound_tables()
    gains = problem.val.item_gain(engine.schema)
    deltas = [problem.cost.item_delta(engine.schema)(item) for item in engine.items]
    count = len(engine.items)
    assert len(tables.suffix_top) == engine.limit + 1
    for i in range(count + 1):
        ahead = sorted((max(0.0, gains(item)) for item in engine.items[i:]), reverse=True)
        for m in range(engine.limit + 1):
            total = 0.0
            for gain in ahead[:m]:
                total += gain
            assert tables.suffix_top[m][i] == total, (m, i)
        assert tables.min_delta[i] == min(deltas[i:], default=float("inf"))
    assert list(tables.deltas) == deltas


def test_a_non_positive_item_cost_turns_the_budget_cap_off():
    """A free item defeats the affordability cap; the gains still cut."""
    rows = [
        (0, "a", 0, 5),
        (1, "b", 12, 9),
        (2, "c", 7, 2),
        (3, "a", 20, 14),
        (4, "d", 3, 11),
        (5, "b", 9, 1),
        (6, "c", 15, 7),
    ]
    problem = _problem(rows)
    engine = PackageSearchEngine(problem)
    tables = engine._bound_tables()
    assert tables.deltas is None and tables.min_delta is None
    cut, uncut = _assert_cut_as_uncut(problem, _achieved(problem))
    assert cut < uncut


def test_a_budget_past_the_largest_quotient_affords_every_item():
    """``1e308 // 0.5`` is ``+∞``: the cap must compare it, never convert it
    to an int (which raised ``OverflowError`` in top-k)."""
    rows = [(i, "abcd"[i % 4], 0.5, 1 + i % 5) for i in range(6)]
    problem = _problem(rows, budget=1e308)
    assert PackageSearchEngine(problem)._bound_tables().min_delta is not None
    top = [package.sorted_items() for package in best_valid_packages(problem, 2)]
    assert top == [package.sorted_items() for package in best_valid_packages(_uncut(problem), 2)]
    _assert_cut_as_uncut(problem, _achieved(problem))


def test_float_sums_that_round_still_meet_their_bound():
    """``0.1 + (0.2 + 0.3)`` is ``0.6`` but the walk's fold gives
    ``(0.1 + 0.2) + 0.3``, one ULP higher: the gain bound of ``{0.1}``'s
    subtree falls an ULP below that package's rating.  The threshold's
    slack keeps the subtree, so the package still meets a bound equal to
    its own rating."""
    rows = [(i, "abcd"[i % 4], 1, quality) for i, quality in enumerate((0.1, 0.2, 0.3, 0.05))]
    problem = _problem(rows, budget=10.0)
    engine = PackageSearchEngine(problem)
    fold = (0.1 + 0.2) + 0.3
    assert fold > 0.1 + (0.2 + 0.3) and fold in _achieved(problem)
    found = [package.sorted_items() for package in engine.iter_valid(rating_bound=fold)]
    assert ((0, "a", 1, 0.1), (1, "b", 1, 0.2), (2, "c", 1, 0.3)) in found
    _assert_cut_as_uncut(problem, _achieved(problem))


def test_an_excluded_package_alone_at_the_bound():
    """The bound knows nothing of the exclusion: the subtree holding the
    excluded package is walked, and no package is found."""
    rows = [(0, "a", 4, 3), (1, "b", 6, 8), (2, "c", 5, 9), (3, "d", 8, 2), (4, "a", 7, 4)]
    problem = _problem(rows, size_bound=ConstantBound(2), budget=12.0)
    (best,) = best_valid_packages(problem, 1)
    top = problem.val(best)
    assert _achieved(problem).count(top) == 1
    assert PackageSearchEngine(problem).first_valid(rating_bound=top, exclude=[best]) is None
    _assert_cut_as_uncut(problem, _achieved(problem), exclude=[best])


def test_a_rating_without_gains_cuts_on_the_generic_bound():
    """A monotone rating without ``item_gain`` is bounded by the rating of
    the node united with every item still ahead."""
    rows = [(i, "abcd"[i % 4], 2 + i % 5, 1 + (7 * i) % 11) for i in range(9)]
    squares = CallableRating(lambda package: sum(q * q for q in package.column("quality")))
    problem = _problem(rows, val=squares, budget=14.0)
    assert PackageSearchEngine(problem)._bound_tables() is None
    cut, uncut = _assert_cut_as_uncut(problem, _achieved(problem)[::2])
    assert cut < uncut


def test_the_serving_rpp_check_walks_under_a_quarter_of_its_lattice():
    """The RPP check of the serving problem's own top-k only looks for a
    package rated above it: every subtree the gains rule out is skipped."""
    problem = serving_problem(80, seed=1)
    top = best_valid_packages(problem, problem.k)
    items = len(problem.candidate_pool().items)
    lattice = items + items * (items - 1) // 2
    registry = MetricsRegistry()
    with use_metrics(registry):
        assert is_top_k_selection(problem, top).is_top_k
    assert lattice > 1000
    assert registry.counter("engine.nodes.examined") * 4 < lattice
