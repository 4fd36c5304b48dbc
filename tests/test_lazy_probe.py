"""The lattice search probes ``Qc`` last, and at most once per node.

Over the enumeration differential's random problems, the constraint is
wrapped in a call-counting spy (a constraint the witness path declines, so
every verdict the memo cannot answer reaches the spy, and a memo hit marks a
second request for a node) and each search mode of
:class:`~repro.core.enumeration.PackageSearchEngine` — ``iter_valid``,
``count_valid`` and ``best_valid`` — must

* return exactly what the reference enumerator returns,
* probe no node twice, and
* never probe a node whose verdict cannot matter: a leaf (or, without the
  anti-monotone hint, any node) that fails the budget or the rating bound.

A pinned check on the 80-item serving problem makes a return to
probe-first visible in numbers: the RPP optimality search must make far
fewer probes than there are budget-feasible nodes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest

from repro.core import (
    best_valid_packages_reference,
    compute_top_k,
    enumerate_valid_packages_reference,
    is_top_k_selection,
)
from repro.core.compatibility import CompatibilityConstraint, CompatibilityOracle
from repro.core.enumeration import PackageSearchEngine
from repro.core.packages import Package
from repro.core.rpp import selection_from_items
from repro.serving.trace import serving_problem

from scenarios import probe_path, random_problem

NUM_SEEDS = 110


class SpyConstraint(CompatibilityConstraint):
    """Delegates to ``inner`` and counts the probes per package item-set."""

    def __init__(self, inner: CompatibilityConstraint) -> None:
        self.inner = inner
        self.calls: Counter = Counter()

    def is_satisfied(self, package, database) -> bool:
        self.calls[package.items] += 1
        return self.inner.is_satisfied(package, database)

    def relation_footprint(self):
        return self.inner.relation_footprint()


def _spied(problem):
    spy = SpyConstraint(problem.compatibility)
    return replace(problem, compatibility=spy), spy


def _passes(problem, package, rating_bound, strict):
    if problem.cost(package) > problem.budget:
        return False
    if rating_bound is None:
        return True
    rating = problem.val(package)
    return rating > rating_bound if strict else rating >= rating_bound


def _assert_no_wasted_probe(problem, engine, spy, rating_bound=None, strict=False):
    assert all(count == 1 for count in spy.calls.values()), "a node was probed twice"
    assert engine.oracle.hits == 0, "a node's verdict was asked for twice"
    for items in spy.calls:
        package = engine.package(items)
        if problem.antimonotone_compatibility and len(package) < engine.limit:
            continue  # the pruning hint needs this node's verdict regardless
        assert _passes(problem, package, rating_bound, strict), (
            f"probed {sorted(items)}, which fails the budget or the rating bound"
        )


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_iter_valid_probes_lazily(seed):
    problem, rating_bound = random_problem(seed)
    for bound, strict in ((None, False), (rating_bound, False), (rating_bound, True)):
        spied, spy = _spied(problem)
        engine = PackageSearchEngine(spied)
        found = frozenset(engine.iter_valid(rating_bound=bound, strict=strict))
        reference = frozenset(
            enumerate_valid_packages_reference(problem, rating_bound=bound, strict=strict)
        )
        assert found == reference
        _assert_no_wasted_probe(spied, engine, spy, bound, strict)


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_count_valid_probes_lazily(seed):
    problem, rating_bound = random_problem(seed)
    for bound in (None, rating_bound):
        spied, spy = _spied(problem)
        engine = PackageSearchEngine(spied)
        count = engine.count_valid(rating_bound=bound)
        assert count == sum(
            1 for _ in enumerate_valid_packages_reference(problem, rating_bound=bound)
        )
        _assert_no_wasted_probe(spied, engine, spy, bound)


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_best_valid_probes_lazily(seed):
    problem, _ = random_problem(seed)
    for how_many in (1, problem.k, 4):
        spied, spy = _spied(problem)
        engine = PackageSearchEngine(spied)
        scored, _, _ = engine.best_valid(how_many)
        reference = best_valid_packages_reference(problem, how_many)
        assert [package.sorted_items() for _, package in scored] == [
            package.sorted_items() for package in reference
        ]
        _assert_no_wasted_probe(spied, engine, spy)


def test_is_valid_candidate_checks_budget_and_rating_before_qc():
    outcomes = set()
    for seed in range(20):
        problem, rating_bound = random_problem(seed)
        spied, spy = _spied(problem)
        engine = PackageSearchEngine(spied)
        for item in engine.items:
            package = engine.singleton(item)
            verdict = engine.is_valid_candidate(package, rating_bound=rating_bound)
            assert verdict == problem.is_valid_package(package, rating_bound=rating_bound)
            passes = _passes(problem, package, rating_bound, False)
            assert (package.items in spy.calls) == passes
            outcomes.add(passes)
    assert outcomes == {True, False}


def _rpp_verdicts(problem):
    """The oracle after an RPP optimality check on a fresh ``problem``,
    and the number of budget-feasible nodes of its lattice."""
    frp = compute_top_k(problem)
    problem = replace(problem)  # a fresh verdict cache for the RPP run
    selection = selection_from_items(
        problem, [package.sorted_items() for package in frp.selection]
    )
    engine = PackageSearchEngine(problem)
    feasible = sum(
        1
        for size in (1, 2)
        for items in combinations(engine.items, size)
        if problem.cost(engine.package(items)) <= problem.budget
    )
    oracle = problem.compatibility_oracle()
    result = is_top_k_selection(problem, selection)
    assert result.is_top_k
    assert feasible == 782
    return oracle, feasible


def test_rpp_optimality_search_probes_far_fewer_nodes_than_it_could():
    """Pinned on the 80-item serving problem (size bound 2, Qc a CQ).

    Probe-first made one probe per budget-feasible singleton or pair; the
    lazy search probes the singletons (the anti-monotone hint needs their
    verdicts) and only the pairs rated above the selection.  The verdict
    cache is fresh, and the Qc sits behind a predicate the witness path
    declines, so every probe is a miss.
    """
    oracle, feasible = _rpp_verdicts(probe_path(serving_problem(80)))
    assert oracle.witness_verdicts == 0
    # Probe-first made 782 misses; the lazy search makes 43.
    assert oracle.misses * 10 < feasible, (oracle.misses, feasible)


def test_rpp_optimality_search_asks_far_fewer_witness_verdicts_than_it_could():
    """The witness-path twin: the same 43 verdict requests, none probed."""
    oracle, feasible = _rpp_verdicts(serving_problem(80))
    assert oracle.misses == 0 and oracle.hits == 0
    assert oracle.witness_builds == 1
    assert oracle.witness_verdicts * 10 < feasible, (oracle.witness_verdicts, feasible)
    probed, _ = _rpp_verdicts(probe_path(serving_problem(80)))
    assert oracle.witness_verdicts == probed.misses


def _count_builds_and_probes(monkeypatch):
    """Record every ``Package.trusted`` build and every oracle verdict request."""
    built, probed = [], []
    trusted = Package.trusted.__func__

    def counting_trusted(cls, schema, items, sorted_items=None):
        built.append(items)
        return trusted(cls, schema, items, sorted_items)

    is_satisfied = CompatibilityOracle.is_satisfied

    def counting_is_satisfied(self, package, tally=None):
        probed.append(package.items)
        return is_satisfied(self, package, tally)

    monkeypatch.setattr(Package, "trusted", classmethod(counting_trusted))
    monkeypatch.setattr(CompatibilityOracle, "is_satisfied", counting_is_satisfied)
    return built, probed


@pytest.mark.parametrize("path", ["witness", "probe"])
def test_a_package_is_built_only_for_a_yielded_or_probed_node(monkeypatch, path):
    """Pinned on the 40-item serving problem.

    The lattice walk builds a node's package once, and only when the node
    is yielded to a search mode that takes packages (counting takes none)
    or its verdict goes to ``oracle.is_satisfied``.  On the witness path
    that verdict is only the first walk's first one, which builds the
    index: every later walk builds exactly the packages it yields, where a
    package per examined node was built before.
    """
    problem = serving_problem(40)
    problem = (probe_path(problem) if path == "probe" else problem).pinned()
    engine = PackageSearchEngine(problem)
    built, probed = _count_builds_and_probes(monkeypatch)

    def only_yielded_and_probed(yielded):
        assert len(built) == len(set(built)), "a node's package was built twice"
        assert set(built) == set(yielded) | set(probed)
        if path == "witness":
            assert probed == []
        else:
            assert probed
        del built[:], probed[:]

    count = engine.count_valid(rating_bound=20.0)
    assert count > 0 and set(built) == set(probed)
    if path == "witness":
        assert len(probed) == 1  # the verdict that builds the index
    del built[:], probed[:]

    assert engine.count_valid(rating_bound=20.0) == count
    only_yielded_and_probed([])

    found = list(engine.iter_valid())
    only_yielded_and_probed([package.items for package in found])

    scored, examined, total = engine.best_valid(problem.k)
    if path == "witness":
        assert len(built) == total < examined  # the nodes that entered the selection
    assert len(built) == len(set(built)) and set(probed) <= set(built)
    assert total <= len(built) <= total + len(set(probed))
    del built[:], probed[:]

    selection = [package for _, package in scored]
    worst = min(rating for rating, _ in scored)
    outsider = engine.first_valid(rating_bound=worst, strict=True, exclude=selection)
    only_yielded_and_probed([] if outsider is None else [outsider.items])
