"""Cost, rating and utility functions.

The paper only assumes ``cost()`` and ``val()`` are PTIME-computable functions
from packages to the reals, and ``f()`` a PTIME utility function on items.
This module provides the concrete functions used by the paper's examples and
reductions:

* counting costs (``cost(N) = |N|`` with ``cost(∅) = ∞`` so that the empty
  package is never recommended),
* attribute-sum costs (total visiting time of the POIs in a travel plan),
* constant ratings, attribute-sum ratings with either orientation (the paper's
  travel rating is *anti*-monotone in total price: the cheaper the better),
* weighted combinations, and
* adapters turning an item utility ``f()`` into the package functions of the
  item-recommendation special case.

All functions are small classes with a ``describe()`` method so benches and
examples can print what they measured.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.packages import Package
from repro.relational.database import Row
from repro.relational.schema import Value

#: ``cost(∅) = ∞`` in most of the paper's constructions.
INFINITY = math.inf

PackageFunction = Callable[[Package], float]
ItemUtility = Callable[[Row], float]


@dataclass(frozen=True)
class IncrementalAggregate:
    """O(1)-per-item evaluation of a package function along a search path.

    The enumeration engine extends packages one item at a time in sorted-item
    order; a function that can maintain a running *state* under that extension
    avoids re-aggregating the whole package at every lattice node.  The
    contract is exact equivalence with the function's ``__call__``: for any
    package built by folding ``extend`` over its sorted items,
    ``finish(state, size)`` must return bit-identical floats to calling the
    function on the materialised package (states are folded in the same order
    as :meth:`Package.sorted_items`, so even order-dependent float sums
    match).

    ``initial`` is the state of the empty package; ``extend(state, item)``
    returns the state after adding one item; ``finish(state, size)`` converts
    a state plus the package size into the function's value.
    """

    initial: object
    extend: Callable[[object, Row], object]
    finish: Callable[[object, int], float]


class PackageCost:
    """Base class of cost functions ``cost: packages → R``."""

    def __call__(self, package: Package) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def incremental(self, schema) -> Optional[IncrementalAggregate]:
        """An exact incremental evaluator, or ``None`` when the function
        cannot be threaded along a search path (the engine then falls back to
        whole-package evaluation at every node)."""
        return None

    def item_delta(self, schema) -> Optional[Callable[[Row], float]]:
        """The exact additive per-item cost, or ``None`` for non-additive costs.

        Returns ``delta(item)`` with ``cost(N) = Σ_{s∈N} delta(s)`` for every
        non-empty package ``N`` (the empty package may be special-cased to ∞).
        The branch-and-bound top-k search uses the deltas to cap how many more
        items a node's remaining budget can still afford, which tightens its
        rating upper bound; it must therefore be exact, not approximate.
        """
        return None

    def describe(self) -> str:
        return type(self).__name__


class PackageRating:
    """Base class of rating functions ``val: packages → R``."""

    def __call__(self, package: Package) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def incremental(self, schema) -> Optional[IncrementalAggregate]:
        """An exact incremental evaluator, or ``None`` (see PackageCost)."""
        return None

    def item_gain(self, schema) -> Optional[Callable[[Row], float]]:
        """An admissible per-item bound on how much one item can raise ``val``.

        Returns a callable ``gain(item)`` such that for every *non-empty*
        package ``N`` not containing ``item``,
        ``val(N ∪ {item}) - val(N) ≤ gain(item)``, or ``None`` when no such
        bound is available.  The contract deliberately excludes the empty
        package: ratings may jump arbitrarily (even from ``-∞``) between
        ``∅`` and the first item, so the branch-and-bound search never
        applies gains across that boundary — its root-level bound is
        conservative instead.  Within the lattice the search sums the
        positive gains of the items still reachable from a node to bound the
        best rating in its subtree, and cuts the subtrees whose bound falls
        below the rating it asks for: the k-th best of the branch-and-bound
        top-k, or the fixed bound ``B`` of a rating-bounded search (the RPP
        outsider search, CPP, EXISTPACK).  Admissibility is exact for
        integer-valued attributes (the repo's workloads and reductions); the
        bound is only consulted when the problem declares ``monotone_val``.
        """
        return None

    def describe(self) -> str:
        return type(self).__name__


# ---------------------------------------------------------------------------
# Cost functions
# ---------------------------------------------------------------------------
@dataclass
class CountCost(PackageCost):
    """``cost(N) = |N|`` for non-empty N and ``cost(∅) = ∞``.

    This is the cost function used by almost every reduction in the paper: a
    budget of ``C = 1`` then forces packages to be singletons, ``C = m``
    allows up to ``m`` items.
    """

    empty_cost: float = INFINITY

    def __call__(self, package: Package) -> float:
        return self.empty_cost if package.is_empty() else float(len(package))

    def incremental(self, schema) -> IncrementalAggregate:
        empty_cost = self.empty_cost
        return IncrementalAggregate(
            initial=None,
            extend=lambda state, item: None,
            finish=lambda state, size: empty_cost if size == 0 else float(size),
        )

    def item_delta(self, schema) -> Callable[[Row], float]:
        return lambda item: 1.0

    def describe(self) -> str:
        return "cost(N) = |N|, cost(∅) = ∞"


@dataclass
class AttributeSumCost(PackageCost):
    """``cost(N) = Σ_{s ∈ N} s.attribute`` (e.g. total visiting time)."""

    attribute: str
    empty_cost: float = 0.0

    def __call__(self, package: Package) -> float:
        if package.is_empty():
            return self.empty_cost
        return float(sum(package.column(self.attribute)))

    def incremental(self, schema) -> IncrementalAggregate:
        index = schema.index_of(self.attribute)
        empty_cost = self.empty_cost
        return IncrementalAggregate(
            initial=0,
            extend=lambda state, item: state + item[index],
            finish=lambda state, size: empty_cost if size == 0 else float(state),
        )

    def item_delta(self, schema) -> Callable[[Row], float]:
        index = schema.index_of(self.attribute)
        return lambda item: float(item[index])

    def describe(self) -> str:
        return f"cost(N) = sum of {self.attribute}"


@dataclass
class PredicateCost(PackageCost):
    """``cost(N) = low`` when a predicate holds, ``high`` otherwise.

    Several data-complexity reductions (Lemma 4.4, the MBP DP-hardness proof)
    use exactly this shape: the predicate checks that the package encodes a
    consistent truth assignment and the budget ``C`` sits between ``low`` and
    ``high``.
    """

    predicate: Callable[[Package], bool]
    low: float = 1.0
    high: float = 2.0
    description: str = "predicate cost"

    def __call__(self, package: Package) -> float:
        return self.low if self.predicate(package) else self.high

    def describe(self) -> str:
        return self.description


@dataclass
class CallableCost(PackageCost):
    """Wrap an arbitrary PTIME callable as a cost function."""

    function: PackageFunction
    description: str = "callable cost"

    def __call__(self, package: Package) -> float:
        return float(self.function(package))

    def describe(self) -> str:
        return self.description


# ---------------------------------------------------------------------------
# Rating functions
# ---------------------------------------------------------------------------
@dataclass
class ConstantRating(PackageRating):
    """``val(N) = value`` for every package (used by many reductions)."""

    value: float = 1.0

    def __call__(self, package: Package) -> float:
        return self.value

    def incremental(self, schema) -> IncrementalAggregate:
        value = self.value
        return IncrementalAggregate(
            initial=None,
            extend=lambda state, item: None,
            finish=lambda state, size: value,
        )

    def item_gain(self, schema) -> Callable[[Row], float]:
        return lambda item: 0.0

    def describe(self) -> str:
        return f"val(N) = {self.value}"


@dataclass
class CountRating(PackageRating):
    """``val(N) = |N|`` — the more items satisfied, the better."""

    def __call__(self, package: Package) -> float:
        return float(len(package))

    def incremental(self, schema) -> IncrementalAggregate:
        return IncrementalAggregate(
            initial=None,
            extend=lambda state, item: None,
            finish=lambda state, size: float(size),
        )

    def item_gain(self, schema) -> Callable[[Row], float]:
        return lambda item: 1.0

    def describe(self) -> str:
        return "val(N) = |N|"


@dataclass
class AttributeSumRating(PackageRating):
    """``val(N) = sign · Σ s.attribute``.

    ``sign=-1`` models the paper's travel rating where a *higher* total price
    means a *lower* rating.
    """

    attribute: str
    sign: float = 1.0
    empty_value: float = 0.0

    def __call__(self, package: Package) -> float:
        if package.is_empty():
            return self.empty_value
        return self.sign * float(sum(package.column(self.attribute)))

    def incremental(self, schema) -> IncrementalAggregate:
        index = schema.index_of(self.attribute)
        sign, empty_value = self.sign, self.empty_value
        return IncrementalAggregate(
            initial=0,
            extend=lambda state, item: state + item[index],
            finish=lambda state, size: empty_value if size == 0 else sign * float(state),
        )

    def item_gain(self, schema) -> Callable[[Row], float]:
        index = schema.index_of(self.attribute)
        sign = self.sign
        return lambda item: sign * float(item[index])

    def describe(self) -> str:
        direction = "maximise" if self.sign > 0 else "minimise"
        return f"val(N) = {direction} sum of {self.attribute}"


@dataclass
class WeightedSumRating(PackageRating):
    """``val(N) = Σ_attr weight[attr] · Σ s.attr`` — a linear multi-criteria rating."""

    weights: Mapping[str, float]
    empty_value: float = 0.0

    def __call__(self, package: Package) -> float:
        if package.is_empty():
            return self.empty_value
        total = 0.0
        for attribute, weight in self.weights.items():
            total += weight * float(sum(package.column(attribute)))
        return total

    def incremental(self, schema) -> IncrementalAggregate:
        # The state keeps one running sum per attribute so that ``finish``
        # combines them in the same attribute-major order as ``__call__`` —
        # float addition is order-dependent, and the contract is bit-identical
        # results.
        indexed = tuple((schema.index_of(attr), weight) for attr, weight in self.weights.items())
        empty_value = self.empty_value

        def extend(state, item):
            return tuple(s + item[index] for s, (index, _) in zip(state, indexed))

        def finish(state, size):
            if size == 0:
                return empty_value
            total = 0.0
            for s, (_, weight) in zip(state, indexed):
                total += weight * float(s)
            return total

        return IncrementalAggregate(
            initial=tuple(0 for _ in indexed), extend=extend, finish=finish
        )

    def item_gain(self, schema) -> Callable[[Row], float]:
        indexed = tuple((schema.index_of(attr), weight) for attr, weight in self.weights.items())
        return lambda item: sum(weight * float(item[index]) for index, weight in indexed)

    def describe(self) -> str:
        parts = " + ".join(f"{w}·{a}" for a, w in sorted(self.weights.items()))
        return f"val(N) = {parts}"


@dataclass
class MinAttributeRating(PackageRating):
    """``val(N) = min s.attribute`` — a bottleneck rating (weakest item counts)."""

    attribute: str
    empty_value: float = 0.0

    def __call__(self, package: Package) -> float:
        if package.is_empty():
            return self.empty_value
        return float(min(package.column(self.attribute)))

    def incremental(self, schema) -> IncrementalAggregate:
        index = schema.index_of(self.attribute)
        empty_value = self.empty_value

        def extend(state, item):
            value = item[index]
            return value if state is None or value < state else state

        return IncrementalAggregate(
            initial=None,
            extend=extend,
            finish=lambda state, size: empty_value if size == 0 else float(state),
        )

    def item_gain(self, schema) -> Callable[[Row], float]:
        # Adding an item to a non-empty package can never raise a bottleneck
        # rating (the ∅ boundary is outside the gain contract).
        return lambda item: 0.0

    def describe(self) -> str:
        return f"val(N) = min {self.attribute}"


@dataclass
class TableRating(PackageRating):
    """A rating given by an explicit table of packages, with a default.

    The SAT-UNSAT reduction rates the four possible answer tuples
    ``(1,0) → 2, (1,1)/(0,1) → 3, (0,0) → 1``; a table rating states such
    case analyses directly.
    """

    table: Mapping[Package, float]
    default: float = 0.0

    def __call__(self, package: Package) -> float:
        return float(self.table.get(package, self.default))

    def describe(self) -> str:
        return f"table rating over {len(self.table)} packages"


@dataclass
class CallableRating(PackageRating):
    """Wrap an arbitrary PTIME callable as a rating function."""

    function: PackageFunction
    description: str = "callable rating"

    def __call__(self, package: Package) -> float:
        return float(self.function(package))

    def describe(self) -> str:
        return self.description


# ---------------------------------------------------------------------------
# Item utilities and the item→package embedding (Section 2)
# ---------------------------------------------------------------------------
@dataclass
class AttributeUtility:
    """``f(s) = sign · s.attribute`` for items of a given answer schema."""

    attribute: str
    sign: float = 1.0

    def for_schema(self, schema) -> ItemUtility:
        index = schema.index_of(self.attribute)

        def utility(item: Row) -> float:
            return self.sign * float(item[index])

        return utility

    def describe(self) -> str:
        direction = "maximise" if self.sign > 0 else "minimise"
        return f"f(s) = {direction} {self.attribute}"


@dataclass
class WeightedItemUtility:
    """``f(s) = Σ weight[attr] · s.attr`` — e.g. airfare and duration with weights."""

    weights: Mapping[str, float]

    def for_schema(self, schema) -> ItemUtility:
        indexed = [(schema.index_of(attr), weight) for attr, weight in self.weights.items()]

        def utility(item: Row) -> float:
            return sum(weight * float(item[index]) for index, weight in indexed)

        return utility

    def describe(self) -> str:
        parts = " + ".join(f"{w}·{a}" for a, w in sorted(self.weights.items()))
        return f"f(s) = {parts}"


@dataclass
class UtilityRating(PackageRating):
    """``val({s}) = f(s)`` — the package rating induced by an item utility.

    Defined on singletons; other packages get ``-∞`` so they can never win,
    matching the item-recommendation embedding of Section 2 (where the count
    cost and budget ``C = 1`` already restrict packages to singletons).
    """

    utility: ItemUtility

    def __call__(self, package: Package) -> float:
        if len(package) != 1:
            return -INFINITY
        (item,) = package.items
        return float(self.utility(item))

    def incremental(self, schema) -> IncrementalAggregate:
        # State: the first item added (only consulted when size == 1).  No
        # ``item_gain`` is possible — the rating jumps from -∞ back up when an
        # item is removed, so no per-item bound is admissible.
        utility = self.utility
        return IncrementalAggregate(
            initial=None,
            extend=lambda state, item: item if state is None else state,
            finish=lambda state, size: float(utility(state)) if size == 1 else -INFINITY,
        )

    def describe(self) -> str:
        return "val({s}) = f(s)"


def item_embedding_functions(utility: ItemUtility) -> Tuple[PackageCost, PackageRating, float]:
    """The (cost, val, C) triple embedding item selections into package selections.

    Section 2: ``cost(N) = |N|`` with ``cost(∅) = ∞``, ``C = 1`` and
    ``val({s}) = f(s)``.
    """
    return CountCost(), UtilityRating(utility), 1.0
