"""The package recommendation model.

A :class:`RecommendationProblem` bundles the inputs shared by every problem of
the paper: the database ``D``, the selection query ``Q``, the compatibility
constraint ``Qc``, the aggregate functions ``cost()`` and ``val()``, the cost
budget ``C``, the number of packages ``k`` and the bound on package sizes
(a predefined polynomial in ``|D|``, or a constant for the Section 6 special
case).

Validity of a single package and of a whole selection is defined here; the
individual problems (RPP, FRP, MBP, CPP, QRPP, ARPP) live in their own
modules and all defer to these definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple, Union

from repro.core.compatibility import (
    CompatibilityConstraint,
    CompatibilityOracle,
    EmptyConstraint,
)
from repro.core.functions import (
    CountCost,
    PackageCost,
    PackageRating,
    UtilityRating,
    item_embedding_functions,
)
from repro.core.packages import Package, Selection
from repro.queries.base import Query
from repro.queries.languages import QueryLanguage, classify_query
from repro.relational.database import Database, Relation, Row
from repro.relational.errors import ModelError
from repro.relational.ordering import row_sort_key


# ---------------------------------------------------------------------------
# Package size bounds
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ConstantBound:
    """``|N| ≤ Bp`` for a predefined constant ``Bp`` (Corollary 6.1)."""

    limit: int

    def max_size(self, database_size: int) -> int:
        return self.limit

    def is_constant(self) -> bool:
        return True

    def describe(self) -> str:
        return f"|N| ≤ {self.limit} (constant bound)"


@dataclass(frozen=True)
class PolynomialBound:
    """``|N| ≤ coefficient · |D|^degree`` — the paper's predefined polynomial ``p``."""

    coefficient: float = 1.0
    degree: int = 1

    def max_size(self, database_size: int) -> int:
        return max(0, int(self.coefficient * (database_size ** self.degree)))

    def is_constant(self) -> bool:
        return False

    def describe(self) -> str:
        return f"|N| ≤ {self.coefficient}·|D|^{self.degree} (polynomial bound)"


SizeBound = Union[ConstantBound, PolynomialBound]

SINGLETON_BOUND = ConstantBound(1)
LINEAR_BOUND = PolynomialBound(1.0, 1)


# ---------------------------------------------------------------------------
# The candidate pool
# ---------------------------------------------------------------------------
class CandidatePool:
    """A candidate relation sorted once: the pool packages are drawn from.

    ``answers`` is the relation, ``items`` its rows in
    :func:`~repro.relational.ordering.row_sort_key` order, ``keys`` their
    sort keys, position by position (the top-k tie key is built from them),
    and ``position`` maps each row back to its position.  The positions are
    the pool's *index space*: the lattice walk's candidate indices and the
    bits of the compatibility oracle's witness masks
    (:class:`~repro.core.compatibility.CompatibilityOracle`) both count in
    it.  ``version`` is the relation's own version when the rows were read,
    so a pool :meth:`holds` its relation only until someone mutates it.  A
    pool built by :meth:`RecommendationProblem.candidate_pool` also records
    the ``(database, query, database.version())`` it evaluated ``Q(D)`` for.
    Pools are never mutated, only replaced, so readers on several threads
    may share one.
    """

    __slots__ = ("answers", "version", "items", "keys", "position", "database", "query", "epoch")

    def __init__(
        self,
        answers: Relation,
        database: Optional[Database] = None,
        query: Optional[Query] = None,
        epoch: Optional[tuple] = None,
    ) -> None:
        self.answers = answers
        self.version = answers.version
        keyed = sorted(((row_sort_key(row), row) for row in answers.rows()), key=itemgetter(0))
        self.items: Tuple[Row, ...] = tuple(row for _, row in keyed)
        self.keys: tuple = tuple(key for key, _ in keyed)
        self.position: Dict[Row, int] = {row: i for i, row in enumerate(self.items)}
        self.database = database
        self.query = query
        self.epoch = epoch

    def holds(self, answers: Relation) -> bool:
        """Whether this pool is ``answers`` as it stands now."""
        return self.answers is answers and answers.version == self.version


# ---------------------------------------------------------------------------
# The problem specification
# ---------------------------------------------------------------------------
@dataclass
class RecommendationProblem:
    """Inputs shared by RPP, FRP, MBP and CPP.

    Parameters mirror the paper's problem statements:
    ``(Q, D, Qc, cost(), val(), C, k)`` plus the package size bound.
    """

    database: Database
    query: Query
    cost: PackageCost
    val: PackageRating
    budget: float
    k: int = 1
    compatibility: CompatibilityConstraint = field(default_factory=EmptyConstraint)
    size_bound: SizeBound = SINGLETON_BOUND
    name: str = "recommendation problem"
    #: Declares that ``cost`` never decreases when items are added to a package.
    #: When set, the package enumerator prunes every superset of an over-budget
    #: package.  This is an optimisation hint, not part of the paper's model;
    #: it must only be set when the property genuinely holds (it does for
    #: counting costs, attribute sums of non-negative values and the
    #: consistency-style costs of the reductions).
    monotone_cost: bool = False
    #: Declares that supersets of an incompatible package stay incompatible
    #: (true for all "forbidden sub-pattern" constraints such as "no more than
    #: two museums" and for every Qc built from positive queries over RQ).
    antimonotone_compatibility: bool = False
    #: Declares that ``val`` never decreases when items are added to a package
    #: (true e.g. for attribute sums over non-negative values and for count
    #: ratings; false for the travel rating, which *minimises* total price).
    #: When set, :func:`~repro.core.enumeration.best_valid_packages` switches
    #: to a branch-and-bound top-k search that prunes lattice subtrees whose
    #: admissible rating upper bound cannot reach the current k-th best.  Like
    #: the other hints this is a declaration by the problem author: it can only
    #: affect running time when it genuinely holds, and must not be set
    #: otherwise.
    monotone_val: bool = False
    _compatibility_oracle: Optional[CompatibilityOracle] = field(
        default=None, init=False, repr=False, compare=False
    )
    _candidate_pool: Optional[CandidatePool] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ModelError("k must be at least 1")

    # -- derived inputs -----------------------------------------------------------
    def language(self) -> QueryLanguage:
        """The query language LQ the selection query belongs to."""
        return classify_query(self.query)

    def has_compatibility_constraint(self) -> bool:
        """Whether ``Qc`` is present (not the empty query)."""
        return not self.compatibility.is_empty_constraint()

    def compatibility_oracle(self) -> CompatibilityOracle:
        """The (lazily created) memoized compatibility oracle for this problem.

        Every compatibility probe of this problem — validity checks, the
        enumerator's pruning hints, the heuristics — goes through one shared
        oracle, so overlapping sub-packages are checked against ``Qc`` once.
        The oracle is rebuilt if the constraint or database object changes
        (e.g. after :func:`dataclasses.replace`), and the problem transforms
        that keep both (``with_query``, ``with_budget``, ``with_k``,
        ``with_constant_bound``) carry the oracle over so QRPP-style searches
        share verdicts across derived problems.  No problem field bypasses
        the oracle's witness index or memo; a problem whose verdicts must all
        be probed gives ``Qc`` as a
        :class:`~repro.core.compatibility.PredicateConstraint`, which the
        witness path declines.
        """
        oracle = self._compatibility_oracle
        if (
            oracle is None
            or oracle.constraint is not self.compatibility
            or oracle.database is not self.database
        ):
            oracle = CompatibilityOracle(self.compatibility, self.database)
            self._compatibility_oracle = oracle
        return oracle

    def _carrying_oracle(self, new: "RecommendationProblem") -> "RecommendationProblem":
        """Propagate the oracle onto a derived problem when it is still valid.

        The parent's oracle is created here if it does not exist yet (creation
        is cheap — an empty dict plus a version snapshot), so sibling problems
        derived from an untouched parent still end up sharing one cache; this
        is what makes the QRPP search reuse verdicts across relaxations.
        """
        if new.database is self.database and new.compatibility is self.compatibility:
            new._compatibility_oracle = self.compatibility_oracle()
        return new

    def _carrying_pool(self, new: "RecommendationProblem") -> "RecommendationProblem":
        """The oracle and the candidate pool carried onto a derived problem.

        For the transforms that keep ``Q`` and ``D`` (``with_k``,
        ``with_budget``, ``with_constant_bound``): the parent's pool, if it
        has one, serves the derived problem's reads of the same epoch.
        """
        new._candidate_pool = self._candidate_pool
        return self._carrying_oracle(new)

    def max_package_size(self) -> int:
        """The effective bound on ``|N|`` for the current database."""
        return self.size_bound.max_size(self.database.size())

    def candidate_pool(self, candidate_items: Optional[Relation] = None) -> CandidatePool:
        """``Q(D)`` evaluated and sorted once per database epoch.

        The problem keeps one pool, keyed on the database and query objects,
        ``database.version()`` and the returned relation's own version.  A
        pinned snapshot's version never moves, so every solver call on a
        pinned problem reads one pool; on a live database any commit or
        direct mutation (of ``D``, or of the relation this method handed
        out) re-evaluates ``Q(D)`` at the next read, and so does reassigning
        ``query`` or ``database``.  An explicit ``candidate_items`` (a
        maintained view of QRPP or ARPP) is sorted into a pool of its own,
        which is not kept, unless it is the kept pool's relation unchanged.
        """
        pool = self._candidate_pool
        if candidate_items is not None:
            if pool is not None and pool.holds(candidate_items):
                return pool
            return CandidatePool(candidate_items)
        database, query = self.database, self.query
        epoch = database.version()
        if (
            pool is None
            or pool.database is not database
            or pool.query is not query
            or pool.epoch != epoch
            or pool.answers.version != pool.version
        ):
            pool = CandidatePool(query.evaluate(database), database, query, epoch)
            self._candidate_pool = pool
        return pool

    def candidate_items(self) -> Relation:
        """``Q(D)``, the pool packages are drawn from (see :meth:`candidate_pool`).

        The relation is shared by every reader of the epoch; a caller that
        mutates it gets a fresh evaluation at its next read.
        """
        return self.candidate_pool().answers

    def package_from_items(self, items: Iterable[Row]) -> Package:
        """Wrap raw answer tuples into a package over the answer schema."""
        return Package(self.query.output_schema(), items)

    # -- validity (Section 2, conditions (1)-(4)) ---------------------------------------
    def is_valid_package(
        self,
        package: Package,
        rating_bound: Optional[float] = None,
        candidate_items: Optional[Relation] = None,
        strict: bool = False,
    ) -> bool:
        """Conditions (1)-(4) plus, optionally, ``val(N) ≥ B`` (or ``> B``).

        ``candidate_items`` may be passed to validate against that relation
        instead of the problem's ``Q(D)`` (:meth:`candidate_pool`).
        """
        if len(package) > self.max_package_size():
            return False
        answers = candidate_items if candidate_items is not None else self.candidate_items()
        answer_rows = answers.rows()
        if not all(item in answer_rows for item in package.items):
            return False
        if not self.compatibility_oracle().is_satisfied(package):
            return False
        if self.cost(package) > self.budget:
            return False
        if rating_bound is not None:
            rating = self.val(package)
            if strict:
                return rating > rating_bound
            return rating >= rating_bound
        return True

    def validity_report(self, package: Package) -> "dict[str, bool]":
        """Which of the validity conditions hold — useful in error messages."""
        answers = self.candidate_items().rows()
        return {
            "within_size_bound": len(package) <= self.max_package_size(),
            "subset_of_answers": all(item in answers for item in package.items),
            "compatible": self.compatibility_oracle().is_satisfied(package),
            "within_budget": self.cost(package) <= self.budget,
        }

    # -- selections (Section 2, conditions (5)-(6)) ----------------------------------------
    def ratings(self, selection: Selection) -> Tuple[float, ...]:
        """Ratings of the packages of a selection, in selection order."""
        return tuple(self.val(package) for package in selection)

    def min_rating(self, selection: Selection) -> float:
        """The smallest rating in a selection (the threshold outsiders must not beat)."""
        return min(self.ratings(selection)) if len(selection) else -math.inf

    # -- convenience transforms ---------------------------------------------------------
    def without_compatibility(self) -> "RecommendationProblem":
        """The same problem with ``Qc`` dropped (the Section 4.3 special case)."""
        return replace(self, compatibility=EmptyConstraint())

    def with_constant_bound(self, limit: int) -> "RecommendationProblem":
        """The same problem with a constant package-size bound (Corollary 6.1)."""
        return self._carrying_pool(replace(self, size_bound=ConstantBound(limit)))

    def with_budget(self, budget: float) -> "RecommendationProblem":
        """The same problem with a different cost budget."""
        return self._carrying_pool(replace(self, budget=budget))

    def with_k(self, k: int) -> "RecommendationProblem":
        """The same problem asking for a different number of packages."""
        return self._carrying_pool(replace(self, k=k))

    def with_database(self, database: Database) -> "RecommendationProblem":
        """The same problem over a different database (used by ARPP)."""
        return replace(self, database=database)

    def pinned(self) -> "RecommendationProblem":
        """The same problem over a snapshot of its database, pinned now.

        The serving entry point: every read of the returned problem —
        candidate enumeration, compatibility probes, the solvers — resolves
        against the epoch current at this call, unaffected by later
        :meth:`~repro.relational.database.Database.apply_delta` commits on
        the live database.  The pinned problem gets its own compatibility
        oracle and candidate pool (like any ``with_database``), both valid
        for exactly this epoch; share the *problem object* between the
        readers of one epoch to share its verdicts and its one ``Q(D)``.
        The oracle starts with no verdicts; a server that pins epoch after
        epoch offers it the previous epoch's witness index
        (:meth:`~repro.core.compatibility.CompatibilityOracle.inherit`),
        which its first verdict advances by the ``Q(D)`` row diff.
        Pinning a problem whose database is already a snapshot returns an
        equivalent pin of the same epoch.
        """
        return self.with_database(self.database.snapshot())

    def with_query(self, query: Query) -> "RecommendationProblem":
        """The same problem with a different selection query (used by QRPP).

        The compatibility oracle is shared with the derived problem: ``Qc``
        and ``D`` are unchanged, so the relaxation search re-uses every verdict
        already computed for other relaxations of the same problem.  The
        candidate pool is not: the derived problem evaluates its own ``Q(D)``.
        """
        return self._carrying_oracle(replace(self, query=query))

    def describe(self) -> str:
        """A one-paragraph description used by examples and benchmarks."""
        return (
            f"{self.name}: top-{self.k} packages, LQ = {self.language().value}, "
            f"{'with' if self.has_compatibility_constraint() else 'without'} Qc, "
            f"{self.size_bound.describe()}, cost budget C = {self.budget}, "
            f"cost = {self.cost.describe()}, val = {self.val.describe()}"
        )


def item_recommendation_problem(
    database: Database,
    query: Query,
    utility: Callable[[Row], float],
    k: int = 1,
    name: str = "item recommendation",
) -> RecommendationProblem:
    """The item-recommendation special case as a package problem (Section 2).

    ``Qc`` is the empty query, ``cost(N) = |N|`` with ``cost(∅) = ∞``,
    ``C = 1`` (so packages are singletons), and ``val({s}) = f(s)``.
    """
    cost, rating, budget = item_embedding_functions(utility)
    return RecommendationProblem(
        database=database,
        query=query,
        cost=cost,
        val=rating,
        budget=budget,
        k=k,
        compatibility=EmptyConstraint(),
        size_bound=SINGLETON_BOUND,
        name=name,
    )
