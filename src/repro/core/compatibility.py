"""Compatibility constraints on packages.

The paper expresses a compatibility constraint as a query ``Qc`` such that a
package ``N`` satisfies the constraint iff ``Qc(N, D) = ∅``: the query
*detects inconsistencies* among the items of ``N`` (possibly consulting the
database, e.g. a prerequisite relation).  Section 6 additionally considers the
special cases where ``Qc`` is absent and where it is an arbitrary PTIME
predicate (Corollary 6.3).

Three implementations are provided:

* :class:`EmptyConstraint` — the constant empty query; every package satisfies it.
* :class:`QueryConstraint` — a query over the answer relation ``RQ`` and the
  database relations.
* :class:`PredicateConstraint` — a PTIME Python predicate on (package, database).

On top of those, :class:`CompatibilityOracle` memoizes verdicts for one
``(constraint, database)`` pair keyed by package item-set: the enumeration of
valid packages, the pruning hints, the greedy/beam heuristics and the
QRPP/ARPP searches all probe compatibility for overlapping sub-packages many
times, and with ``Qc`` a query every probe is itself a query evaluation.  The
oracle invalidates itself when the database mutates (it compares
:meth:`~repro.relational.database.Database.version` snapshots), so sharing it
across problems over the same database is always safe.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.core.packages import Package
from repro.observability import metrics as _metrics
from repro.observability import tracing as _tracing
from repro.queries.base import Query
from repro.queries.bindings import StepCounter
from repro.queries.plan import statistics_key
from repro.relational.database import Database, Relation, Row
from repro.relational.schema import RelationSchema


class CompatibilityConstraint:
    """Base class: decides whether a package's items are mutually compatible."""

    def is_satisfied(self, package: Package, database: Database) -> bool:  # pragma: no cover
        raise NotImplementedError

    def is_empty_constraint(self) -> bool:
        """Whether this is the "absent Qc" case of the paper."""
        return False

    def relation_footprint(self) -> Optional[FrozenSet[str]]:
        """Database relations a verdict may depend on; ``None`` = unknown.

        A verdict is a deterministic function of the package and of the rows
        of the relations in this footprint.  The
        :class:`CompatibilityOracle` uses it on a database delta to *retain*
        every cached verdict when no footprint relation changed, instead of
        clearing wholesale — the delta-maintenance subsystem's ARPP sweeps
        depend on that.  ``None`` (the conservative default) means "could
        touch anything": any mutation clears the cache.  An implementation
        must only return a non-``None`` set when the guarantee genuinely
        holds.
        """
        return None

    def describe(self) -> str:
        return type(self).__name__


@dataclass
class EmptyConstraint(CompatibilityConstraint):
    """The empty query: returns ∅ on any input, so every package is compatible."""

    def is_satisfied(self, package: Package, database: Database) -> bool:
        return True

    def is_empty_constraint(self) -> bool:
        return True

    def relation_footprint(self) -> Optional[FrozenSet[str]]:
        return frozenset()

    def describe(self) -> str:
        return "Qc absent (empty query)"


def _parameters(function) -> FrozenSet[str]:
    """The parameter names of ``function`` (empty when it cannot be inspected)."""
    try:
        return frozenset(inspect.signature(function).parameters)
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return frozenset()


class _CompiledProbe:
    """The production ``Qc(N, D) = ∅`` test of one :class:`QueryConstraint`.

    The constraint hands it the candidate package as a fresh answer
    relation, which it overlays on the database by name through
    ``extra_relations``.  Compiled once per ``(query, answer-relation
    name)``:

    * **Early exit.**  When the query class offers
      ``is_satisfiable_on(database, counter, extra_relations, stats_key)``
      (CQ, UCQ and ∃FO⁺ do), the verdict stops at the first violating
      binding instead of materialising ``Qc``'s whole answer.  Any other
      class evaluates its full answer through the overlay.
    * **One answer schema.**  The renamed ``RQ`` schema is kept for the
      packages' schema and rebuilt only when a package arrives over
      another one.
    * **Plans without statistics.**  The plan-cache key names the answer
      relation by its size class (the package size, at most the size
      bound) and the base relations by the pinned epoch — which the plan
      cache already keys snapshots on — or, on a live database, by their
      statistics key computed once per database version.  A cache hit
      therefore gathers no statistics; plans still go through the bounded
      :func:`~repro.queries.plan.cached_plan` LRU.

    Thread-safe: the two memo slots are immutable tuples replaced whole, and
    a racing reader at worst recomputes one.
    """

    __slots__ = ("query", "answer_name", "overlay", "early_exit", "counted", "_schema", "_base")

    def __init__(self, query: Query, answer_name: str) -> None:
        self.query = query
        self.answer_name = answer_name
        evaluate_parameters = _parameters(query.evaluate)
        #: Whether ``query.evaluate`` takes the ``extra_relations`` overlay.
        #: Every shipped query class does; a user subclass implementing only
        #: the base ``evaluate(database)`` signature gets the copying reference.
        self.overlay = "extra_relations" in evaluate_parameters
        self.counted = "counter" in evaluate_parameters
        satisfiable = getattr(query, "is_satisfiable_on", None)
        self.early_exit = self.overlay and satisfiable is not None and {
            "counter",
            "extra_relations",
            "stats_key",
        } <= _parameters(satisfiable)
        self._schema: Tuple = (None, None)
        self._base: Tuple = (None, None, ())

    def answer_schema(self, schema: RelationSchema) -> RelationSchema:
        """``schema`` renamed to the answer relation, reused across probes."""
        source, renamed = self._schema
        if source is not schema:
            renamed = schema.rename(self.answer_name)
            self._schema = (schema, renamed)
        return renamed

    def fresh_answer(self, package: Package) -> Relation:
        """A per-call answer relation holding the package (trusted rows)."""
        answer = Relation(self.answer_schema(package.schema))
        answer.replace_rows(package.items)
        return answer

    def _base_key(self, database: Database) -> Tuple:
        """The base relations' component of the plan-cache key."""
        if getattr(database, "plan_epoch", None) is not None:
            return ()  # the epoch, already in the key, fixes every base relation
        version = database.version()
        source, seen, key = self._base
        if source is not database or seen != version:
            names = self.query.relations_used() - {self.answer_name}
            key = statistics_key(
                {
                    name: database.relation(name).statistics()
                    for name in names
                    if name in database
                }
            )
            self._base = (database, version, key)
        return key

    def violated(
        self, database: Database, answer: Relation, counter: Optional[StepCounter] = None
    ) -> bool:
        """Whether ``Qc`` has an answer over ``database`` with ``answer`` as ``RQ``."""
        extra = {self.answer_name: answer}
        if self.early_exit:
            return self.query.is_satisfiable_on(
                database,
                counter=counter,
                extra_relations=extra,
                stats_key=(self.answer_name, len(answer), self._base_key(database)),
            )
        if self.counted:
            return len(self.query.evaluate(database, counter=counter, extra_relations=extra)) > 0
        return len(self.query.evaluate(database, extra_relations=extra)) > 0


@dataclass
class QueryConstraint(CompatibilityConstraint):
    """``Qc(N, D) = ∅`` with ``Qc`` a query mentioning ``RQ`` and the database.

    The candidate package is materialised as a fresh answer relation named
    after ``Qc``'s answer relation (``RQ`` by default, or the name of the
    relation the constraint's atoms actually reference) and overlaid on the
    database by name.  :meth:`is_satisfied` has one probe path, the
    compiled probe (:class:`_CompiledProbe`), which stops at the first
    violating binding of a CQ, UCQ or ∃FO⁺ ``Qc`` and plans without
    gathering statistics.  A probe never mutates the database, and the
    constraint's only state is its compiled probe, so any number of reader
    threads may probe one constraint concurrently.

    The historical probe (materialise the package, copy the database, and
    evaluate the whole answer) is retained as :meth:`is_satisfied_copying`:
    it is the reference the differential coverage and the enumeration
    benchmark's pre-engine baseline compare against, and the fallback for a
    query class whose ``evaluate`` does not take ``extra_relations``.

    :meth:`is_satisfied` takes an optional
    :class:`~repro.queries.bindings.StepCounter`, which the compiled probe
    ticks (the copying fallback does not); the ambient request deadline is
    honoured either way.  Verdicts equal the reference's wherever the
    reference returns; the early exit evaluates fewer bindings, so an error
    a later binding would raise in the full evaluation (a mixed-type
    comparison, a step limit) may not be raised.
    """

    query: Query
    answer_relation: str = "RQ"

    def _compiled(self) -> _CompiledProbe:
        """The compiled probe, rebuilt if ``query`` or the name changed."""
        probe = getattr(self, "_probe", None)
        if (
            probe is None
            or probe.query is not self.query
            or probe.answer_name != self.answer_relation
        ):
            probe = _CompiledProbe(self.query, self.answer_relation)
            self._probe = probe
        return probe

    def is_satisfied(
        self, package: Package, database: Database, counter: Optional[StepCounter] = None
    ) -> bool:
        probe = self._compiled()
        if not probe.overlay:
            return self.is_satisfied_copying(package, database)
        return not probe.violated(database, probe.fresh_answer(package), counter)

    def is_satisfied_copying(self, package: Package, database: Database) -> bool:
        """The historical per-probe copy path, kept as the reference semantics."""
        package_relation = package.as_relation(self.answer_relation)
        extended = database.with_relation(package_relation)
        return len(self.query.evaluate(extended)) == 0

    def relation_footprint(self) -> Optional[FrozenSet[str]]:
        """The query's relations minus the answer relation ``RQ``.

        ``RQ`` holds the candidate package, which is part of the cache key,
        not of the database — a verdict depends on the database only through
        the base relations ``Qc`` actually reads.  That reasoning only holds
        for query classes declaring
        :attr:`~repro.queries.base.Query.active_domain_independent`: an FO
        ``Qc`` quantifies over the whole active domain, so a delta to *any*
        relation can flip its verdicts and the footprint must stay unknown.
        """
        if not getattr(self.query, "active_domain_independent", False):
            return None
        return frozenset(self.query.relations_used()) - {self.answer_relation}

    def describe(self) -> str:
        name = getattr(self.query, "name", "Qc")
        return f"Qc = {name} over {self.answer_relation} (satisfied iff empty)"


@dataclass
class ConjunctionConstraint(CompatibilityConstraint):
    """The conjunction of several compatibility constraints.

    A package is compatible iff it satisfies every part.  The paper folds all
    conditions into one query ``Qc``; in code it is often clearer to state
    "items share the same flight" and "at most two museums" separately and
    conjoin them.  The conjunction is anti-monotone whenever every part is.
    """

    parts: tuple

    def __init__(self, *parts: CompatibilityConstraint) -> None:
        self.parts = tuple(parts)

    def is_satisfied(self, package: Package, database: Database) -> bool:
        return all(part.is_satisfied(package, database) for part in self.parts)

    def is_empty_constraint(self) -> bool:
        return all(part.is_empty_constraint() for part in self.parts)

    def relation_footprint(self) -> Optional[FrozenSet[str]]:
        footprint: FrozenSet[str] = frozenset()
        for part in self.parts:
            part_footprint = part.relation_footprint()
            if part_footprint is None:
                return None
            footprint |= part_footprint
        return footprint

    def describe(self) -> str:
        return " AND ".join(part.describe() for part in self.parts) or "Qc absent"


@dataclass
class PredicateConstraint(CompatibilityConstraint):
    """An arbitrary PTIME predicate ``compatible(N, D)`` (Corollary 6.3).

    ``relations`` is an optional declaration of which database relations the
    predicate may read — ``()`` for package-only predicates (the common case:
    "at most two museums" never opens ``D``), a tuple of names for predicates
    consulting specific relations, ``None`` (default) when unknown.  Like the
    problem-level pruning hints, it is a promise by the author: it feeds the
    oracle's delta-retention logic and must not name fewer relations than the
    predicate actually touches.
    """

    predicate: Callable[[Package, Database], bool]
    description: str = "PTIME compatibility predicate"
    relations: Optional[Tuple[str, ...]] = None

    def is_satisfied(self, package: Package, database: Database) -> bool:
        return bool(self.predicate(package, database))

    def relation_footprint(self) -> Optional[FrozenSet[str]]:
        return None if self.relations is None else frozenset(self.relations)

    def describe(self) -> str:
        return self.description


class CompatibilityOracle:
    """Memoized compatibility verdicts for one ``(constraint, database)`` pair.

    Verdicts are keyed by the package's item-set (plus its answer-schema
    attribute names, which constraints may address): two packages with the same
    items always receive the same verdict, so the second probe is a dictionary
    hit instead of a constraint evaluation.  ``hits``/``misses`` account for
    cache effectiveness; the evaluator benchmark and the oracle tests read
    them.

    The oracle snapshots the database's version on creation and re-checks it
    on every probe.  Invalidation is *footprint-aware*: the constraint
    declares which relations its verdicts may depend on
    (:meth:`CompatibilityConstraint.relation_footprint`), and a mutation is
    compared per relation against the snapshot — when every changed relation
    lies outside the footprint, the cached verdicts are provably still
    correct and are **retained** (the ``retentions`` counter accounts for
    those events); otherwise the cache clears as before (``invalidations``).
    A constraint with an unknown footprint (``None``) always clears, so stale
    verdicts can never be served.  With ``enabled=False`` the oracle degrades
    to a transparent pass-through (no caching, no accounting), which the tests
    use to show cached and uncached runs are byte-identical.
    """

    __slots__ = (
        "constraint",
        "database",
        "enabled",
        "hits",
        "misses",
        "invalidations",
        "retentions",
        "_cache",
        "_database_version",
        "_footprint",
        "_always_true",
    )

    def __init__(
        self,
        constraint: CompatibilityConstraint,
        database: Database,
        enabled: bool = True,
    ) -> None:
        self.constraint = constraint
        self.database = database
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.retentions = 0
        self._cache: Dict[Tuple[Tuple[str, ...], FrozenSet[Row]], bool] = {}
        self._database_version = database.version()
        self._footprint = constraint.relation_footprint()
        # The absent-Qc case is constant-true; caching one entry per distinct
        # package for it would grow the cache along the whole package lattice.
        self._always_true = constraint.is_empty_constraint()

    def _on_database_change(self, version: Tuple[Tuple[str, int], ...]) -> None:
        """React to a version-snapshot mismatch: retain or clear the cache."""
        footprint = self._footprint
        if footprint is not None and self._cache:
            old = dict(self._database_version)
            new = dict(version)
            changed = {
                name
                for name in old.keys() | new.keys()
                if old.get(name) != new.get(name)
            }
            if footprint.isdisjoint(changed):
                self.retentions += 1
                active = _metrics._ACTIVE
                if active is not None:
                    active.inc("oracle.verdict.retentions")
                self._database_version = version
                return
        if self._cache:
            self.invalidations += 1
            active = _metrics._ACTIVE
            if active is not None:
                active.inc("oracle.verdict.invalidations")
        self._cache.clear()
        self._database_version = version

    def is_satisfied(self, package: Package) -> bool:
        """The constraint's verdict on ``package``, served from cache when possible."""
        if self._always_true:
            return True
        if not self.enabled:
            return self.constraint.is_satisfied(package, self.database)
        version = self.database.version()
        if version != self._database_version:
            self._on_database_change(version)
        key = (package.schema.attribute_names, package.items)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            active = _metrics._ACTIVE
            if active is not None:
                active.inc("oracle.verdict.hits")
            return cached
        self.misses += 1
        active = _metrics._ACTIVE
        if active is not None:
            active.inc("oracle.verdict.misses")
        span = _tracing.begin("probe")
        try:
            verdict = self.constraint.is_satisfied(package, self.database)
        finally:
            _tracing.finish(span)
        self._cache[key] = verdict
        return verdict

    def cache_info(self) -> "dict[str, object]":
        """Hit/miss accounting plus the current cache size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._cache),
            "enabled": self.enabled,
            "invalidations": self.invalidations,
            "retentions": self.retentions,
        }

    def clear(self) -> None:
        """Drop every cached verdict and reset the accounting."""
        self._cache.clear()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.retentions = 0
        self._database_version = self.database.version()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompatibilityOracle({self.constraint.describe()}, "
            f"hits={self.hits}, misses={self.misses})"
        )


def at_most_k_with_value(
    attribute: str, value, limit: int, description: Optional[str] = None
) -> PredicateConstraint:
    """A predicate constraint "at most ``limit`` items with ``attribute = value``".

    This is the PTIME counterpart of the paper's "no more than 2 museums"
    CQ constraint, handy for examples and for the Corollary 6.3 ablation.
    """

    def predicate(package: Package, database: Database) -> bool:
        return sum(1 for item_value in package.column(attribute) if item_value == value) <= limit

    return PredicateConstraint(
        predicate,
        description or f"at most {limit} items with {attribute} = {value!r}",
        relations=(),
    )


def all_distinct_on(attribute: str, description: Optional[str] = None) -> PredicateConstraint:
    """A predicate constraint "no two items share a value of ``attribute``"."""

    def predicate(package: Package, database: Database) -> bool:
        values = package.column(attribute)
        return len(values) == len(set(values))

    return PredicateConstraint(
        predicate, description or f"items pairwise distinct on {attribute}", relations=()
    )


def all_equal_on(attribute: str, description: Optional[str] = None) -> PredicateConstraint:
    """A predicate constraint "all items agree on ``attribute``".

    The paper's travel packages consist of items sharing one flight number;
    this is that condition for an arbitrary attribute.  It is anti-monotone.
    """

    def predicate(package: Package, database: Database) -> bool:
        values = set(package.column(attribute))
        return len(values) <= 1

    return PredicateConstraint(
        predicate, description or f"items agree on {attribute}", relations=()
    )
