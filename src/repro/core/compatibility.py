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

On top of those, :class:`CompatibilityOracle` answers the verdicts for one
``(constraint, database)`` pair.  The enumeration of valid packages, the
pruning hints, the greedy/beam heuristics and the QRPP/ARPP searches all ask
for verdicts on many overlapping sub-packages, and with ``Qc`` a query every
probe is itself a query evaluation.  The oracle avoids them in two ways:

* **Witness sets.**  A CQ, UCQ or ∃FO⁺ ``Qc`` is monotone in ``RQ``, so ``N``
  is incompatible iff some binding of one disjunct's body over
  ``RQ := Q(D)`` maps every ``RQ`` atom of the disjunct into ``N``.  The
  ``RQ`` rows such a binding uses form a *witness set* (the why-provenance
  of ``Qc``'s answers, Green, Karvounarakis and Tannen, PODS 2007).  Once
  the search engine has registered ``Q(D)``'s candidate pool, the oracle
  runs one join per disjunct on the first verdict and folds the witness
  sets straight into bitmasks over the pool's positions (its *index
  space*, the same one the lattice walk counts candidates in): per
  candidate, the bits of the candidates it forms a two-row set with (its
  own bit for a one-row set), and one mask per set of three rows or more.
  Every later verdict on a package ``N ⊆ Q(D)`` is then a mask test — is
  some witness set within ``N``? — with no query evaluation per package.
  A disjunct without an ``RQ`` atom that has a binding has the empty
  witness set, which makes every package incompatible.  The oracle holds
  at most one index until a relation ``Qc`` reads changes.  One maker,
  :func:`_witness_index_over`, starts each index from the empty one, with
  every row added and one join per disjunct, or, in a served problem's
  next epoch, from the previous epoch's (:meth:`CompatibilityOracle.inherit`)
  advanced by the ``Q(D)`` row diff: the sets that avoid every removed
  row stay, and one join per ``RQ`` occurrence seeded with the added rows
  finds the sets that touch one.
* **A memo.**  Every other verdict — a predicate, an FO or Datalog ``Qc``,
  a package outside the indexed ``Q(D)``, or an index the oracle declined
  to build (:data:`WITNESS_CAP`, :data:`WITNESS_STEP_LIMIT`, a build that
  raised or was interrupted) — goes through the constraint's own probe once
  per package item-set and is memoized.  For a query ``Qc`` the probe is
  one full evaluation with ``RQ := N``, so it equals the copying reference
  (:meth:`QueryConstraint.is_satisfied_copying`).  The memo holds at most
  :data:`VERDICT_MEMO_LIMIT` verdicts.

The oracle re-checks the database on every verdict (it compares
:meth:`~repro.relational.database.Database.version` snapshots) and drops
whatever a change may have falsified, so sharing it across problems over the
same database is always safe.  It has no switch that bypasses either way:
a test that needs every verdict probed puts ``Qc`` behind a
:class:`PredicateConstraint`, which the witness sets decline (the test
kit's ``probe_path``).
"""

from __future__ import annotations

import threading
from contextlib import closing
from dataclasses import dataclass
from itertools import accumulate
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.core.packages import Package
from repro.observability import metrics as _metrics
from repro.observability import tracing as _tracing
from repro.queries.ast import RelationAtom
from repro.queries.base import Query, takes_parameter
from repro.queries.bindings import project_bindings
from repro.queries.cq import ConjunctiveQuery
from repro.queries.efo import PositiveExistentialQuery
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.database import Database, DatabaseSnapshot, Relation, Row
from repro.relational.errors import ReproError
from repro.relational.schema import RelationSchema
from repro.resilience.deadline import Deadline, current_deadline, deadline_scope
from repro.resilience.errors import ResilienceError

if TYPE_CHECKING:  # model.py imports this module
    from repro.core.model import CandidatePool

#: The most witness sets one index may hold.  A build that finds more stops
#: and declines: its verdicts go to the probe path until a relation ``Qc``
#: reads changes.
WITNESS_CAP = 16384

#: The most evaluator steps one index build may take (the ``max_steps`` of
#: the build's own :class:`~repro.resilience.deadline.Deadline`).  A build
#: that needs more declines like one over :data:`WITNESS_CAP`.
WITNESS_STEP_LIMIT = 200_000

#: The largest share of the new ``Q(D)``'s rows that may be added rows for
#: :func:`_witness_index_over` to start from a predecessor; past it the
#: empty index is the cheaper start.
#: Measured on the serving ``Qc`` over 49 candidates: the carry took 0.69x
#: to 0.73x of a build with 15 rows added, 0.87x to 1.06x with 20 and
#: 1.21x with 24.
CARRY_LIMIT = 0.4

#: The most verdicts one oracle's memo holds.  A probe that would store one
#: more clears the memo first, so a long search over many distinct packages
#: (a predicate ``Qc``, a stream of QRPP relaxations) holds a bounded memo.
VERDICT_MEMO_LIMIT = 16384


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


@dataclass
class QueryConstraint(CompatibilityConstraint):
    """``Qc(N, D) = ∅`` with ``Qc`` a query mentioning ``RQ`` and the database.

    :meth:`is_satisfied` materialises the candidate package as a fresh
    answer relation named after ``Qc``'s answer relation (``RQ`` by default,
    or the name of the relation the constraint's atoms actually reference),
    overlays it on the database by name through ``extra_relations``, and
    evaluates ``Qc`` once, in full.  The verdict therefore equals the
    reference's on every package, and the probe raises where the reference
    raises (a mixed-type comparison, the ambient request deadline or step
    budget), up to the join-order carve-out on malformed data that
    :mod:`repro.queries.plan` describes.  A probe never mutates the database, and the
    constraint's only state is the renamed answer schema, so any number of
    reader threads may probe one constraint concurrently.

    The historical probe (materialise the package, copy the database, and
    evaluate the whole answer) is retained as :meth:`is_satisfied_copying`:
    it is the reference the differential coverage and the enumeration
    benchmark's pre-engine baseline compare against, and the fallback for a
    query class whose ``evaluate`` does not take ``extra_relations``.

    Inside a search, most verdicts never reach :meth:`is_satisfied`: for a
    ``Qc`` of the shipped :class:`~repro.queries.cq.ConjunctiveQuery`,
    :class:`~repro.queries.ucq.UnionOfConjunctiveQueries` or
    :class:`~repro.queries.efo.PositiveExistentialQuery` class, the
    :class:`CompatibilityOracle` answers packages drawn from the indexed
    ``Q(D)`` from its witness sets.  Any other query class (FO, Datalog,
    subclasses, whose semantics may differ), any package outside the
    indexed ``Q(D)`` and any build the oracle declines keep this probe.
    """

    query: Query
    answer_relation: str = "RQ"

    def _answer_schema(self, schema: RelationSchema) -> Optional[RelationSchema]:
        """``schema`` renamed to the answer relation; ``None`` without the overlay.

        Computed once per ``(query, answer name, package schema)`` and kept
        as one immutable tuple replaced whole, so a racing reader at worst
        recomputes it.
        """
        memo = getattr(self, "_overlay", None)
        if (
            memo is None
            or memo[0] is not self.query
            or memo[1] != self.answer_relation
            or memo[2] is not schema
        ):
            overlay = takes_parameter(self.query.evaluate, "extra_relations")
            renamed = schema.rename(self.answer_relation) if overlay else None
            memo = (self.query, self.answer_relation, schema, renamed)
            self._overlay = memo
        return memo[3]

    def is_satisfied(self, package: Package, database: Database) -> bool:
        schema = self._answer_schema(package.schema)
        if schema is None:
            return self.is_satisfied_copying(package, database)
        answer = Relation(schema)
        answer.replace_rows(package.items)
        extra = {self.answer_relation: answer}
        return len(self.query.evaluate(database, extra_relations=extra)) == 0

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


def _witness_disjuncts(query: Query):
    """The conjunctive disjuncts of a witness-servable ``Qc``, else ``None``.

    Exact classes only: a subclass may override the semantics the witness
    sets stand for, so it keeps the probe.
    """
    kind = type(query)
    if kind is ConjunctiveQuery:
        return (query,)
    if kind is UnionOfConjunctiveQueries:
        return query.disjuncts
    if kind is PositiveExistentialQuery:
        return query.to_ucq().disjuncts
    return None


class _WitnessIndex(NamedTuple):
    """The witness sets of one ``Qc`` over one candidate pool, as bitmasks.

    Bit ``i`` of a mask is the pool's ``items[i]`` (the pool's index space,
    :class:`~repro.core.model.CandidatePool`).  Valid while no relation of
    ``Qc``'s footprint changes; the oracle drops it on such a change.
    ``conflicts`` is ``None`` when the build declined, so every verdict goes
    to the probe path.
    """

    #: The pool ``RQ := Q(D)`` was read from; only packages within it are served.
    pool: Optional[CandidatePool]
    #: Per candidate, the bits of the candidates forming a two-row witness
    #: set with it, and its own bit when it forms a one-row witness set
    #: (the candidate is then never compatible).  ``None``: declined.
    conflicts: Optional[Tuple[int, ...]]
    #: Per candidate, the witness sets of three rows or more whose lowest
    #: bit it is, one mask each; ``None`` when there are none.
    larger: Optional[Tuple[Tuple[int, ...], ...]] = None
    #: A disjunct without ``RQ`` atoms has a binding: the empty set is a
    #: witness, so every package is incompatible.
    always: bool = False
    #: The number of distinct witness sets.
    size: int = 0

    def compatible(self, items: FrozenSet[Row]) -> Optional[bool]:
        """``Qc(N, D) = ∅`` for a package with these items; ``None`` when
        one of them lies outside the pool."""
        position = self.pool.position
        mask = 0
        for item in items:
            i = position.get(item)
            if i is None:
                return None
            mask |= 1 << i
        if self.always:
            return False
        conflicts, larger = self.conflicts, self.larger
        outside = ~mask
        for i in _bits(mask):
            if conflicts[i] & mask:
                return False
            if larger is not None:
                for witness in larger[i]:
                    if not witness & outside:
                        return False
        return True

    def over(
        self, pool: CandidatePool
    ) -> Tuple[Tuple[int, ...], Optional[Tuple[Tuple[int, ...], ...]], int]:
        """The masks in ``pool``'s index space: ``(conflicts, larger, probe)``.

        ``probe`` holds the bits of ``pool``'s candidates outside the
        indexed pool, whose packages the masks cannot decide.  The index's
        own masks serve a pool with its item order as they are; any other
        order (an explicit ``candidate_items``, a second ``Q(D)``) is
        remapped, dropping the witness sets that reach outside ``pool``.
        """
        if pool.items is self.pool.items or pool.items == self.pool.items:
            return self.conflicts, self.larger, 0
        indexed = self.pool.position
        moved: List[Optional[int]] = [None] * len(self.pool.items)
        probe = 0
        for i, item in enumerate(pool.items):
            j = indexed.get(item)
            if j is None:
                probe |= 1 << i
            else:
                moved[j] = i
        # Runs of indexed positions that land on consecutive positions of
        # ``pool``, as ``(first, run mask, shift)``: a mask is remapped run
        # by run with shifts, not bit by bit.  Both pools sort their items by
        # one key, so a diff of d rows cuts the positions into about d runs.
        runs = []
        gone = 0
        start = None
        for j, i in enumerate(moved + [None]):
            if start is not None and i == last + 1:
                last = i
                continue
            if start is not None:
                runs.append((start, ((1 << (j - start)) - 1) << start, first - start))
            if i is None:
                gone |= 1 << j
                start = None
            else:
                start, first, last = j, i, i
        gone &= (1 << len(moved)) - 1

        def remap(mask: int) -> int:
            out = 0
            for _, run, shift in runs:
                part = mask & run
                if part:
                    out |= part << shift if shift >= 0 else part >> -shift
            return out

        conflicts = [0] * len(pool.items)
        for first, run, shift in runs:
            for j in range(first, first + (run >> first).bit_length()):
                conflicts[j + shift] = remap(self.conflicts[j])
        larger = None
        if self.larger is not None:
            # A set with a member outside ``pool`` is dropped.
            buckets: List[List[int]] = [[] for _ in pool.items]
            for bucket in self.larger:
                for witness in bucket:
                    if not witness & gone:
                        mask = remap(witness)
                        buckets[(mask & -mask).bit_length() - 1].append(mask)
            larger = tuple(map(tuple, buckets))
        return tuple(conflicts), larger, probe


def _bits(mask: int) -> Iterator[int]:
    """The positions of ``mask``'s set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: The slot of an oracle that has not looked for an index yet.
_UNBUILT = _WitnessIndex(None, None)


def _witness_shape(cq, answer_name: str) -> Tuple[tuple, List[Tuple[int, int]]]:
    """The head a join of ``cq`` projects and the spans that cut it into rows.

    Each binding is projected straight onto the terms of ``cq``'s ``RQ``
    atoms, one after another; span ``k`` is the slice of the flat tuple
    holding the row of the ``k``-th ``RQ`` atom.  No spans: an ``RQ``-free
    disjunct.
    """
    placed = [atom.terms for atom in cq.atoms if atom.relation == answer_name]
    head = tuple(term for terms in placed for term in terms)
    ends = list(accumulate(len(terms) for terms in placed))
    return head, list(zip([0] + ends, ends))


def _fold(
    heads, spans, position: Dict[Row, int], conflicts: List[int], larger: set, size: int
) -> int:
    """Fold the projected bindings ``heads`` into the masks; the new ``size``.

    Each binding's ``RQ`` rows become the bits of their pool positions.  A
    two-row set ORs each row's bit into the other's conflicts and a
    singleton sets its own bit; a set that is already there (a mirrored
    binding, or one found before) finds its bit set and is not counted
    again.  Sets of three rows or more are kept as masks, deduplicated
    through ``larger``.  Stops as soon as ``size`` passes
    :data:`WITNESS_CAP`.  ``spans`` is not empty.
    """
    r, cut = len(spans), spans[0][1]
    for flat in heads:
        # A pair is the bits ``a`` and ``b``; a singleton has ``a == b``.
        # One and two RQ atoms, the common shapes, skip the mask
        # arithmetic: it cost a build over 80 items ≈0.4 ms.
        if r == 2:
            a, b = position[flat[:cut]], position[flat[cut:]]
        elif r == 1:
            a = b = position[flat]
        else:
            mask = 0
            for start, end in spans:
                mask |= 1 << position[flat[start:end]]
            low = mask & -mask
            rest = mask ^ low
            if rest & (rest - 1):  # three rows or more
                if mask in larger:
                    continue
                larger.add(mask)
                size += 1
                if size > WITNESS_CAP:
                    return size
                continue
            a, b = low.bit_length() - 1, (rest or low).bit_length() - 1
        # OR is idempotent: a set already there has its bit set.
        bit = 1 << b
        if conflicts[a] & bit:
            continue
        conflicts[a] |= bit
        conflicts[b] |= 1 << a
        size += 1
        if size > WITNESS_CAP:
            return size
    return size


def _answer_relation(pool: CandidatePool, name: str, rows) -> Relation:
    """``rows`` as a relation named ``name`` over the pool's answer schema."""
    relation = Relation(pool.answers.schema.rename(name))
    relation.replace_rows(rows)
    return relation


def _always_index(pool: CandidatePool) -> _WitnessIndex:
    """The index of a ``Qc`` whose empty set is a witness: every package is
    incompatible (every candidate's own bit set)."""
    return _WitnessIndex(pool, tuple(1 << i for i in range(len(pool.items))), always=True, size=1)


def _seeded_joins(disjuncts, answer_name: str, seed: str):
    """The joins of :func:`_witness_index_over`, as ``(atoms, comparisons,
    head, spans)``: each disjunct as it stands when ``seed``, the relation
    of the added rows, is ``RQ`` itself (every row added), else one per
    ``RQ`` occurrence, that occurrence over ``seed``."""
    for cq in disjuncts:
        head, spans = _witness_shape(cq, answer_name)
        atoms = cq.atoms
        if seed == answer_name:
            yield atoms, cq.comparisons, head, spans
            continue
        for k, atom in enumerate(atoms):
            if atom.relation == answer_name:
                seeded = atoms[:k] + (RelationAtom(seed, atom.terms),) + atoms[k + 1 :]
                yield seeded, cq.comparisons, head, spans


def _witness_index_over(
    disjuncts,
    answer_name: str,
    database: Database,
    pool: CandidatePool,
    predecessor: Optional[_WitnessIndex] = None,
) -> Tuple[_WitnessIndex, bool]:
    """``Qc``'s witness index over ``RQ := pool.items``, and whether it
    started from ``predecessor``.

    ``Qc`` is monotone in ``RQ``, so the witness sets over ``pool`` are a
    starting index's sets that avoid every removed row plus the sets that
    touch an added row.  The start is ``predecessor`` remapped by
    :meth:`_WitnessIndex.over`, valid while no relation of ``Qc``'s
    footprint moved (the oracle checks that); an ``always`` one stays
    ``always``.  Without a predecessor, or with more than
    :data:`CARRY_LIMIT` of ``pool``'s rows added, it is the empty index
    with every row added.  The sets that touch an added row come from one
    join per ``RQ`` occurrence over the added rows, the other atoms over
    ``pool`` (the delta rules of Gupta, Mumick and Subrahmanian, SIGMOD
    1993), folded by :func:`_fold`; with every row added, that is one join
    per disjunct as it stands (:func:`_seeded_joins`).

    Declines (``conflicts=None``) past :data:`WITNESS_CAP` distinct witness
    sets or the ambient deadline's step budget (:data:`WITNESS_STEP_LIMIT`
    under :func:`_build_deadline`), and when a join raises (the probe path
    then raises, or not, exactly as without the index); a carried start, a
    subset of a finished index, is within the cap.  A timeout or
    cancellation propagates; nothing is kept of an unfinished index.
    """
    if predecessor is not None and predecessor.always:
        return _always_index(pool), True
    items = pool.items
    extra = {answer_name: _answer_relation(pool, answer_name, items)}
    seed = answer_name  # every row added: the joins read RQ itself
    conflicts, larger, size = [0] * len(items), set(), 0
    if predecessor is not None:
        kept, kept_larger, probe = predecessor.over(pool)
        if bin(probe).count("1") > CARRY_LIMIT * len(items):
            predecessor = None
        else:
            conflicts = list(kept)
            larger = {mask for bucket in kept_larger or () for mask in bucket}
            # A pair sets a bit in each of its two rows' conflicts, a singleton one.
            bits = sum(bin(mask).count("1") for mask in conflicts)
            singletons = sum(mask >> i & 1 for i, mask in enumerate(conflicts))
            size = (bits + singletons) // 2 + len(larger)
            if probe:
                taken = set(database.relation_names()) | {answer_name}
                seed = answer_name + "_added"
                while seed in taken:
                    seed += "_"
                extra[seed] = _answer_relation(pool, seed, (items[i] for i in _bits(probe)))
            else:
                disjuncts = ()  # no row added: nothing to join
    carried = predecessor is not None
    try:
        for atoms, comparisons, head, spans in _seeded_joins(disjuncts, answer_name, seed):
            heads = project_bindings(database, atoms, comparisons, head, extra_relations=extra)
            with closing(heads):
                if not spans:
                    for _ in heads:  # a binding: the empty set is a witness
                        return _always_index(pool), False
                    continue
                size = _fold(heads, spans, pool.position, conflicts, larger, size)
            if size > WITNESS_CAP:
                break
        else:
            # The larger sets bucketed under their lowest bit.
            buckets = None
            if larger:
                buckets = [[] for _ in items]
                for mask in larger:
                    buckets[(mask & -mask).bit_length() - 1].append(mask)
                buckets = tuple(map(tuple, buckets))
            return _WitnessIndex(pool, tuple(conflicts), buckets, size=size), carried
    except ResilienceError:
        raise
    except (ReproError, TypeError, ValueError):  # a StepLimitExceeded among them
        pass
    return _WitnessIndex(pool, None), carried


def _build_deadline() -> Deadline:
    """The budget of one index build: :data:`WITNESS_STEP_LIMIT` steps, and
    the ambient request deadline's wall clock and cancellation, if any.

    A build serves every later verdict until ``Qc``'s footprint changes, so
    its steps are not charged to the request that happens to trigger it.
    """
    request = current_deadline()
    if request is None:
        return Deadline(max_steps=WITNESS_STEP_LIMIT)
    return Deadline(request.expires_at, request.token, WITNESS_STEP_LIMIT)


class _Tally:
    """The oracle counts of one lattice walk, or of one verdict outside any walk.

    Only the thread running the walk increments it, without a lock; the
    oracle adds it to its own counts, under its lock, when the walk ends.

    A walk's tally also carries the witness masks in the walk's index space.
    The walk names its candidate pool (``pool``) when it starts, and the
    first verdict that finds a witness index fills ``conflicts``, ``larger``
    and ``probe`` (:meth:`_WitnessIndex.over`: the index's own masks when
    the walk's pool has the indexed item order, remapped once otherwise)
    and records the database ``version`` they hold for.  From then on the
    walk answers a node of its own from the masks, and counts it in
    ``witness_verdicts`` itself; only a node with a bit in ``probe`` (a
    candidate outside the indexed pool) still comes to
    :meth:`CompatibilityOracle.is_satisfied`.  The walk checks
    :meth:`current` each time it resumes after a yield, the one point where
    its consumer can have committed.  A walk over a
    :class:`~repro.relational.database.DatabaseSnapshot` gets no
    ``database`` to check, since a snapshot never changes, and neither does
    an absent ``Qc``'s walk, whose masks, without conflicts, it gets at
    once.
    """

    __slots__ = (
        "hits",
        "misses",
        "witness_verdicts",
        "witness_declines",
        "pool",
        "database",
        "conflicts",
        "larger",
        "probe",
        "version",
    )

    def __init__(
        self, pool: Optional[CandidatePool] = None, database: Optional[Database] = None
    ) -> None:
        self.hits = 0
        self.misses = 0
        self.witness_verdicts = 0
        self.witness_declines = 0
        #: The walk's candidate pool, while the tally may still take masks.
        self.pool = pool
        #: The live database the masks may go stale against (``None``: they never do).
        self.database = database
        #: Per candidate, the bits of the candidates it forms a witness set with.
        self.conflicts: Optional[Tuple[int, ...]] = None
        #: Per candidate, the larger witness sets whose lowest bit it is.
        self.larger: Optional[Tuple[Tuple[int, ...], ...]] = None
        #: The bits of the candidates whose packages the masks cannot decide.
        self.probe = 0
        self.version: Optional[Tuple[Tuple[str, int], ...]] = None

    def take(self, index: _WitnessIndex, version: Tuple[Tuple[str, int], ...]) -> None:
        """Fill the masks from ``index``, in the walk's index space."""
        self.conflicts, self.larger, self.probe = index.over(self.pool)
        self.version = version

    def current(self) -> bool:
        """Whether the masks still hold; drops them for the rest of the walk if not.

        Asked only of a tally with masks and a ``database``.  Dropped masks
        are not taken again: the walk's later verdicts all go to
        :meth:`CompatibilityOracle.is_satisfied`.
        """
        if self.database.version() == self.version:
            return True
        self.conflicts = None
        self.pool = None
        return False


class CompatibilityOracle:
    """Compatibility verdicts for one ``(constraint, database)`` pair.

    :meth:`is_satisfied` is the one entry point, and a verdict takes one of
    two paths.

    **Witness verdicts.**  The search engine registers the candidate pool
    of the ``Q(D)`` it searches (:meth:`register_answers`, O(1)).  For a
    :class:`QueryConstraint` whose ``Qc`` is a CQ, UCQ or ∃FO⁺ query, the
    first verdict builds the witness index in the registered pool's index
    space (one :func:`~repro.queries.bindings.enumerate_bindings` join per
    conjunctive disjunct, inside :meth:`is_satisfied`), and every verdict on
    a package ``N`` within the indexed pool is answered from it: ``N``'s
    items map to bits through the pool's row → position dict, and ``N`` is
    incompatible iff a witness set's mask lies within ``N``'s.
    The index stays valid for as long as no relation of ``Qc``'s footprint
    changes (a delta elsewhere, such as an insert into the relation ``Q``
    reads, keeps it), and the oracle holds **at most one index** in that
    time: a later registration keeps the index, whose pool still decides
    which packages it serves.  An oracle shown several ``Q(D)``s — QRPP's
    relaxations share one, ARPP's adjustments change ``Q(D)`` in place —
    thus serves the packages of the first from the index and leaves the
    rest to the memo below, which carries verdicts across the ``Q(D)``s; a
    join per ``Q(D)`` cost those searches more than their few probes.  The
    witness path *declines* to the memo for

    * a constraint other than a :class:`QueryConstraint` over one of those
      three exact query classes: predicates, conjunctions, FO and Datalog
      ``Qc`` (recursion makes witness sets unbounded), and query subclasses,
      which include the ones that need
      :meth:`QueryConstraint.is_satisfied_copying`;
    * a package not contained in the indexed pool, or no ``Q(D)``
      registered at all;
    * a build that finds more than :data:`WITNESS_CAP` witness sets, takes
      more than :data:`WITNESS_STEP_LIMIT` steps, or raises (a mixed-type
      comparison, for one: the probe, which equals the reference, then
      raises where the reference raises);
    * a build that the request's deadline or cancellation interrupts.  The
      error propagates, and nothing of the build is kept.

    **Carried indexes.**  One maker, :func:`_witness_index_over`, makes
    every index, from the empty index (a *build*) or from a predecessor
    (a *carry*).  The oracle of a served problem's next epoch is offered
    the previous epoch's finished index (:meth:`inherit`), and its first
    index is carried when ``Qc``, its answer relation and ``Q``'s answer
    schema are unchanged, no relation of ``Qc``'s footprint moved between
    the two epochs and at most :data:`CARRY_LIMIT` of the new pool's rows
    are new.  Both give the same index over the same pool and decline in
    the same cases.  The oracle keeps only the predecessor's
    index and version, and drops them at its first build or carry, so a
    carried index refers to no earlier pool or snapshot.

    A declined build is remembered like a finished one, so the oracle does
    not try again until ``Qc``'s footprint changes.  The build is not
    charged to the step budget of the request that triggers it (the
    ambient :class:`~repro.resilience.deadline.Deadline`'s ``max_steps``):
    a request whose budget fits the probes it would make fits the witness
    path as well.

    **The memo.**  Declined verdicts go to the constraint's probe — for a
    :class:`QueryConstraint` one evaluation of ``Qc``, equal to the copying
    reference — and are keyed by the package's item-set (plus its
    answer-schema attribute names, which constraints may address): two
    packages with the same items always receive the same verdict, so the
    second probe is a dictionary hit instead of a constraint evaluation.

    The oracle snapshots the database's version on creation and re-checks it
    on every verdict.  Invalidation is *footprint-aware*: the constraint
    declares which relations its verdicts may depend on
    (:meth:`CompatibilityConstraint.relation_footprint`), and a mutation is
    compared per relation against the snapshot — when every changed relation
    lies outside the footprint, the memoized verdicts and the witness index
    are provably still correct and are **retained** (the ``retentions``
    counter accounts for memo retentions); otherwise both are dropped
    (``invalidations`` counts the memo clears).  A constraint with an
    unknown footprint (``None``) always clears, so stale verdicts can never
    be served.  There is no switch that bypasses either path: tests that
    need every verdict probed put ``Qc`` behind a
    :class:`PredicateConstraint` (the test kit's ``probe_path``), which the
    witness path declines, and compare that run with the witness-served one.

    **The walk's masks.**  A lattice walk names its candidate pool when it
    starts (:meth:`walk_started`), and its tally receives the index's masks
    (:meth:`_WitnessIndex.over`): at once when the oracle holds a current
    index, else at the walk's first verdict that finds one.  A walk over
    the indexed pool's item order — every walk of a solver call on the
    problem's own ``Q(D)`` — takes the masks as they are; a walk over
    another order (QRPP's and ARPP's explicit ``candidate_items``) gets
    them remapped once.  The walk then decides a node whose candidates the
    masks cover by mask tests, without a package or a call into the
    oracle, and counts it as a witness verdict.  The tally drops the masks
    for the rest of the walk when the live database changes under it.

    **Accounting.**  ``hits`` and ``misses`` count memo lookups,
    ``witness_verdicts`` the verdicts served from an index (a walk's mask
    tests included), ``witness_builds`` the indexes made from the empty
    index, ``witness_carries`` those advanced from a predecessor and
    ``witness_declines`` the verdicts of a :class:`QueryConstraint` sent to
    the memo instead.  A lattice walk counts its verdicts in its own tally
    (:meth:`walk_started` hands it out, :meth:`is_satisfied` takes it) and
    adds it to these fields, and to the active metrics registry, once when
    it ends (:meth:`walk_finished`); a verdict requested outside any walk
    does so on its own.  The fields are only written under the oracle's
    lock.

    Thread safety: the index slot is an immutable tuple replaced whole, and
    builds and carries are serialised, so readers sharing one pinned
    problem build each index once; a reader waiting for another's build
    keeps its deadline.
    """

    __slots__ = (
        "constraint",
        "database",
        "hits",
        "misses",
        "invalidations",
        "retentions",
        "witness_builds",
        "witness_carries",
        "witness_verdicts",
        "witness_declines",
        "_cache",
        "_database_version",
        "_footprint",
        "_always_true",
        "_witness_eligible",
        "_registered",
        "_witness",
        "_predecessor",
        "_lock",
        "_build_lock",
    )

    def __init__(self, constraint: CompatibilityConstraint, database: Database) -> None:
        self.constraint = constraint
        self.database = database
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.retentions = 0
        self.witness_builds = 0
        self.witness_carries = 0
        self.witness_verdicts = 0
        self.witness_declines = 0
        self._cache: Dict[Tuple[Tuple[str, ...], FrozenSet[Row]], bool] = {}
        self._database_version = database.version()
        self._footprint = constraint.relation_footprint()
        # The absent-Qc case is constant-true; caching one entry per distinct
        # package for it would grow the cache along the whole package lattice.
        self._always_true = constraint.is_empty_constraint()
        # Only a QueryConstraint can be witness-served; its query class is
        # checked when the index is built.
        self._witness_eligible = type(constraint) is QueryConstraint
        self._registered: Optional[CandidatePool] = None
        self._witness = _UNBUILT
        #: A predecessor's finished index, its database version and the
        #: ``(query, answer relation)`` it was built for (:meth:`inherit`),
        #: until this oracle's first build or carry.
        self._predecessor: Optional[tuple] = None
        self._lock = threading.Lock()
        self._build_lock = threading.Lock()

    # -- the witness index --------------------------------------------------------
    def register_answers(self, pool: CandidatePool) -> None:
        """Name ``Q(D)``'s :class:`~repro.core.model.CandidatePool`, the pool
        later verdicts' packages are drawn from."""
        self._registered = pool

    def _witness_index(self) -> _WitnessIndex:
        """The index for the registered pool: built once, then kept.

        One thread builds at a time.  A verdict that finds another thread
        building waits for that build, as long as its request deadline
        allows, and then reuses it instead of running the join again.
        """
        deadline = current_deadline()
        remaining = None if deadline is None else deadline.remaining()
        if not self._build_lock.acquire(timeout=-1 if remaining is None else max(remaining, 0)):
            deadline.check()  # expired while waiting
            return self._witness
        try:
            if self._witness is not _UNBUILT:
                return self._witness  # built while this thread waited
            predecessor, self._predecessor = self._predecessor, None
            try:
                index = self._build_index(self._registered, predecessor)
            except ResilienceError:
                # Interrupted: declined until the footprint changes, so a
                # deadline shorter than the build fails one request, not
                # every request that would retry it.
                self._witness = _WitnessIndex(self._registered, None)
                raise
            self._witness = index
            return index
        finally:
            self._build_lock.release()

    def inherit(self, predecessor: "CompatibilityOracle") -> None:
        """Offer ``predecessor``'s finished witness index as the seed of this
        oracle's first one.

        For the oracle of the next epoch of one served problem: the index
        and its database version are kept (not ``predecessor`` itself) until
        this oracle's first build or carry, which drops them.  The first
        verdict that needs an index then starts from it instead of from the
        empty index (:func:`_witness_index_over`), if the index is a
        finished one of the same constraint object, ``Qc`` and answer
        relation are still those it was built for, the pool's answer schema
        is the same, every relation of ``Qc``'s footprint is at the same
        version in both oracles' databases and the ``Q(D)`` diff is within
        :data:`CARRY_LIMIT`.  Otherwise the oracle starts from the empty
        index, as without it.
        Only an oracle over a
        :class:`~repro.relational.database.DatabaseSnapshot` hands its index
        on: a live database may move between the index and its version.
        """
        index = predecessor._witness
        if (
            self._witness_eligible
            and predecessor.constraint is self.constraint
            and index.conflicts is not None
            and isinstance(predecessor.database, DatabaseSnapshot)
        ):
            self._predecessor = (
                index,
                predecessor._database_version,
                self.constraint.query,
                self.constraint.answer_relation,
            )

    def _footprint_unmoved(self, old: tuple, new: tuple) -> bool:
        """Whether every relation of ``Qc``'s known footprint is at the same
        version in the database versions ``old`` and ``new``."""
        footprint = self._footprint
        if footprint is None:
            return False
        old, new = dict(old), dict(new)
        return all(old.get(name) == new.get(name) for name in footprint)

    def _carries(self, predecessor: tuple, pool: CandidatePool) -> bool:
        """Whether ``predecessor`` (see :meth:`inherit`) may be carried onto ``pool``."""
        index, version, query, answer_relation = predecessor
        return (
            query is self.constraint.query
            and answer_relation == self.constraint.answer_relation
            and index.pool.answers.schema == pool.answers.schema
            and self._footprint_unmoved(version, self._database_version)
        )

    def _build_index(self, pool: CandidatePool, predecessor: Optional[tuple]) -> _WitnessIndex:
        """The index over ``pool``: carried from ``predecessor`` when it may
        be, else made from the empty index; a decline for a non-servable ``Qc``."""
        disjuncts = _witness_disjuncts(self.constraint.query)
        if disjuncts is None:
            return _WitnessIndex(pool, None)
        start = None
        if predecessor is not None and self._carries(predecessor, pool):
            start = predecessor[0]
        span = _tracing.begin("witness_build")
        try:
            with deadline_scope(_build_deadline()):
                index, carried = _witness_index_over(
                    disjuncts, self.constraint.answer_relation, self.database, pool, start
                )
        finally:
            _tracing.finish(span)
        if index.conflicts is not None:
            with self._lock:
                if carried:
                    self.witness_carries += 1
                else:
                    self.witness_builds += 1
            active = _metrics._ACTIVE
            if active is not None:
                active.inc(
                    _metrics.ORACLE_WITNESS_CARRIES if carried else _metrics.ORACLE_WITNESS_BUILDS
                )
        return index

    def _witness_verdict(self, items: FrozenSet[Row], tally: _Tally) -> Optional[bool]:
        """The witness-served verdict, or ``None`` when the path declines."""
        index = self._witness
        if index is _UNBUILT and self._registered is not None:
            index = self._witness_index()
        if index.conflicts is None:
            tally.witness_declines += 1
            return None
        if tally.pool is not None and tally.conflicts is None:
            tally.take(index, self._database_version)
        verdict = index.compatible(items)
        if verdict is None:
            tally.witness_declines += 1
        else:
            tally.witness_verdicts += 1
        return verdict

    # -- accounting -----------------------------------------------------------------
    def walk_started(self, pool: CandidatePool) -> _Tally:
        """A lattice walk over ``pool``'s candidates begins: the tally its
        verdicts count in.

        The tally starts with its witness masks when the oracle holds a
        current index (and without conflicts for an absent ``Qc``);
        otherwise the walk's first verdict that finds an index, the one that
        builds it, fills them.
        """
        # A snapshot never changes, and an absent Qc's verdicts never do.
        frozen = self._always_true or isinstance(self.database, DatabaseSnapshot)
        tally = _Tally(pool, None if frozen else self.database)
        index = self._witness
        if self._always_true:
            tally.conflicts = (0,) * len(pool.items)
        elif index.conflicts is not None and self.database.version() == self._database_version:
            # An earlier walk built the index, and it still holds.
            tally.take(index, self._database_version)
        return tally

    def walk_finished(self, tally: _Tally) -> None:
        """A lattice walk ends: add what its verdicts counted.

        An absent ``Qc``'s verdicts are constant and count nothing, as
        :meth:`is_satisfied` counts nothing for them.
        """
        if not self._always_true:
            self._settle(tally)

    def _settle(self, tally: _Tally) -> None:
        """Add ``tally`` to the oracle's counts and to the active registry."""
        with self._lock:
            self.hits += tally.hits
            self.misses += tally.misses
            self.witness_verdicts += tally.witness_verdicts
            self.witness_declines += tally.witness_declines
        active = _metrics._ACTIVE
        if active is not None:
            active.inc_many(
                (
                    (_metrics.ORACLE_HITS, tally.hits),
                    (_metrics.ORACLE_MISSES, tally.misses),
                    (_metrics.ORACLE_WITNESS_VERDICTS, tally.witness_verdicts),
                    (_metrics.ORACLE_WITNESS_DECLINES, tally.witness_declines),
                )
            )

    # -- verdicts ---------------------------------------------------------------------
    def _on_database_change(self, version: Tuple[Tuple[str, int], ...]) -> None:
        """React to a version-snapshot mismatch: retain or drop the memo and the index."""
        old, self._database_version = self._database_version, version
        if self._footprint_unmoved(old, version):
            if self._cache:
                self.retentions += 1
                active = _metrics._ACTIVE
                if active is not None:
                    active.inc("oracle.verdict.retentions")
            return
        self._witness = _UNBUILT
        if self._cache:
            self.invalidations += 1
            active = _metrics._ACTIVE
            if active is not None:
                active.inc("oracle.verdict.invalidations")
            self._cache.clear()

    def is_satisfied(self, package: Package, tally: Optional[_Tally] = None) -> bool:
        """The constraint's verdict on ``package``: witness-served, memoized or probed.

        ``tally`` is the lattice walk's (:meth:`walk_started`); without one
        the verdict settles its own counts.
        """
        if self._always_true:
            return True
        if tally is not None:
            return self._verdict(package, tally)
        tally = _Tally()
        try:
            return self._verdict(package, tally)
        finally:
            self._settle(tally)

    def _verdict(self, package: Package, tally: _Tally) -> bool:
        version = self.database.version()
        if version != self._database_version:
            self._on_database_change(version)
        if self._witness_eligible:
            verdict = self._witness_verdict(package.items, tally)
            if verdict is not None:
                return verdict
        key = (package.schema.attribute_names, package.items)
        cached = self._cache.get(key)
        if cached is not None:
            tally.hits += 1
            return cached
        tally.misses += 1
        span = _tracing.begin("probe")
        try:
            verdict = self.constraint.is_satisfied(package, self.database)
        finally:
            _tracing.finish(span)
        cache = self._cache
        if len(cache) >= VERDICT_MEMO_LIMIT:
            cache.clear()
        cache[key] = verdict
        return verdict

    def cache_info(self) -> "dict[str, object]":
        """Hit/miss and witness accounting plus the current memo size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._cache),
            "invalidations": self.invalidations,
            "retentions": self.retentions,
            "witness_sets": self._witness.size,
            "witness_builds": self.witness_builds,
            "witness_carries": self.witness_carries,
            "witness_verdicts": self.witness_verdicts,
            "witness_declines": self.witness_declines,
        }

    def clear(self) -> None:
        """Drop every memoized verdict and the witness index, and reset the accounting."""
        self._cache.clear()
        self._witness = _UNBUILT
        self._predecessor = None
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.invalidations = 0
            self.retentions = 0
            self.witness_builds = 0
            self.witness_carries = 0
            self.witness_verdicts = 0
            self.witness_declines = 0
        self._database_version = self.database.version()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompatibilityOracle({self.constraint.describe()}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"witness_verdicts={self.witness_verdicts})"
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
