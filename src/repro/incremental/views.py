"""Incrementally maintained query answers (delta-driven view maintenance).

A :class:`MaintainedQuery` keeps ``Q(D)`` live across a stream of single-tuple
insertions and deletions, spending work proportional to the *delta* instead of
re-evaluating the query over the whole database.  The classic counting
algorithm for view maintenance is specialised to the repo's evaluator:

* **Delta rules.**  For a conjunctive disjunct with body atoms
  ``a_0 ∧ ... ∧ a_{m-1}`` and a modified relation ``R``, the answer delta is
  the union, over the occurrences ``a_i`` of ``R``, of the bindings where
  ``a_i`` is matched against the modified tuple and the remaining atoms are
  evaluated as an ordinary conjunction — seeded through the PR 1
  :class:`~repro.queries.plan.JoinPlan` executor with the tuple's values as
  the initial binding, so every remaining atom with a shared variable runs as
  an index probe.  To count each delta binding exactly once when ``R`` occurs
  several times, occurrence ``i`` sees the *pre-state* of ``R`` for the
  occurrences before it on insert (after it on delete) and the live state for
  the rest — the standard telescoping decomposition of
  ``Q(D ⊕ t) − Q(D)``.

* **Support counting.**  Distinct bindings can project to the same answer row
  (and several disjuncts of a UCQ can derive it), so each answer row carries
  the number of its derivations.  Inserts increment, deletes decrement; a row
  enters the maintained answer relation when its support rises from zero and
  leaves when it returns to zero.  This is what makes *deletions* exact
  without recomputation.

Maintainers are looked up through a registry keyed by query type
(:func:`register_maintainer`); CQ, UCQ, SP and relaxed queries ship with
native incremental maintainers, every other query class falls back to a
recompute-on-read maintainer with identical semantics (so
:class:`MaintainedQuery` is safe to use with *any* query — only the speedup
is class-dependent).  **Adding a new maintainable query class** means writing
a factory that decomposes it into conjunctive disjuncts (reuse
:class:`ConjunctiveMaintainer`) or maintains it directly, then registering it;
the incremental differential suite exercises whatever the registry returns.

Multiple views over one database are kept consistent by
:func:`apply_maintained`, which applies a delta as one commit, with views
notified after each effective modification inside it
(:meth:`~repro.relational.database.Database._apply_validated`'s observer):
the views see every intermediate state their delta rules assume, while
snapshots and the write-ahead log see the whole delta or none of it.  It
returns a :class:`MaintainedDelta` undo token that reverts the delta through
the same path, again one commit, restoring database *and* views exactly.  The
ARPP search and the streaming QRPP search ride these tokens instead of
copying the database per candidate.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Type

from repro.queries.ast import ComparisonOp, RelationAtom, Term, Var
from repro.queries.base import Query
from repro.queries.bindings import project_bindings, row_matcher
from repro.queries.cq import ConjunctiveQuery
from repro.queries.plan import JoinPlan, plan_conjunction
from repro.queries.sp import SPQuery
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.database import AppliedDelta, Database, DeltaModification, Relation, Row
from repro.relational.errors import EvaluationError, ModelError
from repro.relaxation.relax import RelaxedQuery

INSERT = "insert"


def _pre_name(relation: str) -> str:
    """The auxiliary name under which a relation's pre-state is exposed."""
    return f"__pre__::{relation}"


# ---------------------------------------------------------------------------
# Delta rules
# ---------------------------------------------------------------------------
class _DeltaRule:
    """One precompiled delta rule: an occurrence of the modified relation.

    ``match`` binds the variables of the occurrence, the *seed*, to the
    modified tuple (``None`` when the tuple does not match it);
    ``remaining`` is the rest of the conjunction with the appropriate
    occurrences of the modified relation renamed to the pre-state view, and
    ``plan`` the join plan compiled once with the seed's variables pre-bound.
    """

    __slots__ = ("match", "remaining", "comparisons", "head", "plan", "needs_pre", "relation")

    def __init__(
        self,
        seed: RelationAtom,
        remaining: Tuple[RelationAtom, ...],
        comparisons: Tuple,
        head: Tuple[Term, ...],
        needs_pre: bool,
    ) -> None:
        self.match = row_matcher(seed)
        self.remaining = remaining
        self.comparisons = comparisons
        self.head = head
        self.needs_pre = needs_pre
        self.relation = seed.relation
        bound = frozenset(t.name for t in seed.terms if isinstance(t, Var))
        self.plan: JoinPlan = plan_conjunction(remaining, comparisons, bound)


def _compile_rules(
    disjuncts: Sequence[Tuple[Tuple[Term, ...], Tuple[RelationAtom, ...], Tuple]],
) -> Tuple[Dict[str, List[_DeltaRule]], Dict[str, List[_DeltaRule]]]:
    """Insert and delete rule sets, keyed by modified relation name.

    For occurrence ``i`` of relation ``R``: on *insert*, occurrences ``j < i``
    are renamed to the pre-state (they must not see the new tuple, or the same
    delta binding would be produced by several rules); on *delete*,
    occurrences ``j > i`` are renamed (they must still see the deleted tuple).
    """
    insert_rules: Dict[str, List[_DeltaRule]] = {}
    delete_rules: Dict[str, List[_DeltaRule]] = {}
    for head, atoms, comparisons in disjuncts:
        for i, seed in enumerate(atoms):
            for rules, pre_side in ((insert_rules, "before"), (delete_rules, "after")):
                remaining: List[RelationAtom] = []
                needs_pre = False
                for j, atom in enumerate(atoms):
                    if j == i:
                        continue
                    same = atom.relation == seed.relation
                    renamed = same and (j < i if pre_side == "before" else j > i)
                    if renamed:
                        remaining.append(RelationAtom(_pre_name(atom.relation), atom.terms))
                        needs_pre = True
                    else:
                        remaining.append(atom)
                rules.setdefault(seed.relation, []).append(
                    _DeltaRule(seed, tuple(remaining), tuple(comparisons), tuple(head), needs_pre)
                )
    return insert_rules, delete_rules


class _PreStateView:
    """A read-only one-row-off view of a relation, for delta evaluation.

    The pre-state of the modified relation differs from the live relation by
    exactly the modified tuple, so materialising it would cost O(rows) per
    update; this wrapper exposes just the surface the join executor touches
    (iteration, :meth:`probe`, ``version``, ``name``) and adjusts by one row
    on the fly.  Probes delegate to the live relation's maintained index.
    """

    __slots__ = ("base", "extra_row", "removed_row")

    def __init__(
        self,
        base: Relation,
        extra_row: Optional[Row] = None,
        removed_row: Optional[Row] = None,
    ) -> None:
        self.base = base
        self.extra_row = extra_row
        self.removed_row = removed_row

    @property
    def name(self) -> str:
        return self.base.name

    @property
    def version(self) -> int:
        # Tied to the live relation: a mutation mid-iteration must trip the
        # executor's stability check exactly as it would on the base relation.
        return self.base.version

    def __iter__(self):
        removed = self.removed_row
        for row in self.base:
            if row != removed:
                yield row
        if self.extra_row is not None:
            yield self.extra_row

    def probe(self, positions, values) -> Tuple[Row, ...]:
        rows = self.base.probe(positions, values)
        if self.removed_row is not None and self.removed_row in rows:
            rows = tuple(row for row in rows if row != self.removed_row)
        extra = self.extra_row
        if extra is not None and all(
            extra[p] == value for p, value in zip(positions, values)
        ):
            rows = rows + (extra,)
        return rows

    def range_rows(self, position, op_symbol, bound) -> Optional[Tuple[Row, ...]]:
        """Range probes delegate to the live relation's sorted index.

        The one-row adjustment mirrors :meth:`probe`; when the extra row's
        value cannot be compared against the bound the whole probe declines
        (returns ``None``) so the executor falls back to the scan, which
        raises exactly as the reference path would.
        """
        rows = self.base.range_rows(position, op_symbol, bound)
        if rows is None:
            return None
        if self.removed_row is not None and self.removed_row in rows:
            rows = tuple(row for row in rows if row != self.removed_row)
        extra = self.extra_row
        if extra is not None:
            try:
                satisfied = ComparisonOp.from_symbol(op_symbol).apply(
                    extra[position], bound
                )
            except TypeError:
                return None
            if satisfied:
                rows = rows + (extra,)
        return rows


# ---------------------------------------------------------------------------
# Maintainers
# ---------------------------------------------------------------------------
class ConjunctiveMaintainer:
    """Counting-based maintenance for a union of conjunctive disjuncts.

    The building block behind the CQ, UCQ and SP maintainers (and reusable by
    new query classes that can expose their bodies as
    ``(head, atoms, comparisons)`` disjuncts).
    """

    incremental = True

    def __init__(
        self,
        query: Query,
        database: Database,
        disjuncts: Sequence[Tuple[Tuple[Term, ...], Tuple[RelationAtom, ...], Tuple]],
    ) -> None:
        self.query = query
        self.database = database
        self.disjuncts = tuple(disjuncts)
        for _, atoms, _ in self.disjuncts:
            for atom in atoms:
                if _pre_name(atom.relation) in database:
                    raise ModelError(
                        f"relation name {_pre_name(atom.relation)!r} collides with the "
                        "incremental pre-state view"
                    )
        self._insert_rules, self._delete_rules = _compile_rules(self.disjuncts)
        self._support: Dict[Row, int] = {}
        self._answers = Relation(query.output_schema())
        self.rebuild()

    # -- initial computation ---------------------------------------------------
    def rebuild(self) -> None:
        """Recompute supports and answers from the live database."""
        self._support.clear()
        for head, atoms, comparisons in self.disjuncts:
            for row in project_bindings(self.database, atoms, comparisons, head):
                self._support[row] = self._support.get(row, 0) + 1
        self._answers.replace_rows(self._support)

    # -- maintenance -----------------------------------------------------------
    def _pre_state(self, kind: str, relation_name: str, row: Row) -> _PreStateView:
        """The modified relation as it was *before* this modification.

        A constant-size view over the live relation — the pre-state differs
        from it by exactly ``row`` — so multi-occurrence delta rules stay
        O(|Δ|) instead of copying the relation.
        """
        live = self.database.relation(relation_name)
        if kind == INSERT:
            return _PreStateView(live, removed_row=row)
        return _PreStateView(live, extra_row=row)

    def _adjust_support(self, row: Row, delta: int) -> None:
        count = self._support.get(row, 0) + delta
        if count < 0:  # pragma: no cover - guarded by the differential suite
            raise EvaluationError(
                f"maintained query {self.query.name!r}: support of {row!r} went negative"
            )
        # ``row`` projects validated values and the answers are the support's
        # keys: write through the primitives, skipping validation.
        if count == 0:
            self._support.pop(row, None)
            self._answers._remove_row(row)
        else:
            self._support[row] = count
            if delta > 0 and count == delta:
                self._answers._insert_row(row)

    def on_modification(self, kind: str, relation_name: str, row: Row) -> None:
        """Fold one *already applied* modification into the maintained answers."""
        rules = (self._insert_rules if kind == INSERT else self._delete_rules).get(
            relation_name
        )
        if not rules:
            return
        sign = 1 if kind == INSERT else -1
        pre: Optional[Relation] = None
        for rule in rules:
            binding = rule.match(row)
            if binding is None:
                continue
            extra = None
            if rule.needs_pre:
                if pre is None:
                    pre = self._pre_state(kind, relation_name, row)
                extra = {_pre_name(relation_name): pre}
            for answer in project_bindings(
                self.database,
                rule.remaining,
                rule.comparisons,
                rule.head,
                initial_binding=binding,
                extra_relations=extra,
                plan=rule.plan,
            ):
                self._adjust_support(answer, sign)

    # -- reads -----------------------------------------------------------------
    def answers(self) -> Relation:
        return self._answers

    def support(self, row: Row) -> int:
        return self._support.get(tuple(row), 0)


class RecomputeMaintainer:
    """Fallback for query classes without delta rules: recompute on read.

    Semantics are identical to the incremental maintainers (the differential
    suite runs both); only the per-update cost is the full ``Q(D)``
    evaluation, deferred lazily to the next read so a burst of modifications
    pays once.
    """

    incremental = False

    def __init__(self, query: Query, database: Database) -> None:
        self.query = query
        self.database = database
        self._answers = Relation(query.output_schema())
        self._dirty = True
        # Only active-domain-independent queries may ignore deltas to
        # relations they do not mention; an FO query's quantifiers range over
        # the full active domain, so *any* modification can change it.
        self._prunable = bool(getattr(query, "active_domain_independent", False))

    def on_modification(self, kind: str, relation_name: str, row: Row) -> None:
        if not self._prunable or relation_name in self.query.relations_used():
            self._dirty = True

    def rebuild(self) -> None:
        self._dirty = True

    def answers(self) -> Relation:
        if self._dirty:
            self._answers.replace_rows(self.query.evaluate(self.database).rows())
            self._dirty = False
        return self._answers

    def support(self, row: Row) -> int:
        return 1 if tuple(row) in self.answers() else 0


class RelaxedQueryMaintainer:
    """Maintenance for :class:`~repro.relaxation.relax.RelaxedQuery`.

    The widened CQ (base query plus relaxation-witness columns) is a plain
    conjunctive query, so its answers are maintained incrementally; the
    distance filters and the projection back onto the base head are
    re-applied lazily on read (they are per-row and involve no joins — and
    relaxed comparisons quantify over the active domain, which any delta may
    change, so filtering eagerly would be unsound).
    """

    incremental = True

    def __init__(self, query: RelaxedQuery, database: Database) -> None:
        self.query = query
        self.database = database
        widened = query.widened_query
        self._widened = ConjunctiveMaintainer(
            widened, database, ((widened.head, widened.atoms, widened.comparisons),)
        )
        self._answers = Relation(query.output_schema())
        self._dirty = True

    def on_modification(self, kind: str, relation_name: str, row: Row) -> None:
        self._widened.on_modification(kind, relation_name, row)
        self._dirty = True

    def rebuild(self) -> None:
        self._widened.rebuild()
        self._dirty = True

    def answers(self) -> Relation:
        if self._dirty:
            self._answers.replace_rows(
                set(
                    self.query.project_filtered(
                        self._widened.answers().rows(), self.database
                    )
                )
            )
            self._dirty = False
        return self._answers

    def support(self, row: Row) -> int:
        return 1 if tuple(row) in self.answers() else 0


# ---------------------------------------------------------------------------
# The maintainer registry
# ---------------------------------------------------------------------------
MaintainerFactory = Callable[[Query, Database], object]

_MAINTAINER_FACTORIES: List[Tuple[Type[Query], MaintainerFactory]] = []


def register_maintainer(query_type: Type[Query], factory: MaintainerFactory) -> None:
    """Register an incremental maintainer for a query class.

    Later registrations win over earlier ones (so applications can override
    the bundled maintainers); lookup is by ``isinstance``, most recent first.
    """
    _MAINTAINER_FACTORIES.insert(0, (query_type, factory))


def maintainer_for(query: Query, database: Database):
    """The best registered maintainer for ``query`` (recompute fallback)."""
    for query_type, factory in _MAINTAINER_FACTORIES:
        if isinstance(query, query_type):
            return factory(query, database)
    return RecomputeMaintainer(query, database)


def _cq_maintainer(query: ConjunctiveQuery, database: Database) -> ConjunctiveMaintainer:
    return ConjunctiveMaintainer(
        query, database, ((query.head, query.atoms, query.comparisons),)
    )


def _ucq_maintainer(
    query: UnionOfConjunctiveQueries, database: Database
) -> ConjunctiveMaintainer:
    return ConjunctiveMaintainer(
        query,
        database,
        tuple((cq.head, cq.atoms, cq.comparisons) for cq in query.disjuncts),
    )


def _sp_maintainer(query: SPQuery, database: Database) -> ConjunctiveMaintainer:
    cq = query.to_cq()
    return ConjunctiveMaintainer(query, database, ((cq.head, cq.atoms, cq.comparisons),))


register_maintainer(ConjunctiveQuery, _cq_maintainer)
register_maintainer(UnionOfConjunctiveQueries, _ucq_maintainer)
register_maintainer(SPQuery, _sp_maintainer)
register_maintainer(RelaxedQuery, RelaxedQueryMaintainer)


# ---------------------------------------------------------------------------
# The public view + transaction API
# ---------------------------------------------------------------------------
class MaintainedQuery:
    """``Q(D)`` kept live across a stream of database modifications.

    Construct once per ``(query, database)`` pair; read the current answers
    with :meth:`answers` (a live relation — mutating the database through
    :meth:`apply` or :func:`apply_maintained` updates it in place).  Works for
    every query class; CQ/UCQ/SP/relaxed queries are maintained with
    delta-proportional work (:attr:`is_incremental` reports which path was
    chosen).

    The view snapshots the database's version after every modification it
    observes and re-checks it on every read: a mutation that bypassed the
    view (a direct ``relation.add``, or an undo token from a transaction this
    view was not part of) is detected and answered with a full rebuild — a
    maintained view can fall back to recomputing, but it can never serve
    stale answers.
    """

    __slots__ = ("query", "database", "_maintainer", "_database_version")

    def __init__(self, query: Query, database: Database) -> None:
        self.query = query
        self.database = database
        self._maintainer = maintainer_for(query, database)
        self._database_version = database.version()

    @property
    def is_incremental(self) -> bool:
        """Whether a native delta maintainer (not the recompute fallback) runs."""
        return bool(getattr(self._maintainer, "incremental", False))

    def _sync(self) -> None:
        """Rebuild if the database changed without this view being notified."""
        version = self.database.version()
        if version != self._database_version:
            self._maintainer.rebuild()
            self._database_version = version

    def answers(self) -> Relation:
        """The maintained ``Q(D)`` as a live relation (answer schema ``RQ``)."""
        self._sync()
        return self._maintainer.answers()

    def answer_rows(self) -> FrozenSet[Row]:
        """A frozen snapshot of the maintained answer rows."""
        return self.answers().rows()

    def support(self, row: Row) -> int:
        """Number of derivations of ``row`` (0 when not an answer)."""
        self._sync()
        return self._maintainer.support(row)

    def on_modification(self, kind: str, relation_name: str, row: Row) -> None:
        """Observe one modification already applied to :attr:`database`.

        The modification must be the *only* change since the last observation
        (per-modification sequencing is what the delta rules assume);
        :func:`apply_maintained` guarantees that by observing its commit
        after each effective modification.  Out-of-band changes are caught by
        the version check on the next read instead.
        """
        self._maintainer.on_modification(kind, relation_name, row)
        self._database_version = self.database.version()

    def apply(self, modifications: Iterable[DeltaModification]) -> "MaintainedDelta":
        """Apply a delta to the database and this view; return the undo token."""
        return apply_maintained(self.database, modifications, (self,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "incremental" if self.is_incremental else "recompute"
        return f"MaintainedQuery({self.query.name!r}, {mode}, {len(self.answers())} answers)"


class _ViewObserver:
    """The commit observer of :func:`apply_maintained`: notifies every view."""

    __slots__ = ("views",)

    def __init__(self, views: Tuple[MaintainedQuery, ...]) -> None:
        self.views = views

    def __call__(self, kind: str, relation_name: str, row: Row) -> None:
        for view in self.views:
            view.on_modification(kind, relation_name, row)

    def guard(self, commit: Callable[[], Optional[AppliedDelta]]) -> Optional[AppliedDelta]:
        """Run ``commit`` with the views synced first and reset if it raises.

        A failed commit winds relation versions back, so a version a view
        recorded mid-commit can recur over other rows: every view rebuilds.
        """
        for view in self.views:
            view._sync()  # a view that missed earlier changes rebuilds first
        try:
            return commit()
        except BaseException:
            for view in self.views:
                view._database_version = None
            raise


class MaintainedDelta(AppliedDelta):
    """Undo token for :func:`apply_maintained`: database *and* views revert.

    :meth:`undo` reverts the delta as one commit, with views notified after
    each effective modification inside it, so support counters and answer
    relations return to their exact pre-delta state (the counting algorithm
    is exact under inverses).  A context manager, like its base class.
    """

    __slots__ = ()

    def undo(self) -> None:
        """Revert database and views (idempotent)."""
        if not self._undone:
            self._observer.guard(super().undo)


def apply_maintained(
    database: Database,
    modifications: Iterable[DeltaModification],
    views: Sequence[MaintainedQuery] = (),
) -> MaintainedDelta:
    """Apply a delta in place, keeping every view consistent; return undo token.

    The whole delta is schema-validated up front
    (:meth:`~repro.relational.database.Database.validate_delta`), then applied
    as one commit — one epoch, one WAL record — with views notified after each
    effective modification inside it: the delta rules see exactly the states
    their decomposition assumes, snapshots and the log all or none of the
    delta, and a fault mid-delta leaves no trace (the views rebuild).  No-op
    modifications (insert of a present tuple, delete of an absent one) are
    skipped and do not reach the views.
    """
    views = tuple(views)
    for view in views:
        if view.database is not database:
            raise ModelError(
                "apply_maintained: a view is bound to a different database object"
            )
    validated = database.validate_delta(modifications)
    observer = _ViewObserver(views)
    applied = observer.guard(lambda: database._apply_validated(validated, observer))
    return MaintainedDelta(database, applied.effective, observer)
