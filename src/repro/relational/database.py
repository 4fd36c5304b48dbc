"""Relations and databases.

A :class:`Relation` is a named, schema-checked set of tuples; a
:class:`Database` is a collection of relations.  Both are the concrete
counterparts of the paper's item collection ``D``.

Relations are set-semantics (no duplicates), matching the paper's model where
packages are subsets of the query answer ``Q(D)``.

Relations additionally maintain *lazy hash indexes*: for any tuple of
attribute positions, :meth:`Relation.index_on` builds (once) and caches a map
from position-values to the rows carrying them, and :meth:`Relation.probe`
answers point lookups through it.  The join planner in
:mod:`repro.queries.plan` uses these indexes to turn full relation scans into
hash probes whenever a variable is already bound.  Three further lazy caches
serve the cost-based planner: *sorted indexes*
(:meth:`Relation.sorted_index_on` / :meth:`Relation.range_rows`) answer
ground range predicates (``price < 30``) with bisections instead of scans,
*composite trie indexes* (:meth:`Relation.trie_index_on`) nest several
positions in a caller-chosen variable order for the worst-case-optimal
multiway join, and *statistics* (:meth:`Relation.statistics`: cardinality
plus per-position distinct counts and heavy-hitter frequencies) drive the
planner's selectivity estimates.  Every mutation
bumps the relation's :attr:`Relation.version`; point mutations
(:meth:`Relation.add`, :meth:`Relation.discard`) additionally maintain all
cached structures *in place* — the delta-maintenance subsystem streams
single-tuple updates, and paying an O(rows) rebuild per update would defeat
its O(|Δ|) budget — while bulk mutations (:meth:`Relation.clear`,
:meth:`Relation.replace_rows`) drop them wholesale.  Either way a stale cache
can never serve a query; caches keyed on database contents (e.g. the
compatibility oracle) compare :meth:`Database.version` snapshots to detect
change.

:meth:`Database.apply_delta` is the in-place transaction primitive on top:
apply a set of modifications, get back an :class:`AppliedDelta` undo token.

On top of the version counters and the delta transactions sits *snapshot
isolation* (PR 6): :meth:`Database.snapshot` returns an immutable
:class:`DatabaseSnapshot` pinned to the database's current *epoch*.  Every
committing transaction (:meth:`Database.apply_delta` or an
:class:`AppliedDelta` undo) first performs **copy-on-write at relation
granularity**: any relation a live snapshot pins is cloned before it
is mutated, so the snapshot keeps the untouched original — including every
lazy index and statistic ever built on it, which can never go stale because
the pinned relation objects are simply never mutated again — while relations
no snapshot pinned are updated in place exactly as before.  Pins are kept
per relation object (``Relation._pinned_by``), so a commit through another
:class:`Database` that holds the same object clones it too.  Readers holding a
snapshot therefore resolve rows, hash/sorted/trie indexes, statistics and
(through the compatibility oracle's version checks) ``Qc`` verdicts against
their pinned epoch, concurrently with a writer committing new epochs.  The
copy-on-write covers the transactional write path only, so a direct
:meth:`Relation.add`/:meth:`Relation.discard`/:meth:`Relation.clear`/
:meth:`Relation.replace_rows` that would change a relation a live snapshot
pins raises :class:`~repro.relational.errors.SnapshotViolationError`:
concurrent serving funnels writes through :meth:`apply_delta`.
"""

from __future__ import annotations

import threading
import weakref
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Sequence, Set, Tuple
)

from repro.relational.errors import (
    IntegrityError,
    ModelError,
    SchemaError,
    SnapshotViolationError,
    UnknownRelationError,
)
from repro.relational.columnar import ColumnarRelation
from repro.relational.ordering import row_sort_key
from repro.relational.schema import DatabaseSchema, RelationSchema, Value
from repro.observability import metrics as _metrics
from repro.relational.statistics import RelationStatistics, SortedPositionIndex, TrieIndex
from repro.resilience import faults as _faults

Row = Tuple[Value, ...]

#: One delta modification: ("insert" | "delete", relation name, tuple).  The
#: same shape as :data:`repro.adjustment.delta.Modification`; the relational
#: layer duck-types it so it does not depend on the adjustment package.
DeltaModification = Tuple[str, str, Row]

_DELTA_INSERT = "insert"
_DELTA_DELETE = "delete"

#: Called by :meth:`Database._apply_validated` as ``observer(kind, name, row)``
#: after each effective modification, inside the commit.
CommitObserver = Callable[[str, str, Row], None]

#: Double-fault rehearsal point: fires before each modification is reversed
#: inside :meth:`Database._unwind_commit`, modelling a crash *during* the
#: crash handler.  Registered here, next to the call site, per the ROADMAP
#: recipe.
_FAULT_COMMIT_UNWIND = _faults.register_fault_point("commit.unwind")


class AppliedDelta:
    """Undo token for an in-place :meth:`Database.apply_delta` transaction.

    Records the modifications that *actually changed* the database (inserting
    a present tuple or deleting an absent one is a no-op under set semantics
    and is not recorded), in application order.  :meth:`undo` replays the
    inverse modifications in reverse order, restoring the exact pre-delta row
    sets; version counters keep moving forward (an undo is itself a mutation),
    so caches keyed on :meth:`Database.version` snapshots never see time run
    backwards.

    Also usable as a context manager: ``with database.apply_delta(delta): ...``
    undoes the delta on exit.  The undo is one commit notifying the commit's
    observer (see :meth:`Database._apply_validated`) again.
    """

    __slots__ = ("database", "effective", "_observer", "_undone")

    def __init__(
        self,
        database: "Database",
        effective: Tuple[DeltaModification, ...],
        observer: Optional[CommitObserver] = None,
    ) -> None:
        self.database = database
        self.effective = effective
        self._observer = observer
        self._undone = False

    def __len__(self) -> int:
        return len(self.effective)

    def undo(self) -> None:
        """Revert the effective modifications (idempotent)."""
        if self._undone:
            return
        self._undone = True
        self.database._apply_validated(
            tuple(
                (_DELTA_DELETE if kind == _DELTA_INSERT else _DELTA_INSERT, name, row)
                for kind, name, row in reversed(self.effective)
            ),
            self._observer,
        )

    def __enter__(self) -> "AppliedDelta":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.undo()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "undone" if self._undone else "applied"
        return f"AppliedDelta({len(self.effective)} effective modifications, {state})"


class Relation:
    """A finite set of tuples over a :class:`RelationSchema`."""

    __slots__ = (
        "schema",
        "_rows",
        "_indexes",
        "_sorted_indexes",
        "_trie_indexes",
        "_columnar",
        "_stats",
        "_stats_max",
        "_stats_snapshot",
        "_version",
        "_pinned_by",
        "__weakref__",
    )

    def __init__(self, schema: RelationSchema, rows: Iterable[Sequence[Value]] = ()) -> None:
        self.schema = schema
        #: Live snapshots pinning this exact relation object (weakly: a
        #: dropped snapshot stops pinning it), filled by
        #: :meth:`Database.snapshot`.  The one pin registry: the commit path's
        #: copy-on-write and the direct-mutation guard both ask it, whichever
        #: :class:`Database` holds the relation.
        self._pinned_by: "weakref.WeakSet" = weakref.WeakSet()
        self._rows: Set[Row] = set()
        self._indexes: Dict[Tuple[int, ...], Dict[Tuple[Value, ...], Tuple[Row, ...]]] = {}
        self._sorted_indexes: Dict[int, SortedPositionIndex] = {}
        self._trie_indexes: Dict[Tuple[int, ...], TrieIndex] = {}
        self._columnar: Optional[ColumnarRelation] = None
        self._stats: Optional[list] = None
        #: Per-position max frequency, maintained alongside ``_stats``; a
        #: ``None`` entry is dirty (a deletion removed a row of the maximal
        #: value) and is recomputed lazily at the next snapshot.
        self._stats_max: Optional[list] = None
        self._stats_snapshot: Optional[Tuple[int, RelationStatistics]] = None
        self._version = 0
        for row in rows:
            self.add(row)

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_dicts(
        cls, schema: RelationSchema, rows: Iterable[Mapping[str, Value]]
    ) -> "Relation":
        """Build a relation from attribute-name keyed dictionaries."""
        relation = cls(schema)
        for row in rows:
            relation.add(schema.tuple_from_mapping(row))
        return relation

    # -- mutation -------------------------------------------------------------
    def _check_direct_mutation(self, operation: str) -> None:
        """The snapshot-safety guard: reject an effective change to a pinned relation.

        Only direct mutators call this; the transactional commit path
        (:meth:`Database._apply_validated`) clones pinned relations first and
        mutates the unpinned clone, so it never trips the guard.
        """
        if self._pinned_by:
            raise SnapshotViolationError(
                f"direct {operation} on relation {self.name!r} while "
                f"{len(self._pinned_by)} live snapshot(s) pin it; route the "
                f"write through Database.apply_delta (copy-on-write) instead"
            )

    def _mutated(self) -> None:
        """Record a bulk change to the row set: bump the version, drop caches."""
        self._version += 1
        if self._indexes:
            self._indexes.clear()
        if self._sorted_indexes:
            self._sorted_indexes.clear()
        if self._trie_indexes:
            self._trie_indexes.clear()
        self._columnar = None
        self._stats = None
        self._stats_max = None

    def _insert_row(self, row: Row, step: int = 1) -> None:
        """Insert an absent, already-validated row: row set, version, every cache.

        The one point-insert primitive (:meth:`add`, the commit, its unwind
        and view maintenance); each lazy cache is maintained in place, so the
        cost is O(indexes), not O(rows).  ``step`` is the version bump: the
        crash unwind passes -1 to wind back the bump it reverts.
        """
        self._rows.add(row)
        self._version += step
        for key, index in self._indexes.items():
            values = tuple(row[p] for p in key)
            index[values] = index.get(values, ()) + (row,)
        for position, index in self._sorted_indexes.items():
            index.add(row[position])
        for trie in self._trie_indexes.values():
            trie.add(row)
        if self._columnar is not None:
            self._columnar.add(row)
        if self._stats is not None:
            for position, counts in enumerate(self._stats):
                value = row[position]
                count = counts.get(value, 0) + 1
                counts[value] = count
                current = self._stats_max[position]
                if current is not None and count > current:
                    self._stats_max[position] = count

    def _remove_row(self, row: Row, step: int = 1) -> None:
        """Remove a present, already-validated row: the twin of :meth:`_insert_row`."""
        self._rows.remove(row)
        self._version += step
        for key, index in self._indexes.items():
            values = tuple(row[p] for p in key)
            bucket = tuple(r for r in index.get(values, ()) if r != row)
            if bucket:
                index[values] = bucket
            else:
                index.pop(values, None)
        for position, index in self._sorted_indexes.items():
            index.remove(row[position])
        for trie in self._trie_indexes.values():
            trie.remove(row)
        if self._columnar is not None:
            self._columnar.remove(row)
        if self._stats is not None:
            for position, counts in enumerate(self._stats):
                value = row[position]
                remaining = counts.get(value, 0) - 1
                if remaining > 0:
                    counts[value] = remaining
                else:
                    counts.pop(value, None)
                # Removing a row of the maximal value may or may not lower
                # the max (another value can share it); mark the position
                # dirty and recompute lazily at the next snapshot, keeping
                # the per-delta maintenance cost O(arity).
                if self._stats_max[position] == remaining + 1:
                    self._stats_max[position] = None

    def add(self, row: Sequence[Value]) -> Row:
        """Insert a tuple (validated against the schema) and return it.

        A *point* mutation: the version is bumped and the cached hash indexes
        are maintained in place (the row is folded into each bucket), so a
        stream of single-tuple deltas never pays an O(rows) index rebuild.
        """
        validated = self.schema.validate_tuple(row)
        if validated not in self._rows:
            self._check_direct_mutation("add")
            self._insert_row(validated)
        return validated

    def add_all(self, rows: Iterable[Sequence[Value]]) -> None:
        """Insert every tuple in ``rows``."""
        for row in rows:
            self.add(row)

    def discard(self, row: Sequence[Value]) -> bool:
        """Remove a tuple if present; return whether it was present.

        Like :meth:`add`, maintains the cached indexes in place.
        """
        validated = self.schema.validate_tuple(row)
        if validated in self._rows:
            self._check_direct_mutation("discard")
            self._remove_row(validated)
            return True
        return False

    def clear(self) -> None:
        """Remove every tuple."""
        if self._rows:
            self._check_direct_mutation("clear")
            self._rows.clear()
            self._mutated()

    def replace_rows(self, rows: Iterable[Row]) -> None:
        """Replace the whole row set in place, skipping per-tuple validation.

        This is the trusted bulk-update behind the reusable ``Qc`` probe view:
        the caller guarantees ``rows`` are schema-valid plain tuples (e.g. rows
        drawn from another relation, or the items of a
        :class:`~repro.core.packages.Package` over the same schema).  The
        mutation contract is preserved — the version counter is bumped, and as
        a *bulk* mutation the cached indexes are dropped wholesale (point
        mutations maintain them instead) — so index caches and the
        compatibility oracle can never serve stale state through this path.
        """
        self._check_direct_mutation("replace_rows")
        self._rows = set(rows)
        self._mutated()

    # -- hash indexes -----------------------------------------------------------
    @property
    def version(self) -> int:
        """A counter incremented on every mutation of the row set.

        Caches derived from the rows (hash indexes, memoized compatibility
        verdicts) compare versions to detect staleness.
        """
        return self._version

    def _validated_positions(self, positions: Sequence[int]) -> Tuple[int, ...]:
        key = tuple(positions)
        for position in key:
            if not 0 <= position < self.schema.arity:
                raise SchemaError(
                    f"relation {self.name!r}: index position {position} outside "
                    f"arity {self.schema.arity}"
                )
        return key

    def index_on(
        self, positions: Sequence[int]
    ) -> Mapping[Tuple[Value, ...], Tuple[Row, ...]]:
        """The hash index on ``positions``: position-values → rows carrying them.

        Built on first use and cached; point mutations keep it current in
        place, bulk mutations drop it for a lazy rebuild.  An empty
        ``positions`` tuple is rejected — that would be a full copy of the
        relation masquerading as an index.
        """
        key = self._validated_positions(positions)
        if not key:
            raise SchemaError(f"relation {self.name!r}: cannot index on zero positions")
        index = self._indexes.get(key)
        if index is None:
            buckets: Dict[Tuple[Value, ...], list] = {}
            for row in self._rows:
                buckets.setdefault(tuple(row[p] for p in key), []).append(row)
            index = {values: tuple(rows) for values, rows in buckets.items()}
            self._indexes[key] = index
        return index

    def index_on_attributes(
        self, attributes: Sequence[str]
    ) -> Mapping[Tuple[Value, ...], Tuple[Row, ...]]:
        """:meth:`index_on` addressed by attribute names instead of positions."""
        return self.index_on(tuple(self.schema.index_of(a) for a in attributes))

    def probe(self, positions: Sequence[int], values: Sequence[Value]) -> Tuple[Row, ...]:
        """All rows whose ``positions`` carry exactly ``values`` (via the index)."""
        return self.index_on(positions).get(tuple(values), ())

    def indexed_position_sets(self) -> Tuple[Tuple[int, ...], ...]:
        """The position tuples currently carrying a cached index (for tests/stats)."""
        return tuple(sorted(self._indexes))

    def invalidate_indexes(self) -> None:
        """Drop every cached index (hash, sorted, trie, columnar); rows untouched."""
        self._indexes.clear()
        self._sorted_indexes.clear()
        self._trie_indexes.clear()
        self._columnar = None

    # -- sorted indexes and statistics ------------------------------------------
    def sorted_index_on(self, position: int) -> SortedPositionIndex:
        """The sorted index on ``position``: distinct values in bisectable order.

        Built on first use and cached under the same contract as the hash
        indexes — point mutations maintain it in place, bulk mutations drop
        it.  The planner's range probes drive it through :meth:`range_rows`.
        """
        (key,) = self._validated_positions((position,))
        index = self._sorted_indexes.get(key)
        if index is None:
            index = SortedPositionIndex(row[key] for row in self._rows)
            self._sorted_indexes[key] = index
        return index

    def sorted_indexed_positions(self) -> Tuple[int, ...]:
        """The positions currently carrying a cached sorted index (for tests)."""
        return tuple(sorted(self._sorted_indexes))

    def trie_index_on(self, positions: Sequence[int]) -> TrieIndex:
        """The composite trie index nesting ``positions`` in the given order.

        The access path behind the worst-case-optimal multiway join: level
        ``i`` of the trie holds the sorted distinct values of
        ``positions[i]`` among the rows matching the path so far, so the
        leapfrog executor can intersect one level per participating atom.
        Built on first use and cached per position *order* (the same
        positions in a different order are a different trie), under the same
        contract as every other lazy cache — point mutations maintain it in
        place, bulk mutations drop it.  A value outside the orderable
        families at any level marks the trie dead (:attr:`TrieIndex.ok`
        false) and the executor falls back to the binary plan.
        """
        key = self._validated_positions(positions)
        if not key:
            raise SchemaError(f"relation {self.name!r}: cannot build a trie on zero positions")
        trie = self._trie_indexes.get(key)
        if trie is None:
            trie = TrieIndex(key, self._rows)
            self._trie_indexes[key] = trie
        return trie

    def trie_indexed_position_sets(self) -> Tuple[Tuple[int, ...], ...]:
        """The position tuples currently carrying a cached trie (for tests)."""
        return tuple(sorted(self._trie_indexes))

    def columnar(self) -> Optional[ColumnarRelation]:
        """The columnar encoding, or ``None`` when it declines.

        The vectorized access path the executor takes when the plan's
        columnar verdict (:attr:`~repro.queries.plan.JoinPlan.run_columnar`)
        is on: stdlib ``array`` columns (dictionary-encoded strings) the
        selection kernels run over instead of the tuple set.  Built on first
        use and cached under the standard contract — point mutations maintain
        it in place (O(arity) append / swap-remove), bulk mutations drop it —
        and a value family it cannot encode exactly marks it dead: the dead
        encoding is kept (so the decline is not re-derived per query) but
        this accessor answers ``None`` and the executor stays on the
        tuple-set reference path.
        """
        encoding = self._columnar
        if encoding is None:
            encoding = ColumnarRelation(self.schema.arity, self._rows)
            self._columnar = encoding
            active = _metrics._ACTIVE
            if active is not None:
                active.inc("columnar.builds" if encoding.ok else "columnar.declines")
        return encoding if encoding.ok else None

    def range_rows(
        self, position: int, op_symbol: str, bound: Value
    ) -> Optional[Tuple[Row, ...]]:
        """All rows whose ``position`` value satisfies ``value <op> bound``.

        The access path behind the planner's range probes: two bisections on
        the sorted index select the qualifying distinct values, and the hash
        index on ``position`` supplies their rows.  Returns ``None`` when the
        sorted index cannot answer exactly (mixed-type column, unsupported
        value family) — the caller must fall back to a scan, which reproduces
        the reference semantics including any ``TypeError``.
        """
        values = self.sorted_index_on(position).range_values(op_symbol, bound)
        if values is None:
            return None
        buckets = self.index_on((position,))
        rows: list = []
        for value in values:
            rows.extend(buckets.get((value,), ()))
        return tuple(rows)

    def statistics(self) -> RelationStatistics:
        """A snapshot of cardinality, per-position distinct counts and degrees.

        The backing per-position value counts are built lazily on first use
        and maintained in place by point mutations (bulk mutations drop
        them), so a stream of single-tuple deltas keeps statistics current in
        O(arity) per update.  The snapshot itself is immutable and hashable —
        the plan cache keys compiled plans on it — and is memoized per
        version, so repeated probes of an unchanged relation pay nothing for
        the per-position max-frequency maximums.
        """
        snapshot = self._stats_snapshot
        if snapshot is not None and snapshot[0] == self._version:
            return snapshot[1]
        if self._stats is None:
            counts: list = [dict() for _ in range(self.schema.arity)]
            for row in self._rows:
                for position, value in enumerate(row):
                    column = counts[position]
                    column[value] = column.get(value, 0) + 1
            # ``_stats_max`` before ``_stats``: a concurrent reader (a pinned
            # snapshot shares frozen relations across threads) that observes
            # ``_stats`` non-None must never find ``_stats_max`` still None.
            self._stats_max = [None] * self.schema.arity
            self._stats = counts
        maxes = self._stats_max
        for position, current in enumerate(maxes):
            if current is None:  # fresh build, or dirtied by a deletion
                maxes[position] = max(self._stats[position].values(), default=0)
        stats = RelationStatistics(
            self.name,
            len(self._rows),
            tuple(len(column) for column in self._stats),
            tuple(maxes),
        )
        self._stats_snapshot = (self._version, stats)
        return stats

    # -- queries ---------------------------------------------------------------
    @property
    def name(self) -> str:
        """The relation name from its schema."""
        return self.schema.name

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return self.schema.arity

    def rows(self) -> FrozenSet[Row]:
        """An immutable snapshot of the tuples."""
        return frozenset(self._rows)

    def sorted_rows(self) -> Tuple[Row, ...]:
        """Tuples in a deterministic order (useful for printing and tests)."""
        return tuple(sorted(self._rows, key=row_sort_key))

    def __contains__(self, row: Sequence[Value]) -> bool:
        try:
            validated = self.schema.validate_tuple(row)
        except IntegrityError:
            return False
        return validated in self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema.name == other.schema.name and self._rows == other._rows

    def __hash__(self) -> int:  # pragma: no cover - relations used as dict keys rarely
        return hash((self.schema.name, frozenset(self._rows)))

    def column(self, attribute: str) -> Set[Value]:
        """All distinct values of ``attribute``."""
        index = self.schema.index_of(attribute)
        return {row[index] for row in self._rows}

    def active_domain(self) -> Set[Value]:
        """All constants appearing anywhere in the relation."""
        return {value for row in self._rows for value in row}

    def copy(self) -> "Relation":
        """A shallow, independent copy."""
        return Relation(self.schema, self._rows)

    def _cow_clone(self) -> "Relation":
        """The copy-on-write clone taken before mutating a snapshot-pinned relation.

        Unlike :meth:`copy` — which re-validates rows and restarts the version
        counter at the row count — the clone *preserves the version counter*:
        the clone replaces the original inside the live database, and caches
        keyed on :meth:`Database.version` snapshots (the compatibility oracle)
        must not observe time jumping when the swap itself changed no rows.
        Rows are shared as a fresh set over the same tuples; every lazy cache
        starts empty (the original keeps its built indexes for its snapshot
        readers, the clone rebuilds on demand for the live writer).
        """
        clone = Relation.__new__(Relation)
        clone.schema = self.schema
        clone._pinned_by = weakref.WeakSet()  # the clone is, by construction, unpinned
        clone._rows = set(self._rows)
        clone._indexes = {}
        clone._sorted_indexes = {}
        clone._trie_indexes = {}
        clone._columnar = None
        clone._stats = None
        clone._stats_max = None
        clone._stats_snapshot = None
        clone._version = self._version
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self.schema.name}, {len(self._rows)} tuples)"

    def pretty(self, limit: Optional[int] = 20) -> str:
        """A small textual table, used by the examples."""
        header = " | ".join(self.schema.attribute_names)
        lines = [header, "-" * len(header)]
        rows = self.sorted_rows()
        shown = rows if limit is None else rows[:limit]
        for row in shown:
            lines.append(" | ".join(str(v) for v in row))
        if limit is not None and len(rows) > limit:
            lines.append(f"... ({len(rows) - limit} more)")
        return "\n".join(lines)


class Database:
    """A collection of relations; the item collection ``D`` of the paper."""

    def __init__(self, relations: Iterable[Relation] = ()) -> None:
        self._relations: Dict[str, Relation] = {}
        #: Monotone commit counter: bumped by every effective delta commit.
        self._epoch = 0
        #: The attached write-ahead log, or ``None`` (the default: purely
        #: in-memory, bit-identical to the pre-durability behaviour).  Set by
        #: :meth:`attach_wal`; deliberately not inherited by :meth:`copy`.
        self._wal = None
        #: Serialises commits against snapshot creation, so a snapshot of this
        #: database can never observe a half-applied delta.
        self._snapshot_lock = threading.RLock()
        for relation in relations:
            self.add_relation(relation)

    # -- construction -----------------------------------------------------------
    def add_relation(self, relation: Relation) -> None:
        """Register a relation; duplicate names are rejected."""
        with self._snapshot_lock:
            if relation.name in self._relations:
                raise SchemaError(f"duplicate relation: {relation.name!r}")
            self._relations[relation.name] = relation

    def create_relation(
        self, name: str, attributes: Sequence[str], rows: Iterable[Sequence[Value]] = ()
    ) -> Relation:
        """Create, register and return a new relation."""
        relation = Relation(RelationSchema(name, attributes), rows)
        self.add_relation(relation)
        return relation

    # -- access ------------------------------------------------------------------
    def relation(self, name: str) -> Relation:
        """The relation called ``name``; raises :class:`UnknownRelationError`."""
        # ``relational.access`` injection point, inlined (this is the hottest
        # lookup in the library): chaos off costs one module-attribute load.
        active = _faults._ACTIVE
        if active is not None:
            active.hit("relational.access")
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def __getitem__(self, name: str) -> Relation:
        return self.relation(name)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def relation_names(self) -> Tuple[str, ...]:
        """All relation names, sorted."""
        return tuple(sorted(self._relations))

    def relations(self) -> Tuple[Relation, ...]:
        """All relations, sorted by name."""
        return tuple(self._relations[name] for name in self.relation_names())

    def schema(self) -> DatabaseSchema:
        """The database schema induced by the registered relations."""
        return DatabaseSchema(rel.schema for rel in self.relations())

    # -- statistics -----------------------------------------------------------------
    def size(self) -> int:
        """Total number of tuples; the ``|D|`` of the paper."""
        return sum(len(rel) for rel in self._relations.values())

    def __len__(self) -> int:
        return self.size()

    def active_domain(self) -> Set[Value]:
        """All constants appearing in any relation (``adom(D)``)."""
        domain: Set[Value] = set()
        for relation in self._relations.values():
            domain |= relation.active_domain()
        return domain

    def version(self) -> Tuple[Tuple[str, int], ...]:
        """A snapshot of every relation's mutation counter.

        Two equal snapshots of the same :class:`Database` object guarantee the
        contents have not changed in between; caches keyed on database contents
        (e.g. the compatibility oracle) compare snapshots to invalidate.  The
        snapshot relies on dict insertion order, which is stable per object —
        snapshots of *different* databases are not comparable.
        """
        return tuple((name, relation.version) for name, relation in self._relations.items())

    def invalidate_indexes(self) -> None:
        """Drop every cached hash index in every relation (rows are untouched)."""
        for relation in self._relations.values():
            relation.invalidate_indexes()

    # -- snapshot isolation ------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The commit counter: how many effective delta commits have landed.

        Every :meth:`apply_delta` (and every :meth:`AppliedDelta.undo`) that
        actually changed a row set advances the epoch by one; no-op deltas do
        not.  :meth:`snapshot` pins the current epoch.
        """
        return self._epoch

    def snapshot(self) -> "DatabaseSnapshot":
        """An immutable view of the database pinned to the current epoch.

        The snapshot shares the live :class:`Relation` objects by reference —
        taking one is O(relations), never O(rows) — and the commit path's
        copy-on-write guard guarantees those objects are never mutated again
        while the snapshot is alive: a later commit touching a pinned relation
        swaps a clone into the live database and leaves the pinned original
        frozen.  Reads, index builds and statistics on the snapshot therefore
        always answer as of the pinned epoch, concurrently with a committing
        writer.  Each pinned relation records the snapshot weakly in its
        ``_pinned_by`` set, so the protection holds against a commit through
        any database that holds the same relation object, and dropping every
        reference to the snapshot lifts it.
        """
        with self._snapshot_lock:
            snapshot = DatabaseSnapshot(self, self._epoch, dict(self._relations))
            for relation in self._relations.values():
                relation._pinned_by.add(snapshot)
            active = _metrics._ACTIVE
            if active is not None:
                active.inc("database.snapshots_pinned")
            return snapshot

    def _copy_on_write(self, names: Iterable[str]) -> None:
        """Clone every about-to-be-mutated relation that a live snapshot pins.

        Called under ``_snapshot_lock`` by the commit path.  A relation is
        pinned iff its ``_pinned_by`` set is non-empty, i.e. some live
        snapshot — of this database or of any other that holds the *same
        object* — refers to it; the clone (:meth:`Relation._cow_clone`)
        replaces it in this database, so the mutation lands on the clone and
        the snapshot keeps the frozen original.  Relations no snapshot pins
        are mutated in place.
        """
        for name in names:
            relation = self._relations.get(name)
            if relation is not None and relation._pinned_by:
                self._relations[name] = relation._cow_clone()
                active = _metrics._ACTIVE
                if active is not None:
                    active.inc("database.cow_clones")

    # -- durability --------------------------------------------------------------------
    def attach_wal(self, wal) -> None:
        """Attach a :class:`~repro.durability.wal.WriteAheadLog` to the commit path.

        Every subsequent *effective* commit appends one epoch-stamped record
        (inside the commit's critical section, so record order equals epoch
        order) and blocks on the log's fsync before :meth:`apply_delta`
        returns — the return is the durability ack.  A failed append unwinds
        the in-memory commit exactly like any other mid-commit fault; a
        failed fsync leaves the commit applied but unacknowledged (retrying
        the same delta is a natural no-op).  Attach before serving begins:
        the commit path reads the attachment unlocked.  ``wal=None`` —
        never attaching — is the knob-contract off position, bit-identical
        to the in-memory behaviour.
        """
        self._wal = wal

    def detach_wal(self):
        """Detach and return the current WAL (``None`` if none attached)."""
        wal, self._wal = self._wal, None
        return wal

    @property
    def wal(self):
        """The attached write-ahead log, or ``None``."""
        return self._wal

    # -- in-place deltas ---------------------------------------------------------------
    def validate_delta(
        self, modifications: Iterable[DeltaModification]
    ) -> Tuple[DeltaModification, ...]:
        """Check a delta against the schema without applying anything.

        Every row is validated against its target relation's arity/types and
        domains; malformed modifications raise :class:`ModelError` naming the
        offending modification instead of failing deep inside
        :meth:`Relation.add` mid-application.  Returns the modifications with
        their rows normalised to validated plain tuples.
        """
        validated: list = []
        for modification in modifications:
            kind, name, row = modification
            if kind not in (_DELTA_INSERT, _DELTA_DELETE):
                raise ModelError(f"unknown modification kind: {kind!r}")
            relation = self.relation(name)
            try:
                checked = relation.schema.validate_tuple(row)
            except IntegrityError as error:
                raise ModelError(
                    f"invalid {kind} into relation {name!r}: {error}"
                ) from error
            validated.append((kind, name, checked))
        return tuple(validated)

    def apply_delta(self, modifications: Iterable[DeltaModification]) -> AppliedDelta:
        """Apply a delta *in place* and return an :class:`AppliedDelta` undo token.

        The whole delta is schema-validated up front (see
        :meth:`validate_delta`), so a malformed modification raises
        :class:`ModelError` before any row set changes.  Modifications are then
        applied in order; only relations actually touched have their version
        counters bumped, so indexes and verdict caches keyed off untouched
        relations survive the transaction.  The token records the effective
        modifications and reverts them with :meth:`AppliedDelta.undo` (or on
        context-manager exit).
        """
        return self._apply_validated(self.validate_delta(modifications))

    def _apply_validated(
        self,
        validated: Sequence[DeltaModification],
        observer: Optional[CommitObserver] = None,
    ) -> AppliedDelta:
        """Apply modifications already normalised by :meth:`validate_delta`.

        The O(|Δ|) inner loop behind :meth:`apply_delta` and the incremental
        subsystem's maintained deltas — callers guarantee the rows are
        validated plain tuples so no schema work is repeated here.

        This is the *commit* of the snapshot-isolation story: the whole
        application runs under the snapshot lock, pinned relations are cloned
        first (:meth:`_copy_on_write`), and an effective commit advances the
        epoch — so a snapshot taken at any moment sees either none or all of
        the delta, never a prefix.

        ``observer(kind, name, row)`` is called after each *effective*
        modification, inside the critical section and before the epoch bump
        and the WAL append: one commit, with the observer (the views of
        :func:`~repro.incremental.views.apply_maintained`) notified after each
        effective modification inside it.  An observer that raises fails the
        commit like any other fault; the token keeps it for its undo.

        The commit is also *crash-safe*: if anything raises mid-application
        (the ``commit.modification`` / ``commit.epoch`` chaos points model an
        arbitrary failure), the already-applied prefix is unwound in reverse
        before the exception propagates, restoring rows, caches, version
        counters and the epoch to their exact pre-commit values — a failed
        commit leaves no trace.  Copy-on-write clones swapped in before the
        crash are kept (they are content-identical after the unwind, and
        snapshot readers pin the originals regardless).

        With a WAL attached (:meth:`attach_wal`), an effective commit also
        appends its record inside the critical section — still inside the
        ``try``, so a failed append (disk full, ``wal.append`` chaos) unwinds
        the in-memory prefix and the commit leaves no trace in memory *or*
        log — and then blocks on the log's fsync **after** releasing the
        snapshot lock, which is what lets concurrent commits batch into one
        fsync (group commit) without serialising on the disk.
        """
        wal = self._wal
        ticket = None
        with self._snapshot_lock:
            self._copy_on_write({name for _, name, _ in validated})
            effective: list = []
            epoch_bumped = False
            try:
                for kind, name, row in validated:
                    relation = self._relations[name]
                    _faults.fault_point("commit.modification")
                    insert = kind == _DELTA_INSERT
                    if (row in relation._rows) == insert:
                        continue  # a no-op under set semantics
                    if insert:
                        relation._insert_row(row)
                    else:
                        relation._remove_row(row)
                    effective.append((kind, name, row))
                    if observer is not None:
                        observer(kind, name, row)
                if effective:
                    self._epoch += 1
                    epoch_bumped = True
                    _faults.fault_point("commit.epoch")
                    if wal is not None:
                        ticket = wal.append(self._epoch, effective)
            except BaseException:
                self._unwind_commit(effective, epoch_bumped)
                raise
            # Counted only here, past every fault point: an unwound commit
            # leaves no trace in the database and none in the metrics either.
            if epoch_bumped:
                active = _metrics._ACTIVE
                if active is not None:
                    active.inc("database.commits")
            applied = AppliedDelta(self, tuple(effective), observer)
            if ticket is not None and wal.sync_in_commit:
                # The classical fsync-per-commit log forces the disk before
                # the commit releases its lock: the ack is part of the
                # commit's critical section.  A raise here (fsync failure,
                # ``wal.fsync`` chaos) loses the *ack*, not the commit — the
                # delta is already applied and past the unwind.
                wal.sync(ticket)
                ticket = None
        if ticket is not None:
            # Outside the lock: the ack waits for durability, the next
            # writer does not — concurrent commits append behind the
            # leader's in-flight fsync and batch into one (group commit).
            # A raise here (fsync failure, ``wal.fsync`` chaos) loses the
            # *ack*, not the commit — the delta is applied in memory and
            # its record is in the OS buffer; recovery keeps it iff the
            # bytes reached the disk.
            wal.sync(ticket)
        return applied

    def _unwind_commit(
        self, effective: Sequence[DeltaModification], epoch_bumped: bool
    ) -> None:
        """Roll back a partially applied commit (called under the snapshot lock).

        Inverts the effective prefix in reverse order through the same point
        primitives the forward path used, *decrementing* the version counters
        it bumped.  Winding a version counter backwards is sound for every
        cache the commit did not show an intermediate state: the row set is
        restored to the same content the old version number described.  An
        observer did see intermediate versions, which a later commit can
        reach again over other rows, so it must drop what it derived from
        them (the maintained views rebuild).

        The ``commit.unwind`` fault point fires before each reversal: a
        *double fault* (crashing inside the crash handler) leaves the
        in-memory database poisoned mid-rollback — which is exactly why the
        durability layer never logs un-committed work, so ``recover()``
        still lands on the last acked epoch (rehearsed in the chaos suite).
        """
        for kind, name, row in reversed(effective):
            _faults.fault_point(_FAULT_COMMIT_UNWIND)
            relation = self._relations[name]
            if kind == _DELTA_INSERT:
                relation._remove_row(row, -1)
            else:
                relation._insert_row(row, -1)
        if epoch_bumped:
            self._epoch -= 1

    # -- copying / combining -----------------------------------------------------------
    def copy(self) -> "Database":
        """A deep-enough copy: relations are copied, tuples are shared."""
        return Database(rel.copy() for rel in self._relations.values())

    def with_relation(self, relation: Relation) -> "Database":
        """A copy of this database with ``relation`` added or replaced.

        Used to evaluate compatibility constraints, which mention both the
        database relations and the answer relation ``RQ`` holding a candidate
        package.
        """
        new = Database()
        for name, rel in self._relations.items():
            if name != relation.name:
                new.add_relation(rel)
        new.add_relation(relation)
        return new

    def without_relation(self, name: str) -> "Database":
        """A copy of this database with relation ``name`` removed."""
        new = Database()
        for rel_name, rel in self._relations.items():
            if rel_name != name:
                new.add_relation(rel)
        return new

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        if self.relation_names() != other.relation_names():
            return False
        return all(
            self._relations[name].rows() == other._relations[name].rows()
            for name in self._relations
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{name}:{len(rel)}" for name, rel in sorted(self._relations.items()))
        return f"Database({parts})"


class DatabaseSnapshot(Database):
    """An immutable :class:`Database` view pinned to one epoch of its source.

    Produced by :meth:`Database.snapshot`.  Shares the source's
    :class:`Relation` objects by reference; the source's commit path clones
    any of them before mutating (copy-on-write), so this view's contents —
    rows, lazy indexes, statistics, version counters — are frozen at the
    pinned :attr:`epoch` forever.  All read APIs of :class:`Database` work
    unchanged; the mutating APIs raise :class:`ModelError`.  To branch a
    mutable database off a snapshot (e.g. for a serial re-execution check),
    use :meth:`Database.copy`, which is inherited and returns a plain
    independent :class:`Database`.

    The immutability also makes every per-snapshot lazy structure a
    *per-epoch* structure: an index or statistics snapshot built through this
    view can be shared freely between reader threads at the same epoch and
    never needs invalidation.
    """

    #: Snapshots hash by identity (``Database.__eq__`` would otherwise make
    #: them unhashable): each pinned relation tracks them in a ``WeakSet``,
    #: and two snapshots are distinct pins even when their contents are equal.
    __hash__ = object.__hash__

    def __init__(self, source: Database, epoch: int, relations: Dict[str, Relation]) -> None:
        # Deliberately no super().__init__(): the relations dict is installed
        # directly (the names were validated when they entered the source),
        # and a snapshot needs no lock of its own.
        self._relations = relations
        self._source = source
        self._pinned_epoch = epoch

    @property
    def epoch(self) -> int:
        """The source epoch this snapshot is pinned to."""
        return self._pinned_epoch

    def source(self) -> Database:
        """The live database this snapshot was taken from."""
        return self._source

    def snapshot(self) -> "DatabaseSnapshot":
        """A snapshot of a snapshot is itself (already immutable and pinned)."""
        return self

    # -- the write surface is closed -----------------------------------------------
    def _immutable(self, operation: str) -> "ModelError":
        return ModelError(
            f"DatabaseSnapshot is immutable: cannot {operation} on a view "
            f"pinned to epoch {self._pinned_epoch}; mutate the source "
            f"database (via apply_delta) and take a new snapshot instead"
        )

    def add_relation(self, relation: Relation) -> None:
        raise self._immutable("add a relation")

    def create_relation(
        self, name: str, attributes: Sequence[str], rows: Iterable[Sequence[Value]] = ()
    ) -> Relation:
        raise self._immutable("create a relation")

    def apply_delta(self, modifications: Iterable[DeltaModification]) -> AppliedDelta:
        raise self._immutable("apply a delta")

    def _apply_validated(self, validated, observer=None) -> AppliedDelta:
        raise self._immutable("apply a delta")

    def invalidate_indexes(self) -> None:
        # Dropping caches on *shared* relation objects would not corrupt
        # anything, but it would silently degrade the source database and
        # every sibling snapshot — reject it like the mutations.
        raise self._immutable("invalidate indexes")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{name}:{len(rel)}" for name, rel in sorted(self._relations.items()))
        return f"DatabaseSnapshot(epoch={self._pinned_epoch}, {parts})"
