"""Query relaxation (Section 7.1).

A conjunctive query is relaxed by (a) replacing a constant ``c`` with a fresh
variable ``w_c`` constrained by ``dist(w_c, c) ≤ d`` and (b) breaking a join by
replacing one occurrence of a repeated variable ``x`` with a fresh variable
``u_x`` constrained by ``dist(u_x, x) ≤ d``.  The *level* of a single
relaxation predicate is its threshold ``d`` (0 when the constant/join is kept
exact) and the level ``gap(QΓ)`` of a relaxed query is the sum of the levels.

Implementation notes
--------------------
Distance predicates are not part of the query languages' built-in predicates,
so a relaxed query is represented by :class:`RelaxedQuery`, a
:class:`~repro.queries.base.Query` that evaluates a rewritten conjunctive
query (with the fresh variables exposed) and then filters bindings by the
distance thresholds.  This matches the semantics of Section 7 while keeping
the base query languages untouched.

Enumerating relaxations "up to D-equivalence" (the trick behind the paper's
upper bounds) is implemented in :class:`RelaxationSpace`: the candidate
thresholds for a relaxation point are exactly the distances from the original
constant to the values present in the relevant column of the database, so only
finitely many — and, for a fixed query, polynomially many — relaxed queries
are ever considered.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.queries.ast import Comparison, ComparisonOp, Const, RelationAtom, Term, Var
from repro.queries.base import Query
from repro.queries.cq import ConjunctiveQuery
from repro.queries.sp import SPQuery
from repro.relational.database import Database, Relation, Row
from repro.relational.errors import ModelError
from repro.relational.ordering import row_sort_key, value_sort_key
from repro.relational.schema import Value
from repro.relaxation.distance import DiscreteDistance, DistanceFunction

ATOM = "atom"
COMPARISON = "comparison"


def _safe_distance(distance: "DistanceFunction", a: Value, b: Value) -> Optional[float]:
    """``distance(a, b)``, or ``None`` when the pair is outside its domain.

    Active domains mix value types (city names next to prices); values a
    numeric distance function cannot compare are simply not relaxation
    candidates for that point.
    """
    try:
        return float(distance(a, b))
    except (TypeError, ValueError):
        return None


# ---------------------------------------------------------------------------
# Relaxation points and concrete relaxations
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RelaxationPoint:
    """One relaxable occurrence of a constant in a conjunctive query."""

    location: str  # ATOM or COMPARISON
    index: int  # which body atom / comparison
    position: int  # term position inside the atom; 0 = left, 1 = right for comparisons
    constant: Value
    distance: DistanceFunction = field(default_factory=DiscreteDistance, compare=False)
    label: str = ""

    def describe(self) -> str:
        where = f"{self.location}[{self.index}]#{self.position}"
        return self.label or f"constant {self.constant!r} at {where}"


@dataclass(frozen=True)
class JoinBreakPoint:
    """One breakable occurrence of a repeated variable (an equijoin to loosen)."""

    variable: str
    index: int  # which body atom carries the occurrence to replace
    position: int
    distance: DistanceFunction = field(default_factory=DiscreteDistance, compare=False)
    label: str = ""

    def describe(self) -> str:
        return self.label or f"join on {self.variable} at atom[{self.index}]#{self.position}"


RelaxablePoint = object  # RelaxationPoint | JoinBreakPoint


@dataclass(frozen=True)
class Relaxation:
    """An assignment of levels (thresholds) to relaxation points."""

    levels: Tuple[Tuple[RelaxablePoint, float], ...]

    def __init__(self, levels: Mapping[RelaxablePoint, float]) -> None:
        object.__setattr__(
            self, "levels", tuple(sorted(levels.items(), key=lambda kv: repr(kv[0])))
        )

    def gap(self) -> float:
        """``gap(QΓ)``: the sum of the relaxation levels."""
        return sum(level for _, level in self.levels)

    def level_of(self, point: RelaxablePoint) -> float:
        """The level assigned to one point (0 when the point is not relaxed)."""
        for candidate, level in self.levels:
            if candidate == point:
                return level
        return 0.0

    def is_trivial(self) -> bool:
        """Whether every level is 0 (the relaxed query equals the original)."""
        return all(level == 0 for _, level in self.levels)

    def describe(self) -> str:
        parts = [f"{point.describe()} ≤ {level}" for point, level in self.levels if level > 0]
        return "no relaxation" if not parts else "; ".join(parts)


# ---------------------------------------------------------------------------
# The relaxed query
# ---------------------------------------------------------------------------
def _as_cq(query: Query) -> ConjunctiveQuery:
    if isinstance(query, ConjunctiveQuery):
        return query
    if isinstance(query, SPQuery):
        return query.to_cq()
    raise ModelError(
        "query relaxation is implemented for conjunctive (and SP) queries; got "
        f"{type(query).__name__}"
    )


@dataclass
class _DistanceFilter:
    """A post-evaluation check attached to one relaxed position."""

    kind: str  # "atom", "comparison" or "join"
    distance: DistanceFunction
    level: float
    constant: Optional[Value] = None
    op: Optional[ComparisonOp] = None
    witness_column: Optional[int] = None  # index into the extra columns
    paired_column: Optional[int] = None
    other_constant: Optional[Value] = None


class RelaxedQuery(Query):
    """``QΓ``: a conjunctive query with some constants/joins loosened by Γ."""

    def __init__(self, base: Query, relaxation: Relaxation) -> None:
        self.base = _as_cq(base)
        self.relaxation = relaxation
        self.name = f"{self.base.name}_relaxed"
        self.answer_name = self.base.answer_name
        self._rewritten, self._filters = self._rewrite()

    # -- rewriting ------------------------------------------------------------
    def _rewrite(self) -> Tuple[ConjunctiveQuery, List[_DistanceFilter]]:
        atoms = list(self.base.atoms)
        comparisons: List[Optional[Comparison]] = list(self.base.comparisons)
        extra_head: List[Term] = []
        filters: List[_DistanceFilter] = []
        fresh_counter = 0

        def fresh(prefix: str) -> Var:
            nonlocal fresh_counter
            fresh_counter += 1
            return Var(f"__{prefix}{fresh_counter}")

        def add_extra(term: Term) -> int:
            extra_head.append(term)
            return len(extra_head) - 1

        for point, level in self.relaxation.levels:
            if level <= 0:
                continue
            if isinstance(point, RelaxationPoint) and point.location == ATOM:
                witness = fresh("w")
                atom = atoms[point.index]
                terms = list(atom.terms)
                terms[point.position] = witness
                atoms[point.index] = RelationAtom(atom.relation, terms)
                filters.append(
                    _DistanceFilter(
                        kind="atom",
                        distance=point.distance,
                        level=level,
                        constant=point.constant,
                        witness_column=add_extra(witness),
                    )
                )
            elif isinstance(point, RelaxationPoint) and point.location == COMPARISON:
                comparison = comparisons[point.index]
                if comparison is None:
                    raise ModelError(
                        "two relaxation points target the same comparison; relax them "
                        "one at a time"
                    )
                other = comparison.right if point.position == 0 else comparison.left
                op = comparison.op.flip() if point.position == 0 else comparison.op
                comparisons[point.index] = None  # replaced by the distance filter
                filter_spec = _DistanceFilter(
                    kind="comparison",
                    distance=point.distance,
                    level=level,
                    constant=point.constant,
                    op=op,
                )
                if isinstance(other, Var):
                    filter_spec.witness_column = add_extra(other)
                else:
                    filter_spec.other_constant = other.value
                filters.append(filter_spec)
            elif isinstance(point, JoinBreakPoint):
                witness = fresh("u")
                atom = atoms[point.index]
                terms = list(atom.terms)
                terms[point.position] = witness
                atoms[point.index] = RelationAtom(atom.relation, terms)
                filters.append(
                    _DistanceFilter(
                        kind="join",
                        distance=point.distance,
                        level=level,
                        witness_column=add_extra(witness),
                        paired_column=add_extra(Var(point.variable)),
                    )
                )
            else:  # pragma: no cover - defensive
                raise ModelError(f"unknown relaxation point type: {point!r}")

        widened = ConjunctiveQuery(
            tuple(self.base.head) + tuple(extra_head),
            atoms,
            [comparison for comparison in comparisons if comparison is not None],
            name=self.name,
            answer_name=self.answer_name,
        )
        return widened, filters

    # -- Query interface ---------------------------------------------------------
    @property
    def output_attributes(self) -> Tuple[str, ...]:
        return self.base.output_attributes

    def relations_used(self) -> FrozenSet[str]:
        return self.base.relations_used()

    def gap(self) -> float:
        """``gap(QΓ)`` of this relaxed query."""
        return self.relaxation.gap()

    @property
    def active_domain_independent(self) -> bool:
        """True unless a *comparison* was relaxed.

        Relaxed comparisons quantify over the database's active domain ("some
        value within distance d of the constant"), so any tuple inserted
        anywhere can change the answer; relaxed constants and broken joins
        only re-read the query's own relations.
        """
        return not any(spec.kind == "comparison" for spec in self._filters)

    @property
    def widened_query(self) -> ConjunctiveQuery:
        """The rewritten CQ whose answers carry the relaxation witnesses.

        Its head is the base head plus one extra column per relaxed position;
        :meth:`project_filtered` turns its answers into the relaxed answers.
        The incremental subsystem maintains *this* query across deltas (it is
        a plain CQ, so the delta rules apply) and re-projects on read.
        """
        return self._rewritten

    def project_filtered(
        self, widened_rows: Iterable[Row], database: Database
    ) -> Iterator[Row]:
        """Relaxed answer rows from widened-query answer rows.

        Applies the distance filters to the witness columns and projects back
        onto the base head.  The active domain (needed only by relaxed
        *comparisons*, which quantify over it) is taken from ``database`` at
        call time, so callers holding incrementally maintained widened answers
        still see relaxation semantics over the current data.
        """
        base_arity = self.base.output_arity
        if any(spec.kind == "comparison" for spec in self._filters):
            domain: Tuple[Value, ...] = tuple(
                sorted(database.active_domain(), key=value_sort_key)
            )
        else:
            domain = ()
        for row in widened_rows:
            if self._passes_filters(row[base_arity:], domain):
                yield row[:base_arity]

    def evaluate(self, database: Database, extra_relations=None) -> Relation:
        widened_answer = self._rewritten.evaluate(database, extra_relations=extra_relations)
        result = self.empty_answer()
        for row in self.project_filtered(widened_answer, database):
            result.add(row)
        return result

    def _passes_filters(self, extras: Row, domain: Sequence[Value]) -> bool:
        for spec in self._filters:
            if spec.kind == "atom":
                witness = extras[spec.witness_column]
                if spec.distance(witness, spec.constant) > spec.level:
                    return False
            elif spec.kind == "join":
                witness = extras[spec.witness_column]
                partner = extras[spec.paired_column]
                if spec.distance(witness, partner) > spec.level:
                    return False
            else:  # comparison: ∃ w within level of the constant with (other op w)
                other = (
                    extras[spec.witness_column]
                    if spec.witness_column is not None
                    else spec.other_constant
                )
                candidates = tuple(domain) + (spec.constant,)
                if not any(
                    self._comparison_candidate_ok(spec, other, w) for w in candidates
                ):
                    return False
        return True

    @staticmethod
    def _comparison_candidate_ok(spec: _DistanceFilter, other: Value, candidate: Value) -> bool:
        """Whether one active-domain value witnesses a relaxed comparison.

        Values the distance function or the comparison operator cannot handle
        (e.g. strings against a numeric constant) simply do not witness the
        predicate — they are outside the relaxed constant's domain.
        """
        try:
            return (
                spec.distance(candidate, spec.constant) <= spec.level
                and spec.op.apply(other, candidate)
            )
        except (TypeError, ValueError):
            return False

    def __str__(self) -> str:
        return f"{self.base} relaxed by [{self.relaxation.describe()}]"


# ---------------------------------------------------------------------------
# The relaxation space: points + candidate levels (up to D-equivalence)
# ---------------------------------------------------------------------------
@dataclass
class RelaxationSpace:
    """The set of relaxable positions of one query plus their distance functions."""

    query: Query
    points: Tuple[RelaxablePoint, ...]

    @classmethod
    def for_constants(
        cls,
        query: Query,
        distances: Optional[Mapping[Value, DistanceFunction]] = None,
        default_distance: Optional[DistanceFunction] = None,
        include: Optional[Iterable[Value]] = None,
    ) -> "RelaxationSpace":
        """Discover every constant occurrence of the query as a relaxation point.

        ``distances`` maps constant values to their distance function;
        ``include`` restricts which constants are relaxable (the paper's set
        ``E``).  Constants not covered get ``default_distance`` (discrete by
        default).
        """
        cq_query = _as_cq(query)
        distances = dict(distances or {})
        default = default_distance or DiscreteDistance()
        allowed = set(include) if include is not None else None
        points: List[RelaxablePoint] = []
        for atom_index, atom in enumerate(cq_query.atoms):
            for position, term in enumerate(atom.terms):
                if isinstance(term, Const):
                    if allowed is not None and term.value not in allowed:
                        continue
                    points.append(
                        RelaxationPoint(
                            ATOM,
                            atom_index,
                            position,
                            term.value,
                            distances.get(term.value, default),
                            label=f"{atom.relation}[{position}] = {term.value!r}",
                        )
                    )
        for comparison_index, comparison in enumerate(cq_query.comparisons):
            for position, term in enumerate((comparison.left, comparison.right)):
                if isinstance(term, Const):
                    if allowed is not None and term.value not in allowed:
                        continue
                    points.append(
                        RelaxationPoint(
                            COMPARISON,
                            comparison_index,
                            position,
                            term.value,
                            distances.get(term.value, default),
                            label=f"comparison ({comparison}) side {position}",
                        )
                    )
        return cls(query=query, points=tuple(points))

    def with_join_breaks(self, distance: Optional[DistanceFunction] = None) -> "RelaxationSpace":
        """Add a break point for every repeated variable occurrence (beyond the first)."""
        cq_query = _as_cq(self.query)
        distance = distance or DiscreteDistance()
        seen: Dict[str, int] = {}
        extra: List[RelaxablePoint] = []
        for atom_index, atom in enumerate(cq_query.atoms):
            for position, term in enumerate(atom.terms):
                if isinstance(term, Var):
                    seen[term.name] = seen.get(term.name, 0) + 1
                    if seen[term.name] > 1:
                        extra.append(JoinBreakPoint(term.name, atom_index, position, distance))
        return replace(self, points=self.points + tuple(extra))

    # -- candidate levels ------------------------------------------------------------
    def candidate_levels(
        self, point: RelaxablePoint, database: Database, max_gap: float
    ) -> Tuple[float, ...]:
        """Thresholds worth trying for one point, up to D-equivalence.

        Always contains 0 (no relaxation); the other candidates are the
        distances from the original constant to the values actually present in
        the database column the point touches (capped by ``max_gap``).
        """
        values = self._column_values(point, database)
        levels = {0.0}
        if isinstance(point, RelaxationPoint):
            for value in values:
                distance = _safe_distance(point.distance, point.constant, value)
                if distance is not None and 0 < distance <= max_gap:
                    levels.add(float(distance))
        else:
            for a in values:
                for b in values:
                    if a == b:
                        continue
                    distance = _safe_distance(point.distance, a, b)
                    if distance is not None and 0 < distance <= max_gap:
                        levels.add(float(distance))
        return tuple(sorted(levels))

    def _column_values(self, point: RelaxablePoint, database: Database) -> Tuple[Value, ...]:
        cq_query = _as_cq(self.query)
        if isinstance(point, RelaxationPoint) and point.location == ATOM:
            atom = cq_query.atoms[point.index]
            relation = database.relation(atom.relation)
            return tuple(
                sorted({row[point.position] for row in relation}, key=value_sort_key)
            )
        if isinstance(point, JoinBreakPoint):
            atom = cq_query.atoms[point.index]
            relation = database.relation(atom.relation)
            return tuple(
                sorted({row[point.position] for row in relation}, key=value_sort_key)
            )
        return tuple(sorted(database.active_domain(), key=value_sort_key))

    def enumerate_relaxations(
        self, database: Database, max_gap: float, include_trivial: bool = True
    ) -> Iterator[Relaxation]:
        """All relaxations with ``gap ≤ max_gap``, in order of increasing gap."""
        per_point = [self.candidate_levels(point, database, max_gap) for point in self.points]
        combos: List[Tuple[float, Tuple[float, ...], Dict[RelaxablePoint, float]]] = []
        for levels in product(*per_point) if per_point else [()]:
            assignment = dict(zip(self.points, levels))
            total = sum(levels)
            if total <= max_gap:
                combos.append((total, levels, assignment))
        # Ties on the total break on the per-point level tuple (the points are
        # a fixed sequence, so the tuple determines the assignment) through
        # the typed total order — never repr text.
        combos.sort(key=lambda combo: (combo[0], row_sort_key(combo[1])))
        for total, _levels, assignment in combos:
            relaxation = Relaxation(assignment)
            if not include_trivial and relaxation.is_trivial():
                continue
            yield relaxation

    def relax(self, relaxation: Relaxation) -> RelaxedQuery:
        """The relaxed query ``QΓ`` for a concrete level assignment."""
        return RelaxedQuery(self.query, relaxation)

    def __len__(self) -> int:
        return len(self.points)
