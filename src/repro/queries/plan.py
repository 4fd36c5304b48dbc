"""Cost-based join planning for conjunctions of relation atoms.

The backtracking evaluator in :mod:`repro.queries.bindings` historically chose
the next atom dynamically and scanned its whole relation at every node.  The
key observation enabling a *static* plan is that after an atom is matched
against a row, **all** of its variables are bound — so the set of bound
variables at depth ``d`` of the search depends only on which atoms were chosen
at depths ``< d``, never on which rows matched.  The atom order is therefore a
function of the prefix alone and can be compiled once per evaluation:

* :func:`plan_conjunction` orders the atoms.  Given per-relation
  :class:`~repro.relational.statistics.RelationStatistics` it picks, at every
  depth, the atom with the lowest *estimated cost* — cardinality scaled by
  ``1/distinct`` for every resolved position (the textbook independence
  estimate) and by a constant selectivity for an applicable range predicate.
  Without statistics it falls back to the historical most-constrained-first
  greedy (resolved-position count, first-wins tie-break), exactly replicating
  the naive evaluator's dynamic order.  Either order yields identical answers
  — only cost may differ — which the differential suite proves across its
  on/off axes.  One honest carve-out: on malformed data whose scheduled
  comparisons are *partial* (a ``TypeError``-raising mixed-type column), which
  rows ever reach a comparison depends on the join order and on semi-join
  pruning, so a reordered or reduced plan may complete where the historical
  order raises (the access paths themselves never widen this: a range probe
  declines rather than filter where the scan would raise).  Answers on
  well-typed data are always identical;
* each :class:`PlannedAtom` records which term positions are resolved when the
  atom runs.  Positions holding constants or bound variables become *probe
  positions*: at runtime the executor asks the relation's lazy hash index
  (:meth:`repro.relational.database.Relation.probe`) for exactly the matching
  rows instead of scanning the relation;
* a step with no probe positions but a *ground one-sided comparison* on one of
  the variables it binds (``price < 30`` with ``30`` a constant or an
  already-bound variable) carries a :class:`PlannedRange`: the executor
  answers it through the relation's sorted index
  (:meth:`repro.relational.database.Relation.range_rows`) with two bisections
  instead of a scan.  The comparison stays in the schedule — the range probe
  is purely an access path, so semantics never depend on it;
* comparisons are scheduled at the earliest depth at which all their variables
  are bound (again a static property), and comparisons whose variables are
  bound by no atom are flagged so the executor can reject the unsafe query
  with the same error as the naive evaluator;
* for *acyclic* conjunctions the planner attaches a join tree
  (:attr:`JoinPlan.semijoin_tree`, computed by GYO ear removal) and, when the
  statistics estimate a large intermediate result, sets
  :attr:`JoinPlan.run_semijoin`: the executor then runs the two Yannakakis
  semi-join passes to prune dangling tuples before the join proper;
* for *cyclic* conjunctions (GYO finds no ear — triangles, 4-cycles,
  stars-with-chords) no join order avoids a large intermediate, so the
  planner compiles a :class:`PlannedMultiway`: a worst-case-optimal
  leapfrog-triejoin step with a statistics-driven global variable
  elimination order, executed against composite trie indexes
  (:meth:`repro.relational.database.Relation.trie_index_on`).  The cost
  model is AGM-style: :func:`multiway_estimate` bounds the multiway
  enumeration by a fractional-edge-cover product of the cardinalities,
  while the binary plan is charged its *worst-case* intermediate (prefix
  products of per-position heavy-hitter frequencies — the independence
  estimate that orders atoms is an average-case figure and is exactly what
  cyclic skew breaks).  :attr:`JoinPlan.run_multiway` records the verdict.

Every access-path choice is a verdict on the compiled plan, and the executor
carries the verdicts out as given: it has no switch of its own.  Under
pre-bound variables (the delta rules' seeded evaluations, which must stay
O(|Δ|)) the planner turns the whole-relation strategies — semi-join,
multiway, columnar — off itself.  A test or benchmark that needs a
particular path builds the plan directly and passes it in as ``plan=``.

Compiled plans are cached (:func:`cached_plan`) keyed on the conjunction, the
pre-bound variable names and the statistics snapshot they were costed with —
repeated solver probes of the same ``Qc`` against a database whose statistics
have not drifted stop re-planning entirely.  Every lookup gathers the
statistics it is keyed on; a relation memoizes its snapshot per version, so
only a changed or fresh relation (a ``Qc`` probe's answer relation) computes
one.  A plan is semantically valid for *any* database (statistics only steer
cost), so a cache hit can never change answers.

The executor runs a plan as a :class:`SlotProgram`: every variable gets a
slot index, each step precomputed bind and check positions, and each
scheduled comparison becomes the :mod:`operator` function of its predicate
applied to two slots.  A plan keeps its programs
(:meth:`JoinPlan.slot_program`, one per set of pre-bound names), so a plan
served from the cache is compiled to slots once.

**Adding a new access path**: the multiway step above is the worked example —
see the ROADMAP's "Adding a new access path" recipe, which walks through it
layer by layer.  In short: extend the plan vocabulary (a new field on
:class:`PlannedAtom` for a per-step path, or a plan-level section like
:class:`PlannedMultiway` for a whole-conjunction strategy), emit it here
behind a cost verdict so the cost-based choice can prefer it, give what the
branch reads a slot in :class:`SlotProgram`, and add the matching branch in
:func:`repro.queries.bindings.enumerate_bindings` that runs when the plan's
verdict says so, binding into the program's slots.  The access path must
surface a *superset* of the matching rows — or, like the multiway step,
prove each binding it yields row-by-row — and any maintained state it needs on
:class:`~repro.relational.database.Relation` follows the statistics contract:
build lazily, maintain under point mutations, drop under bulk mutations,
*decline* (fall back to the reference semantics) on data it cannot serve
exactly.  The differential suite's axes matrix, which forces each verdict
on and off through a hand-built plan, then certifies the new path against
the naive reference for free.
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.observability import metrics as _metrics
from repro.queries.ast import Comparison, ComparisonOp, Const, RelationAtom, Term, Var
from repro.relational.errors import EvaluationError
from repro.relational.schema import Value
from repro.relational.statistics import RelationStatistics

#: Assumed fraction of a relation a ground one-sided comparison retains when
#: no histogram is available; only steers atom ordering, never answers.
RANGE_SELECTIVITY = 0.3

#: The semi-join reduction runs when the estimated largest intermediate result
#: exceeds this multiple of the total rows the reduction passes must touch.
SEMIJOIN_INTERMEDIATE_FACTOR = 4.0

#: A columnar kernel pays a per-call dispatch cost, so the planner only votes
#: for it when some scan step's relation is at least this large; below it the
#: tuple-set loop wins.  Steers cost only, never answers.
COLUMNAR_MIN_ROWS = 1024

#: Comparison operators a sorted index can answer with a contiguous range.
_RANGE_OPS = (
    ComparisonOp.LT,
    ComparisonOp.LE,
    ComparisonOp.GT,
    ComparisonOp.GE,
    ComparisonOp.EQ,
)


@dataclass(frozen=True)
class PlannedRange:
    """A range access path: ``row[position] <op> term`` with ``term`` ground.

    Normalised so the step's own variable is on the left; ``term`` is a
    constant or a variable bound before the step runs.
    """

    position: int
    op: ComparisonOp
    term: Term

    def describe(self) -> str:
        return f"[{self.position}] {self.op.value} {self.term}"


@dataclass(frozen=True)
class PlannedAtom:
    """One step of a join plan: an atom plus its access path.

    ``probe_positions``/``probe_terms`` are the term positions (and the terms
    occupying them) whose values are known before the step runs — constants and
    variables bound earlier.  A non-empty probe means the executor uses a hash
    index lookup; with an empty probe, a non-``None`` ``range_probe`` means a
    sorted-index range lookup, and otherwise the step is a full scan.
    ``new_variables`` are the variable names this step binds for the first
    time.
    """

    atom: RelationAtom
    probe_positions: Tuple[int, ...]
    probe_terms: Tuple[Term, ...]
    new_variables: Tuple[str, ...]
    range_probe: Optional[PlannedRange] = None
    #: The planner's estimated row count for this step (the cost the greedy
    #: ordering paid for it), when statistics were available.  Carried for
    #: EXPLAIN ANALYZE's actual-vs-estimated rendering; never read by the
    #: executor.
    estimated_rows: Optional[float] = None
    #: Every ground one-sided comparison on this step's new variables, as
    #: range forms the columnar kernel can evaluate in one vectorized pass
    #: (the sorted-index ``range_probe`` above carries only the *first* —
    #: bisection answers a single contiguous range, a mask conjunction takes
    #: them all).  Pushed-down comparisons stay in the schedule: the kernel
    #: surfaces a superset and may decline, so semantics never depend on it.
    columnar_pushdowns: Tuple[PlannedRange, ...] = ()

    @property
    def uses_index(self) -> bool:
        """Whether this step runs as a hash-index probe rather than a scan."""
        return bool(self.probe_positions)

    def describe(self) -> str:
        if self.uses_index:
            probes = ", ".join(
                f"{position}={term}"
                for position, term in zip(self.probe_positions, self.probe_terms)
            )
            return f"probe {self.atom} on [{probes}]"
        if self.range_probe is not None:
            return f"range {self.atom} on {self.range_probe.describe()}"
        return f"scan {self.atom}"


@dataclass(frozen=True)
class MultiwayAtom:
    """One atom's trie access for a :class:`PlannedMultiway` step.

    ``trie_positions`` is the variable order the relation's composite trie is
    built in: positions holding constants first (descended once, before the
    search), then the variable positions grouped per variable in global
    elimination order — so at every global level the atom's trie is parked
    exactly above the levels of the variable being resolved.
    ``const_values`` parallels the leading constant positions;
    ``var_levels`` lists ``(variable, consecutive trie levels)`` pairs — a
    repeated variable (``R(x, x)``) owns two adjacent levels and both are
    descended with the same value.
    """

    atom: RelationAtom
    trie_positions: Tuple[int, ...]
    const_values: Tuple[Value, ...]
    var_levels: Tuple[Tuple[str, int], ...]

    def describe(self) -> str:
        order = ", ".join(str(p) for p in self.trie_positions)
        return f"trie {self.atom} on [{order}]"


@dataclass(frozen=True)
class PlannedMultiway:
    """A worst-case-optimal multiway step over a whole cyclic conjunction.

    Executed by the leapfrog branch of
    :func:`repro.queries.bindings.enumerate_bindings`: variables are resolved
    one at a time in ``var_order``, the candidates of each variable obtained
    by leapfrog-intersecting the sorted current trie levels of every atom
    containing it.  ``comparison_schedule`` has ``len(var_order) + 1``
    entries scheduling each comparison at the earliest level at which it is
    ground (entry ``0`` covers comparisons ground under the initial binding
    alone); ``estimated_answers`` is the AGM-style fractional-cover bound the
    planner's verdict weighed against the binary plan's worst-case
    intermediate.
    """

    var_order: Tuple[str, ...]
    atoms: Tuple[MultiwayAtom, ...]
    comparison_schedule: Tuple[Tuple[int, ...], ...]
    estimated_answers: float

    def describe(self) -> str:
        order = ", ".join(self.var_order)
        lines = [f"multiway leapfrog, variable order [{order}] (AGM ~ {self.estimated_answers:.0f})"]
        lines.extend(f"  {matom.describe()}" for matom in self.atoms)
        return "\n".join(lines)


#: One edge of the semi-join tree: (child step index, parent step index,
#: shared variable names).  A parent of ``-1`` marks the root of a connected
#: component (no filtering edge).  Edges are listed in GYO ear-removal order,
#: which is a valid bottom-up pass order for the Yannakakis reduction.
SemiJoinEdge = Tuple[int, int, Tuple[str, ...]]


@dataclass(frozen=True)
class JoinPlan:
    """An ordered sequence of planned atoms plus a comparison schedule.

    ``comparison_schedule`` has ``len(steps) + 1`` entries: entry ``d`` lists
    the indices (into ``comparisons``) of the comparisons that first become
    ground once ``d`` steps have bound their variables (entry ``0`` covers
    comparisons ground under the initial binding alone).
    ``unresolved_comparisons`` are never ground — the executor raises the
    unsafe-query error when a complete binding is reached, matching the naive
    evaluator.

    ``semijoin_tree`` is the GYO join tree when the conjunction is acyclic
    (empty otherwise); ``run_semijoin`` is the planner's cost-based verdict on
    whether the Yannakakis reduction passes are worth their scans.

    ``multiway`` is the compiled worst-case-optimal step when the conjunction
    is *cyclic* and statistics were available (``None`` otherwise);
    ``run_multiway`` is the planner's verdict — AGM bound below the binary
    plan's worst-case intermediate.  The binary ``steps`` are always compiled
    too: they are the fallback when a trie declines (mixed-type columns) and
    the path taken when the verdict is off.

    ``run_columnar`` is the planner's verdict on the vectorized columnar
    kernels: some scan step is large enough (:data:`COLUMNAR_MIN_ROWS`) for
    vectorized selection to beat the tuple-set loop.  The per-step
    ``columnar_pushdowns`` are compiled regardless of the verdict.

    The executor follows every ``run_*`` verdict as given, falling back to
    the reference path only where an access path declines (a trie or an
    encoding that cannot serve the data exactly); ``plan_conjunction`` sets
    all three off whenever variables are pre-bound.

    The executor runs the plan's :class:`SlotProgram` (:meth:`slot_program`),
    compiled on first use and kept with the plan, so a cached plan is
    compiled once.
    """

    steps: Tuple[PlannedAtom, ...]
    comparisons: Tuple[Comparison, ...]
    comparison_schedule: Tuple[Tuple[int, ...], ...]
    unresolved_comparisons: Tuple[int, ...]
    semijoin_tree: Tuple[SemiJoinEdge, ...] = ()
    run_semijoin: bool = False
    multiway: Optional[PlannedMultiway] = None
    run_multiway: bool = False
    run_columnar: bool = False
    #: Slot programs by pre-bound names.  Not an init field, so a plan
    #: rebuilt with ``dataclasses.replace`` starts with none of its source's.
    _programs: Dict[Tuple[str, ...], "SlotProgram"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def slot_program(self, pre_bound: Tuple[str, ...]) -> "SlotProgram":
        """The plan compiled for a run whose initial binding has these names.

        Served from the plan after the first call with the same names; a
        race between threads compiles twice and keeps either, both equal.
        """
        program = self._programs.get(pre_bound)
        if program is None:
            program = self._programs[pre_bound] = SlotProgram(self, pre_bound)
        return program

    def describe(self) -> str:
        """A textual rendering of the plan, one line per step."""
        lines = [step.describe() for step in self.steps]
        for depth, scheduled in enumerate(self.comparison_schedule):
            for index in scheduled:
                lines.append(f"check {self.comparisons[index]} at depth {depth}")
        if self.semijoin_tree:
            state = "on" if self.run_semijoin else "off"
            edges = ", ".join(
                f"{child}→{parent}" if parent >= 0 else f"{child}→·"
                for child, parent, _ in self.semijoin_tree
            )
            lines.append(f"semi-join reduction {state} (acyclic: {edges})")
        if self.multiway is not None:
            state = "on" if self.run_multiway else "off"
            lines.append(f"multiway {state} (cyclic):")
            lines.append(self.multiway.describe())
        columnar_steps = [step for step in self.steps if step.columnar_pushdowns]
        if columnar_steps:
            state = "on" if self.run_columnar else "off"
            for step in columnar_steps:
                pushdowns = ", ".join(
                    planned.describe() for planned in step.columnar_pushdowns
                )
                lines.append(f"columnar {state} {step.atom} pushdown [{pushdowns}]")
        return "\n".join(lines) if lines else "empty plan"


def most_constrained_index(
    remaining: Sequence[RelationAtom], bound: "Set[str] | Mapping[str, Value]"
) -> int:
    """Index of the atom with the most resolved term positions (first wins ties).

    ``bound`` is any container answering ``name in bound`` — the planner passes
    the set of statically bound names, the naive evaluator its live binding
    dict.  Sharing one scoring function is what keeps the planned and naive
    search trees identical whenever no index is applicable.
    """
    best_index = 0
    best_score = -1
    for index, atom in enumerate(remaining):
        score = 0
        for term in atom.terms:
            if isinstance(term, Const) or term.name in bound:
                score += 1
        if score > best_score:
            best_score = score
            best_index = index
    return best_index


# ---------------------------------------------------------------------------
# Range-probe detection
# ---------------------------------------------------------------------------
def _range_form(
    atom: RelationAtom, bound: Set[str], comparison: Comparison
) -> Optional[PlannedRange]:
    """``comparison`` as a range probe for ``atom``, or ``None``.

    Eligible when one side is a variable the atom binds for the first time and
    the other side is ground before the step (a constant or a bound variable);
    the operator is normalised so the atom's variable is on the left.
    """
    for var_side, ground_side, op in (
        (comparison.left, comparison.right, comparison.op),
        (comparison.right, comparison.left, comparison.op.flip()),
    ):
        if not isinstance(var_side, Var) or var_side.name in bound:
            continue
        if isinstance(ground_side, Var) and ground_side.name not in bound:
            continue
        if op not in _RANGE_OPS:
            continue
        for position, term in enumerate(atom.terms):
            if isinstance(term, Var) and term.name == var_side.name:
                return PlannedRange(position, op, ground_side)
    return None


def _first_range_form(
    atom: RelationAtom, bound: Set[str], comparisons: Sequence[Comparison]
) -> Optional[PlannedRange]:
    for comparison in comparisons:
        form = _range_form(atom, bound, comparison)
        if form is not None:
            return form
    return None


def _all_range_forms(
    atom: RelationAtom, bound: Set[str], comparisons: Sequence[Comparison]
) -> Tuple[PlannedRange, ...]:
    """Every comparison eligible as a range form for ``atom``, in query order."""
    forms = []
    for comparison in comparisons:
        form = _range_form(atom, bound, comparison)
        if form is not None:
            forms.append(form)
    return tuple(forms)


# ---------------------------------------------------------------------------
# Cost estimation
# ---------------------------------------------------------------------------
def _estimated_cost(
    atom: RelationAtom,
    bound: Set[str],
    comparisons: Sequence[Comparison],
    stats: RelationStatistics,
) -> float:
    """Estimated candidate rows the step surfaces (the executor's tick count).

    Cardinality scaled by ``1/distinct`` per resolved position (independence
    assumption); a scan with an applicable range predicate is credited the
    flat :data:`RANGE_SELECTIVITY`.
    """
    estimate = float(stats.cardinality)
    resolved = False
    for position, term in enumerate(atom.terms):
        if isinstance(term, Const) or (isinstance(term, Var) and term.name in bound):
            estimate /= max(1, stats.distinct(position))
            resolved = True
    if not resolved and _first_range_form(atom, bound, comparisons) is not None:
        estimate *= RANGE_SELECTIVITY
    return estimate


def _cheapest_index(
    remaining: Sequence[RelationAtom],
    bound: Set[str],
    comparisons: Sequence[Comparison],
    statistics: Mapping[str, RelationStatistics],
) -> Tuple[int, float]:
    """Index (and cost) of the cheapest remaining atom; first wins ties."""
    best_index = 0
    best_cost: Optional[float] = None
    for index, atom in enumerate(remaining):
        cost = _estimated_cost(atom, bound, comparisons, statistics[atom.relation])
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_index = index
    assert best_cost is not None
    return best_index, best_cost


# ---------------------------------------------------------------------------
# Acyclicity / join tree (GYO ear removal)
# ---------------------------------------------------------------------------
def _join_tree(
    atoms: Sequence[RelationAtom], bound_variables: FrozenSet[str]
) -> Optional[Tuple[SemiJoinEdge, ...]]:
    """The GYO join tree over the atoms' free variables, or ``None`` if cyclic.

    Initially-bound variables act as constants and drop out of the hypergraph.
    Edges are returned in ear-removal order: each entry ``(child, parent,
    shared)`` says the child atom hangs off ``parent`` via the shared variable
    names (``parent == -1`` for the isolated root of a component).
    """
    var_sets = [
        frozenset(v.name for v in atom.variables()) - bound_variables for atom in atoms
    ]
    alive = set(range(len(atoms)))
    edges: List[SemiJoinEdge] = []
    while len(alive) > 1:
        ear: Optional[SemiJoinEdge] = None
        for index in sorted(alive):
            others = sorted(alive - {index})
            shared = var_sets[index] & frozenset().union(*(var_sets[j] for j in others))
            if not shared:
                ear = (index, -1, ())
                break
            parent = next((j for j in others if shared <= var_sets[j]), None)
            if parent is not None:
                ear = (index, parent, tuple(sorted(shared)))
                break
        if ear is None:
            return None  # no ear: the hypergraph is cyclic
        edges.append(ear)
        alive.discard(ear[0])
    return tuple(edges)


def _take_ready_comparisons(
    comparisons: Sequence[Comparison], scheduled: Set[int], bound: Set[str]
) -> Tuple[int, ...]:
    """Indices of comparisons newly ground under ``bound``; marks them scheduled.

    The earliest-ground scheduling rule shared by the binary plan (one entry
    per join step) and the multiway plan (one entry per elimination level) —
    one implementation so the two schedules can never drift apart.
    """
    ready = tuple(
        index
        for index, comparison in enumerate(comparisons)
        if index not in scheduled
        and all(var.name in bound for var in comparison.variables())
    )
    scheduled.update(ready)
    return ready


# ---------------------------------------------------------------------------
# Worst-case-optimal multiway compilation
# ---------------------------------------------------------------------------
def multiway_estimate(
    atoms: Sequence[RelationAtom],
    bound_variables: FrozenSet[str],
    statistics: Mapping[str, RelationStatistics],
) -> float:
    """An AGM-style bound on the answers of a conjunction: ∏ |Rᵢ|^wᵢ.

    The weights are a (generally sub-optimal but always valid) fractional
    edge cover: an atom holding a variable no other atom mentions must carry
    weight 1; every other atom carries weight ½, which covers each remaining
    variable because it occurs in at least two atoms.  For the canonical
    cyclic shapes this is exact — a triangle or a 4-cycle of ``n``-row
    relations is bounded by ``n^{3/2}`` / ``n²`` respectively — and it is the
    enumeration bound the leapfrog executor meets, so the verdict weighs it
    against the binary plan's worst-case intermediate.  Initially bound
    variables act as constants and need no cover.
    """
    occurrences: Dict[str, int] = {}
    for atom in atoms:
        for name in {v.name for v in atom.variables()} - bound_variables:
            occurrences[name] = occurrences.get(name, 0) + 1
    estimate = 1.0
    for atom in atoms:
        names = {v.name for v in atom.variables()} - bound_variables
        if not names:
            continue  # a ground atom is a membership test: weight 0
        weight = 1.0 if any(occurrences[name] == 1 for name in names) else 0.5
        estimate *= float(max(statistics[atom.relation].cardinality, 1)) ** weight
    return estimate


def _elimination_order(
    atoms: Sequence[RelationAtom],
    bound_variables: FrozenSet[str],
    statistics: Mapping[str, RelationStatistics],
) -> Tuple[str, ...]:
    """A cost-ordered global variable elimination order for the leapfrog join.

    Initially bound variables come first (they are singleton candidates at
    runtime, so resolving them early prunes every trie below them).  The rest
    are chosen greedily: the variable with the fewest candidate values — the
    minimum, over its occurrences, of the position's distinct count — among
    those *connected* to the variables already placed (sharing an atom), so
    the intersections stay selective instead of degenerating into a cross
    product.  Ties break towards variables occurring in more atoms, then by
    name, keeping the order deterministic for the plan cache.
    """
    occurrences: Dict[str, List[Tuple[str, int]]] = {}
    for atom in atoms:
        seen: Set[str] = set()
        for position, term in enumerate(atom.terms):
            if isinstance(term, Var) and term.name not in seen:
                seen.add(term.name)
                occurrences.setdefault(term.name, []).append((atom.relation, position))

    def score(name: str) -> Tuple[float, int, str]:
        candidates = min(
            max(1, statistics[relation].distinct(position))
            for relation, position in occurrences[name]
        )
        return (float(candidates), -len(occurrences[name]), name)

    order = sorted(name for name in occurrences if name in bound_variables)
    placed = set(order)
    remaining = {name for name in occurrences if name not in placed}
    atom_vars = [
        {v.name for v in atom.variables()} for atom in atoms
    ]
    while remaining:
        connected = {
            name
            for names in atom_vars
            if names & placed
            for name in names & remaining
        }
        pool = connected or remaining
        choice = min(pool, key=score)
        order.append(choice)
        placed.add(choice)
        remaining.discard(choice)
    return tuple(order)


def _compile_multiway(
    atoms: Sequence[RelationAtom],
    comparisons: Sequence[Comparison],
    bound_variables: FrozenSet[str],
    statistics: Mapping[str, RelationStatistics],
) -> PlannedMultiway:
    """Compile the leapfrog step: elimination order, per-atom tries, schedule."""
    var_order = _elimination_order(atoms, bound_variables, statistics)
    order_index = {name: level for level, name in enumerate(var_order)}

    multiway_atoms: List[MultiwayAtom] = []
    for atom in atoms:
        const_positions: List[int] = []
        var_positions: "OrderedDict[str, List[int]]" = OrderedDict()
        for position, term in enumerate(atom.terms):
            if isinstance(term, Const):
                const_positions.append(position)
            else:
                var_positions.setdefault(term.name, []).append(position)
        ordered_names = sorted(var_positions, key=order_index.__getitem__)
        trie_positions = tuple(const_positions) + tuple(
            position for name in ordered_names for position in var_positions[name]
        )
        multiway_atoms.append(
            MultiwayAtom(
                atom,
                trie_positions,
                tuple(atom.terms[p].value for p in const_positions),
                tuple((name, len(var_positions[name])) for name in ordered_names),
            )
        )

    scheduled: Set[int] = set()
    bound: Set[str] = set(bound_variables)
    schedule: List[Tuple[int, ...]] = [
        _take_ready_comparisons(comparisons, scheduled, bound)
    ]
    for name in var_order:
        bound.add(name)
        schedule.append(_take_ready_comparisons(comparisons, scheduled, bound))

    return PlannedMultiway(
        var_order,
        tuple(multiway_atoms),
        tuple(schedule),
        multiway_estimate(atoms, bound_variables, statistics),
    )


# ---------------------------------------------------------------------------
# The planner
# ---------------------------------------------------------------------------
def plan_conjunction(
    relation_atoms: Iterable[RelationAtom],
    comparisons: Iterable[Comparison] = (),
    bound_variables: "FrozenSet[str] | Set[str]" = frozenset(),
    statistics: Optional[Mapping[str, RelationStatistics]] = None,
) -> JoinPlan:
    """Compile a conjunction of atoms into an ordered :class:`JoinPlan`.

    ``bound_variables`` are the names bound before the search starts (the
    evaluator's ``initial_binding``); their values participate in index probes
    from the first step on.  ``statistics`` maps relation names to
    :class:`~repro.relational.statistics.RelationStatistics`; when present for
    *every* atom it drives cost-based atom ordering and the semi-join verdict,
    otherwise the historical most-constrained-first order is used wholesale.

    The plan is the executor's only switch: it runs the semi-join, multiway
    and columnar paths exactly when ``run_semijoin``, ``run_multiway`` and
    ``run_columnar`` say so.  All three are off when any variable is
    pre-bound — the delta rules' seeded evaluations must stay O(|Δ|), and
    each of those paths touches whole relations.
    """
    remaining: List[RelationAtom] = list(relation_atoms)
    conjunction = tuple(remaining)
    comparisons = tuple(comparisons)
    initially_bound = frozenset(bound_variables)
    bound: Set[str] = set(initially_bound)
    scheduled: Set[int] = set()

    costed = statistics is not None and all(
        atom.relation in statistics for atom in remaining
    )
    total_rows = (
        sum(statistics[atom.relation].cardinality for atom in remaining) if costed else 0
    )

    schedule: List[Tuple[int, ...]] = [
        _take_ready_comparisons(comparisons, scheduled, bound)
    ]
    steps: List[PlannedAtom] = []
    prefix = 1.0
    max_intermediate = 0.0
    worst_prefix = 1.0
    worst_intermediate = 0.0
    while remaining:
        estimated_rows: Optional[float] = None
        if costed:
            choice, cost = _cheapest_index(remaining, bound, comparisons, statistics)
            estimated_rows = cost
            prefix *= max(cost, 1e-9)
            max_intermediate = max(max_intermediate, prefix)
        else:
            choice = most_constrained_index(remaining, bound)
        atom = remaining.pop(choice)
        probe_positions: List[int] = []
        probe_terms: List[Term] = []
        new_variables: List[str] = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, Const) or term.name in bound:
                probe_positions.append(position)
                probe_terms.append(term)
            elif term.name not in new_variables:
                # A repeated unbound variable (e.g. R(x, x)) stays out of the
                # probe; the executor's row matcher enforces the equality.
                new_variables.append(term.name)
        if costed:
            # The *worst-case* intermediate the binary order could surface: a
            # probed step yields at most the heavy-hitter bucket of its most
            # selective probe position, an unprobed step the whole relation.
            # This is the degree bound the multiway verdict weighs the AGM
            # estimate against — the average-case `prefix` above is exactly
            # what skewed cyclic data breaks.
            step_stats = statistics[atom.relation]
            if probe_positions:
                worst_step = min(
                    step_stats.max_frequency(position) for position in probe_positions
                )
            else:
                worst_step = step_stats.cardinality
            worst_prefix *= float(worst_step)
            worst_intermediate = max(worst_intermediate, worst_prefix)
        range_probe = None
        columnar_pushdowns: Tuple[PlannedRange, ...] = ()
        if not probe_positions:
            range_probe = _first_range_form(atom, bound, comparisons)
            columnar_pushdowns = _all_range_forms(atom, bound, comparisons)
        bound.update(new_variables)
        steps.append(
            PlannedAtom(
                atom,
                tuple(probe_positions),
                tuple(probe_terms),
                tuple(new_variables),
                range_probe,
                estimated_rows,
                columnar_pushdowns,
            )
        )
        schedule.append(_take_ready_comparisons(comparisons, scheduled, bound))
    unresolved = tuple(
        index for index in range(len(comparisons)) if index not in scheduled
    )
    tree = _join_tree([step.atom for step in steps], initially_bound) if len(steps) > 1 else None
    # Whole-relation strategies never run under pre-bound variables.
    unseeded = costed and not initially_bound
    run_semijoin = bool(
        tree
        and unseeded
        # A tree without a filtering edge (a cross product of components)
        # cannot prune anything, so the reduction passes would be pure cost.
        and any(parent >= 0 and shared for _, parent, shared in tree)
        and max_intermediate > SEMIJOIN_INTERMEDIATE_FACTOR * max(total_rows, 1)
    )
    multiway: Optional[PlannedMultiway] = None
    run_multiway = False
    if costed and tree is None and len(steps) >= 3:
        # Cyclic (GYO found no ear) and costed: compile the leapfrog step.
        # Statistics are required — the elimination order and the verdict are
        # both cost-based, so the statistics-blind planner stays binary.
        multiway = _compile_multiway(conjunction, comparisons, initially_bound, statistics)
        run_multiway = unseeded and multiway.estimated_answers < worst_intermediate
    run_columnar = bool(
        unseeded
        and any(
            step.columnar_pushdowns
            and statistics[step.atom.relation].cardinality >= COLUMNAR_MIN_ROWS
            for step in steps
        )
    )
    return JoinPlan(
        tuple(steps),
        comparisons,
        tuple(schedule),
        unresolved,
        tree or (),
        run_semijoin,
        multiway,
        run_multiway,
        run_columnar,
    )


# ---------------------------------------------------------------------------
# The slot compiler
# ---------------------------------------------------------------------------
#: The :mod:`operator` function of each predicate: each takes its operands in
#: the order :meth:`ComparisonOp.apply` does and returns what it returns.
_OPERATORS: Dict[ComparisonOp, Callable[[Value, Value], object]] = {
    ComparisonOp.EQ: operator.eq,
    ComparisonOp.NE: operator.ne,
    ComparisonOp.LT: operator.lt,
    ComparisonOp.LE: operator.le,
    ComparisonOp.GT: operator.gt,
    ComparisonOp.GE: operator.ge,
}

#: ``(position, slot)`` pairs: row positions a step writes into slots, or
#: compares against them.
SlotPairs = Tuple[Tuple[int, int], ...]

Slots = List[Value]

#: A scheduled comparison: ``apply(slots[left], slots[right])``.
SlotTest = Tuple[Callable[[Value, Value], object], int, int]


def _tuple_getter(slots: Sequence[int]) -> Callable[[Slots], Tuple[Value, ...]]:
    """A function reading these slots as a tuple."""
    if len(slots) == 1:
        (only,) = slots
        return lambda values: (values[only],)
    if slots:
        return operator.itemgetter(*slots)
    return lambda values: ()


class SlotStep(NamedTuple):
    """One join step over slots.

    ``key`` builds the hash-probe key (``None`` for a step without probe
    positions); ``range_slot`` holds the range probe's bound and
    ``pushdown_slots`` the columnar pushdowns' bounds, parallel to the
    planned step's.  A surfaced row matches when, after ``binds`` has written
    the first occurrence of each variable the step binds, every ``checks``
    slot equals its row position: constants, variables bound earlier and
    repeated occurrences (``R(x, x)``) alike.  Together the two cover every
    position of the atom once.
    """

    key: Optional[Callable[[Slots], Tuple[Value, ...]]]
    range_slot: Optional[int]
    pushdown_slots: Tuple[int, ...]
    binds: SlotPairs
    checks: SlotPairs


class SlotProgram:
    """A :class:`JoinPlan` compiled for one set of pre-bound variable names.

    Every variable has a slot in one list the executor passes down its
    recursion: the pre-bound names first, in the initial binding's order,
    then the rest in the order the steps bind them (``names``).  Constants
    take the slots after them, pre-filled from ``template`` together with
    the blanks of the unbound variables, so a probe key, a range bound or a
    comparison reads a constant exactly as it reads a variable.
    ``reduce_steps`` are the steps' binds and checks with only the pre-bound
    names bound (the semi-join reduction's materialisation).  Each
    scheduled comparison is a :data:`SlotTest`, the :mod:`operator` function
    of its predicate and its two slots (``tests``, one tuple per depth;
    ``level_tests`` per leapfrog level).  ``levels`` gives each leapfrog
    level's variable slot and whether the variable is pre-bound.

    :meth:`emit` builds the :data:`~repro.queries.bindings.Binding` dict of a
    complete binding, :meth:`projection` the function building a head tuple
    instead.  A variable the plan reads before anything binds it raises
    ``KeyError`` here, as reading it from a binding dict did.
    """

    __slots__ = (
        "names",
        "template",
        "steps",
        "reduce_steps",
        "tests",
        "levels",
        "level_tests",
        "_head",
    )

    def __init__(self, plan: JoinPlan, pre_bound: Tuple[str, ...]) -> None:
        slot_of: Dict[str, int] = {name: slot for slot, name in enumerate(pre_bound)}
        for step in plan.steps:
            for term in step.atom.terms:
                if isinstance(term, Var) and term.name not in slot_of:
                    slot_of[term.name] = len(slot_of)
        constants: List[Value] = []
        bound: Set[str] = set(pre_bound)

        def read(term: Term) -> int:
            """The slot of a term that must be ground at this point."""
            if isinstance(term, Const):
                constants.append(term.value)
                return len(slot_of) + len(constants) - 1
            if term.name not in bound:
                raise KeyError(term.name)
            return slot_of[term.name]

        def tests(indices: Iterable[int]) -> Tuple[SlotTest, ...]:
            return tuple(
                (
                    _OPERATORS[plan.comparisons[index].op],
                    read(plan.comparisons[index].left),
                    read(plan.comparisons[index].right),
                )
                for index in indices
            )

        def pairs(atom: RelationAtom, known: Set[str]) -> Tuple[SlotPairs, SlotPairs]:
            """``atom``'s binds and checks when the names in ``known`` are bound."""
            binds: List[Tuple[int, int]] = []
            checks: List[Tuple[int, int]] = []
            fresh: Set[str] = set()
            for position, term in enumerate(atom.terms):
                if isinstance(term, Const):
                    checks.append((position, read(term)))
                elif term.name in known or term.name in fresh:
                    checks.append((position, slot_of[term.name]))
                else:
                    fresh.add(term.name)
                    binds.append((position, slot_of[term.name]))
            return tuple(binds), tuple(checks)

        self.reduce_steps: Tuple[Tuple[SlotPairs, SlotPairs], ...] = ()
        if plan.run_semijoin and plan.semijoin_tree:
            self.reduce_steps = tuple(pairs(step.atom, bound) for step in plan.steps)
        steps = []
        step_tests = [tests(plan.comparison_schedule[0])]
        for depth, step in enumerate(plan.steps):
            key = None
            if step.probe_positions:
                key = _tuple_getter([read(term) for term in step.probe_terms])
            range_slot = None if step.range_probe is None else read(step.range_probe.term)
            pushdown_slots = tuple(read(pushdown.term) for pushdown in step.columnar_pushdowns)
            steps.append(SlotStep(key, range_slot, pushdown_slots, *pairs(step.atom, bound)))
            bound.update(term.name for term in step.atom.terms if isinstance(term, Var))
            step_tests.append(tests(plan.comparison_schedule[depth + 1]))
        self.steps = tuple(steps)
        self.tests = tuple(step_tests)

        self.levels: Tuple[Tuple[int, bool], ...] = ()
        self.level_tests: Tuple[Tuple[SlotTest, ...], ...] = ()
        if plan.run_multiway and plan.multiway is not None:
            schedule = plan.multiway.comparison_schedule
            bound = set(pre_bound)
            level_tests = [tests(schedule[0])]
            for level, name in enumerate(plan.multiway.var_order):
                bound.add(name)
                level_tests.append(tests(schedule[level + 1]))
            self.levels = tuple(
                (slot_of[name], name in pre_bound) for name in plan.multiway.var_order
            )
            self.level_tests = tuple(level_tests)

        self.names = tuple(slot_of)
        self.template = (None,) * (len(slot_of) - len(pre_bound)) + tuple(constants)
        self._head: Tuple[Optional[Tuple[Term, ...]], Optional[Callable]] = (None, None)

    def emit(self, values: Slots) -> Dict[str, Value]:
        """The binding dict of a complete slot list."""
        return dict(zip(self.names, values))

    def projection(self, head: Tuple[Term, ...]) -> Callable[[Slots], Tuple[Value, ...]]:
        """The function instantiating ``head`` from a complete slot list.

        The last head projected is kept (a plan is run from one call site,
        with one head, nearly always).  A head variable no slot holds raises
        the unsafe-head error when a binding reaches it, as before any
        binding was projected.
        """
        cached, getter = self._head
        if cached is head:
            return getter
        slot_of = {name: slot for slot, name in enumerate(self.names)}
        unbound = [t.name for t in head if isinstance(t, Var) and t.name not in slot_of]
        if unbound:
            message = f"unsafe head variable: {unbound[0]!r} is not bound"

            def getter(values: Slots) -> Tuple[Value, ...]:
                raise EvaluationError(message)

        elif all(isinstance(term, Var) for term in head):
            getter = _tuple_getter([slot_of[term.name] for term in head])
        else:
            parts = tuple(
                (slot_of[term.name], None) if isinstance(term, Var) else (-1, term.value)
                for term in head
            )

            def getter(values: Slots) -> Tuple[Value, ...]:
                return tuple(values[slot] if slot >= 0 else value for slot, value in parts)

        self._head = (head, getter)
        return getter


# ---------------------------------------------------------------------------
# The plan cache
# ---------------------------------------------------------------------------
_PLAN_CACHE: "OrderedDict[tuple, JoinPlan]" = OrderedDict()
_PLAN_CACHE_LIMIT = 1024
_PLAN_CACHE_COUNTERS = {"hits": 0, "misses": 0}
#: Serving readers share the cache across threads; the lock keeps the
#: get/move_to_end/popitem LRU bookkeeping atomic (planning itself runs
#: outside it — two threads may race to compile the same plan, and the
#: loser's insert simply overwrites an identical entry).
_PLAN_CACHE_LOCK = threading.Lock()


def _quantized_statistics(stats: RelationStatistics) -> Tuple:
    """A log2-bucketed rendering of a statistics snapshot, for cache keying.

    Cost-based choices are stable under small cardinality drift, so keying
    the cache on exact counts would turn every single-tuple delta — and every
    ``Qc`` probe's new answer relation — into a miss.  Bucketing by bit
    length replans only when a relation roughly doubles or halves; the cached
    plan was costed with the first-seen exact statistics of its bucket, which
    can only steer cost, never answers.
    """
    return (
        stats.relation,
        stats.cardinality.bit_length(),
        tuple(count.bit_length() for count in stats.distinct_counts),
        # Heavy-hitter frequencies below 8 share one bucket: they can steer
        # no verdict, and without the floor every single-tuple delta to a
        # small bucket (3 → 4 rows of one value) would needlessly replan.
        tuple(max(count, 8).bit_length() for count in stats.max_frequencies),
    )


def cached_plan(
    relation_atoms: Tuple[RelationAtom, ...],
    comparisons: Tuple[Comparison, ...],
    bound_names: FrozenSet[str],
    statistics: Optional[Mapping[str, RelationStatistics]] = None,
) -> JoinPlan:
    """:func:`plan_conjunction` behind an LRU keyed on its semantic inputs.

    The key includes a *quantized* statistics snapshot rather than a database
    identity: repeated probes of one conjunction replan only when the
    statistics drift across a power-of-two bucket, and identically-shaped
    databases share plans.  Safe by construction — a compiled plan answers
    correctly on any database; a stale or colliding entry can only cost time,
    never answers.  ``statistics`` is a mapping from relation name to its
    snapshot, which both keys the entry and costs a plan compiled on a miss,
    or ``None`` for the statistics-blind order.  The key names no database
    and no epoch, so the live database and every snapshot of it share entries.
    """
    quantized = (
        tuple(sorted(_quantized_statistics(stats) for stats in statistics.values()))
        if statistics is not None
        else None
    )
    key = (relation_atoms, comparisons, bound_names, quantized)
    with _PLAN_CACHE_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            _PLAN_CACHE_COUNTERS["hits"] += 1
            _PLAN_CACHE.move_to_end(key)
    if plan is not None:
        # Counted outside the cache lock: the registry write must never
        # extend the critical section every serving worker serialises on.
        active = _metrics._ACTIVE
        if active is not None:
            active.inc("plan.cache.hits")
        return plan
    with _PLAN_CACHE_LOCK:
        _PLAN_CACHE_COUNTERS["misses"] += 1
    active = _metrics._ACTIVE
    if active is not None:
        active.inc("plan.cache.misses")
    plan = plan_conjunction(relation_atoms, comparisons, bound_names, statistics=statistics)
    with _PLAN_CACHE_LOCK:
        _PLAN_CACHE[key] = plan
        if len(_PLAN_CACHE) > _PLAN_CACHE_LIMIT:
            _PLAN_CACHE.popitem(last=False)
    return plan


def plan_cache_info() -> Dict[str, int]:
    """Hit/miss counters and current size of the plan cache (for tests)."""
    with _PLAN_CACHE_LOCK:
        return {**_PLAN_CACHE_COUNTERS, "size": len(_PLAN_CACHE)}


def clear_plan_cache() -> None:
    """Empty the plan cache and reset its counters."""
    with _PLAN_CACHE_LOCK:
        _PLAN_CACHE.clear()
        _PLAN_CACHE_COUNTERS["hits"] = 0
        _PLAN_CACHE_COUNTERS["misses"] = 0
