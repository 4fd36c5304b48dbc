"""Evaluation of conjunctions of atoms: the indexed planner path and the naive path.

This is the work-horse shared by conjunctive queries, union of conjunctive
queries, positive-existential queries (per disjunct) and Datalog rule bodies:
given a list of relation atoms and comparisons, enumerate all bindings of the
variables that satisfy every atom against a database.

Two evaluation paths are provided and kept semantically identical:

* :func:`enumerate_bindings` — the production path.  It compiles the
  conjunction into a :class:`~repro.queries.plan.JoinPlan` (see
  :mod:`repro.queries.plan`): atoms are ordered by estimated cost when the
  relations supply statistics (most-constrained-first otherwise), and a step
  whose atom carries constants or already-bound variables runs as a hash
  *index probe* against the relation's lazy index
  (:meth:`repro.relational.database.Relation.probe`) instead of a full scan;
  a scan step with a ground one-sided comparison runs as a sorted-index
  *range probe* (:meth:`repro.relational.database.Relation.range_rows`),
  for acyclic conjunctions whose statistics predict a large intermediate
  result a Yannakakis semi-join reduction prunes dangling tuples before the
  join runs, and *cyclic* conjunctions (triangles, 4-cycles) run a
  worst-case-optimal leapfrog triejoin over composite trie indexes
  (:meth:`repro.relational.database.Relation.trie_index_on`) instead of a
  sequence of binary steps, bounding the work by the AGM fractional-cover
  size of the query.  Only rows surfaced by the access path are considered — and
  ticked — so the tractable fragments of the paper (SP/CQ decision variants)
  run in the low polynomial time their upper bounds promise instead of
  re-scanning whole relations per atom.  Compiled plans are served from the
  plan cache (:func:`~repro.queries.plan.cached_plan`), keyed on the
  conjunction plus the statistics snapshot, so repeated probes of one query
  stop re-planning.  The plan is the executor's only switch: every access
  path runs exactly when the plan's verdict says so.

  The executor runs the plan's :class:`~repro.queries.plan.SlotProgram`,
  compiled once and kept with the plan: bindings live in one list of slots
  passed down the recursion, a step writes the variables it binds into
  their slots and compares the other row positions against slots
  (constants have slots too), and each scheduled comparison is an
  ``(operator, slot, slot)`` test.  Every access path — probe, range, columnar, the
  semi-join-reduced row sets and the leapfrog levels — fills the same
  slots.  Dicts appear only at the boundary: :func:`enumerate_bindings`
  builds a :data:`Binding` per complete binding, and
  :func:`project_bindings`, for callers that only want head tuples (CQ
  evaluation, Datalog rules, view maintenance, the witness build), reads
  the head straight from the slots.

* :func:`enumerate_bindings_naive` — the historical backtracking search,
  retained as the reference implementation.  It chooses atoms dynamically and
  scans relations in full.  The differential test-suite
  (``tests/test_evaluator_differential.py``) asserts that both paths return
  exactly the same binding multisets on randomly generated databases and
  queries, which is what licenses every caller to use the fast path.

``StepCounter`` semantics are shared by both paths: one tick per search node
entered plus one tick per candidate row considered.  Because an index probe
only surfaces rows that match the bound positions, the planned path ticks at
most as often as the naive one — and exactly as often when no index applies
(no constants and no bound variables), which the planner tests pin down.
Both paths charge the counter's last unflushed ticks to the request
deadline when they end, so no evaluation runs outside its step budget.

**Extending the evaluator with a new access path**: the multiway leapfrog
branch below is the worked example — see the ROADMAP's "Adding a new access
path" recipe.  Add the new plan vocabulary in
:mod:`repro.queries.plan`, emit it in
:func:`~repro.queries.plan.plan_conjunction` behind a cost verdict, compile
what it reads into slots in :class:`~repro.queries.plan.SlotProgram`, and add
the corresponding execution branch below, taken when the plan's verdict says
so and binding into the same slots.  The differential suite's axes matrix
forces the verdict on and off through a hand-built plan and checks the new
path against the naive reference for free.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.observability import metrics as _metrics
from repro.observability import tracing as _tracing
from repro.queries.ast import Comparison, Const, RelationAtom, Term, Var
from repro.queries.plan import (
    JoinPlan,
    PlannedMultiway,
    SlotPairs,
    SlotProgram,
    Slots,
    cached_plan,
    most_constrained_index,
    plan_conjunction,
)
from repro.relational.database import Database, Relation, Row
from repro.relational.errors import EvaluationError, StepLimitExceeded
from repro.relational.schema import Value
from repro.relational.statistics import leapfrog_intersect
from repro.resilience.deadline import Deadline, current_deadline

Binding = Dict[str, Value]

#: How many ticks a :class:`StepCounter` accumulates before flushing them to
#: its deadline.  Amortises the wall-clock read; a request can overshoot its
#: deadline by at most this many search steps.
_DEADLINE_FLUSH_EVERY = 128


class StepCounter:
    """Optional guard limiting the number of search steps of an evaluation.

    The hardness reductions intentionally create exponential searches; the
    benchmark harness uses a counter both to abort runaway configurations and
    to report the number of explored nodes as a machine-independent cost
    measure.  A counter may also carry a request
    :class:`~repro.resilience.deadline.Deadline`: ticks are batched and
    flushed to it every :data:`_DEADLINE_FLUSH_EVERY` steps, so wall-clock /
    cancellation checks cost one comparison per step on average while the
    step accounting itself stays exact.
    """

    def __init__(
        self, limit: Optional[int] = None, deadline: Optional[Deadline] = None
    ) -> None:
        self.limit = limit
        self.steps = 0
        self.deadline = deadline
        self._unflushed = 0

    def tick(self, amount: int = 1) -> None:
        self.steps += amount
        if self.limit is not None and self.steps > self.limit:
            raise StepLimitExceeded(self.limit, self.steps)
        if self.deadline is not None:
            self._unflushed += amount
            if self._unflushed >= _DEADLINE_FLUSH_EVERY:
                flushed, self._unflushed = self._unflushed, 0
                self.deadline.tick(flushed)

    def flush(self, check: bool = True) -> None:
        """Charge the unflushed ticks to the deadline, as every evaluator does
        when its run ends; ``check`` re-checks the deadline's budgets (a run
        ending on an exception, or closed early, only charges)."""
        if self._unflushed:
            self.deadline.steps += self._unflushed
            self._unflushed = 0
            if check:
                self.deadline.check()


def _deadline_guarded(counter: Optional[StepCounter]) -> Optional[StepCounter]:
    """Attach the ambient request deadline (if any) to an evaluation's counter.

    Called once at each evaluator entry point: with no ambient deadline the
    caller's counter passes through untouched (the unguarded path stays
    bit-identical); otherwise the deadline is checked fail-fast and wired
    into the counter — creating one if the caller passed none — so the hot
    loops' existing ``counter.tick()`` calls enforce it from then on.  A
    counter that already carries a deadline keeps it (the innermost request
    scope owns the budget).
    """
    deadline = current_deadline()
    if deadline is None:
        return counter
    deadline.check()
    if counter is None:
        return StepCounter(deadline=deadline)
    if counter.deadline is None:
        counter.deadline = deadline
    return counter


def _match_atom_against_row(
    atom: RelationAtom, row: Tuple[Value, ...], binding: Binding
) -> Optional[Binding]:
    """Try to extend ``binding`` so that ``atom`` matches ``row``.

    Returns the extended binding, or ``None`` when the row is incompatible.
    """
    extension: Binding = {}
    for term, value in zip(atom.terms, row):
        if isinstance(term, Const):
            if term.value != value:
                return None
        else:
            bound = binding.get(term.name, extension.get(term.name, _UNBOUND))
            if bound is _UNBOUND:
                extension[term.name] = value
            elif bound != value:
                return None
    if not extension:
        return dict(binding)
    merged = dict(binding)
    merged.update(extension)
    return merged


class _Unbound:
    __slots__ = ()


_UNBOUND = _Unbound()


def _ready_comparisons(
    comparisons: Sequence[Comparison], binding: Binding, checked: set
) -> Optional[bool]:
    """Check all comparisons whose variables are fully bound.

    Returns ``False`` as soon as one fails, ``True`` otherwise; indices of the
    newly checked comparisons are added to ``checked``.
    """
    for index, comparison in enumerate(comparisons):
        if index in checked:
            continue
        if comparison.is_ground_under(binding):
            checked.add(index)
            if not comparison.evaluate(binding):
                return False
    return True


def _unsafe_comparison_error(
    comparisons: Sequence[Comparison], unresolved: Iterable[int]
) -> EvaluationError:
    names = [str(comparisons[index]) for index in unresolved]
    return EvaluationError(
        "comparisons with variables not bound by any relation atom: " + ", ".join(names)
    )


def _columnar_match(relation, binds: SlotPairs, checks: SlotPairs, slots: Slots):
    """The rows of ``relation`` matching a step's slot pairs, via the columnar encoding.

    Returns ``None`` to decline — no encoding, or equality classes the exact-
    typed kernels cannot answer faithfully (cross-family numerics, values
    outside the encoded families) — in which case the caller runs the
    row-matcher scan.  A non-``None`` result is *exact* for the encoded
    families, and every surfaced row is still re-checked by the executor,
    so the kernel can only ever prune.
    """
    get_encoding = getattr(relation, "columnar", None)
    encoding = get_encoding() if get_encoding is not None else None
    if encoding is None:
        return None
    first_position = {slot: position for position, slot in binds}
    const_eqs: List[Tuple[int, Value]] = []
    pair_eqs: List[Tuple[int, int]] = []
    for position, slot in checks:
        if slot in first_position:
            pair_eqs.append((first_position[slot], position))
        else:
            const_eqs.append((position, slots[slot]))
    return encoding.match_rows(const_eqs, pair_eqs)


def _row_matches(row: Row, binds: SlotPairs, checks: SlotPairs, slots: Slots) -> bool:
    """Whether ``row`` matches a step: write ``binds`` into ``slots``, test ``checks``."""
    for position, slot in binds:
        slots[slot] = row[position]
    for position, slot in checks:
        if slots[slot] != row[position]:
            return False
    return True


def _semijoin_reduce(
    lookup, plan: JoinPlan, program: SlotProgram, slots: Slots
) -> Tuple[Dict[int, Tuple[Row, ...]], Dict[int, FrozenSet[Row]], Dict[int, Dict]]:
    """The two Yannakakis semi-join passes over the plan's join tree.

    Materialises, per step, the rows matching the atom under the initial
    binding (``slots`` as the run starts), then filters dangling rows
    bottom-up (parent ⋉ child, in ear-removal order) and top-down (child ⋉
    parent, in reverse).  The result is a superset of every row that
    participates in some answer — scan steps iterate it instead of the
    relation, probe steps probe an ephemeral hash index over it (built here,
    so per-node work stays proportional to the *reduced* matches), range
    steps intersect with it.

    Under the plan's columnar verdict the per-step materialisation pass runs
    as a vectorized :meth:`ColumnarRelation.match_rows` kernel where the
    encoding can serve it exactly, falling back to the row-matcher scan per
    step where it declines.
    """
    steps = plan.steps
    scratch = list(slots)
    rows_per_step: List[List[Row]] = []
    var_positions: List[Dict[str, int]] = []
    for step, (binds, checks) in zip(steps, program.reduce_steps):
        relation = lookup(step.atom.relation)
        matched = (
            _columnar_match(relation, binds, checks, slots) if plan.run_columnar else None
        )
        if matched is None:
            matched = [row for row in relation if _row_matches(row, binds, checks, scratch)]
        rows_per_step.append(list(matched))
        positions: Dict[str, int] = {}
        for position, term in enumerate(step.atom.terms):
            if isinstance(term, Var) and term.name not in positions:
                positions[term.name] = position
        var_positions.append(positions)

    def semijoin(target: int, source: int, shared: Tuple[str, ...]) -> None:
        source_positions = var_positions[source]
        target_positions = var_positions[target]
        keys = {
            tuple(row[source_positions[name]] for name in shared)
            for row in rows_per_step[source]
        }
        rows_per_step[target] = [
            row
            for row in rows_per_step[target]
            if tuple(row[target_positions[name]] for name in shared) in keys
        ]

    for child, parent, shared in plan.semijoin_tree:  # bottom-up: parent ⋉ child
        if parent >= 0 and shared:
            semijoin(parent, child, shared)
    for child, parent, shared in reversed(plan.semijoin_tree):  # top-down: child ⋉ parent
        if parent >= 0 and shared:
            semijoin(child, parent, shared)
    reduced_rows = {index: tuple(rows) for index, rows in enumerate(rows_per_step)}
    reduced_sets = {index: frozenset(rows) for index, rows in enumerate(rows_per_step)}
    reduced_probes: Dict[int, Dict] = {}
    for index, step in enumerate(steps):
        if not step.probe_positions:
            continue
        buckets: Dict[Tuple[Value, ...], List[Row]] = {}
        for row in rows_per_step[index]:
            key = tuple(row[position] for position in step.probe_positions)
            buckets.setdefault(key, []).append(row)
        reduced_probes[index] = {key: tuple(rows) for key, rows in buckets.items()}
    return reduced_rows, reduced_sets, reduced_probes


def _multiway_state(lookup, multiway: PlannedMultiway):
    """Per-atom trie nodes after the constant descent, or ``None`` to decline.

    ``None`` means some trie cannot serve the step (a dead mixed-type trie,
    or a relation-like view without tries) and the caller must fall back to
    the binary steps.  Otherwise returns ``(roots, relations, empty)`` where
    ``empty`` flags an atom whose constant prefix matches no row — the whole
    conjunction has no answers.
    """
    roots = []
    relations = []
    empty = False
    for matom in multiway.atoms:
        relation = lookup(matom.atom.relation)
        if not matom.trie_positions:
            # A nullary atom has no positions to index: it is a pure
            # membership test — the relation either holds the empty tuple or
            # the conjunction has no answers.  It participates at no level.
            if len(relation) == 0:
                empty = True
            roots.append(None)
            relations.append(relation)
            continue
        index_on = getattr(relation, "trie_index_on", None)
        if index_on is None:
            return None
        trie = index_on(matom.trie_positions)
        if not trie.ok:
            return None
        node = trie.root
        for value in matom.const_values:
            node = node.child(value)
            if node is None:
                empty = True
                break
        roots.append(node)
        relations.append(relation)
    return roots, relations, empty


def _execute_multiway(
    plan: JoinPlan,
    program: SlotProgram,
    slots: Slots,
    emit: Callable[[Slots], object],
    counter: Optional[StepCounter],
    roots: List,
    relations: List[Relation],
    metrics_acc: Optional[List[int]] = None,
    step_profile=None,
) -> Iterator[object]:
    """The unified-iterator leapfrog branch: resolve one variable per level.

    At every level the candidates for the variable are the leapfrog
    intersection of the current trie levels of the atoms containing it
    (a pre-bound variable is its own singleton candidate); a surviving
    candidate advances each participating trie through the variable's levels
    — repeated occurrences (``R(x, x)``) descend twice with the same value —
    and is written to the variable's slot; a full-depth path is a complete
    binding whose matching row in every relation exists by construction.
    Ticks mirror the binary branch: one per search node entered plus one per
    candidate value considered.
    """
    multiway = plan.multiway
    assert multiway is not None
    var_order = multiway.var_order
    levels = program.levels
    level_tests = program.level_tests
    level_of = {name: level for level, name in enumerate(var_order)}
    participants: List[List[Tuple[int, int]]] = [[] for _ in var_order]
    for atom_index, matom in enumerate(multiway.atoms):
        for name, count in matom.var_levels:
            participants[level_of[name]].append((atom_index, count))
    nodes = list(roots)
    versions = [relation.version for relation in relations]

    def check_versions() -> None:
        for relation, version in zip(relations, versions):
            if relation.version != version:
                raise EvaluationError(
                    f"relation {relation.name!r} was mutated during evaluation"
                )

    if step_profile is not None:
        step_profile.mode(var_order)

    def descend(level: int) -> Iterator[object]:
        if counter is not None:
            counter.tick()
        if metrics_acc is not None:
            metrics_acc[2] += 1
        check_versions()
        for apply, left, right in level_tests[level]:
            if not apply(slots[left], slots[right]):
                return
        if level == len(var_order):
            if plan.unresolved_comparisons:
                # Some comparison still has unbound variables: unsafe query.
                raise _unsafe_comparison_error(plan.comparisons, plan.unresolved_comparisons)
            yield emit(slots)
            return
        slot, pre_bound = levels[level]
        group = participants[level]
        if pre_bound:
            candidates: Iterable[Value] = (slots[slot],)
        else:
            candidates = leapfrog_intersect([nodes[ai] for ai, _ in group])
        saved = [nodes[ai] for ai, _ in group]
        for value in candidates:
            if counter is not None:
                counter.tick()
            if metrics_acc is not None:
                metrics_acc[1] += 1  # trie candidates are index-surfaced
            if step_profile is not None:
                step_profile.level_candidate(level)
            check_versions()
            children = []
            for ai, count in group:
                node = nodes[ai]
                for _ in range(count):
                    node = node.child(value)
                    if node is None:
                        break
                if node is None:
                    break
                children.append(node)
            if len(children) != len(group):
                continue
            if step_profile is not None:
                step_profile.level_match(level)
            for (ai, _), child in zip(group, children):
                nodes[ai] = child
            slots[slot] = value
            yield from descend(level + 1)
            for (ai, _), previous in zip(group, saved):
                nodes[ai] = previous

    yield from descend(0)


def resolve_plan(
    database: Database,
    relation_atoms: Sequence[RelationAtom],
    comparisons: Sequence[Comparison] = (),
    bound_names: FrozenSet[str] = frozenset(),
    *,
    lookup=None,
) -> JoinPlan:
    """The plan :func:`enumerate_bindings` runs when it is not handed one.

    Served from the plan cache (:func:`~repro.queries.plan.cached_plan`),
    keyed on and costed with the relations' current statistics when every
    relation provides them and in the statistics-blind order otherwise.
    ``lookup`` resolves a relation name (``database.relation`` by default).
    EXPLAIN ANALYZE resolves its plan here too, so the profiled plan is the
    production one.
    """
    if lookup is None:
        lookup = database.relation
    pspan = _tracing.begin("plan")
    try:
        statistics: Optional[Dict[str, object]] = {}
        for atom in relation_atoms:
            getter = getattr(lookup(atom.relation), "statistics", None)
            if getter is None:
                statistics = None
                break
            statistics[atom.relation] = getter()
        return cached_plan(
            tuple(relation_atoms),
            tuple(comparisons),
            bound_names,
            statistics=statistics,
        )
    finally:
        _tracing.finish(pspan)


def enumerate_bindings(
    database: Database,
    relation_atoms: Sequence[RelationAtom],
    comparisons: Sequence[Comparison] = (),
    initial_binding: Optional[Mapping[str, Value]] = None,
    counter: Optional[StepCounter] = None,
    extra_relations: Optional[Mapping[str, Relation]] = None,
    plan: Optional[JoinPlan] = None,
    *,
    step_profile=None,
) -> Iterator[Binding]:
    """Yield every binding satisfying all atoms, via an indexed join plan.

    Parameters
    ----------
    database:
        The database providing the extensional relations.
    relation_atoms, comparisons:
        The conjunction to satisfy.
    initial_binding:
        Pre-bound variables (used by Datalog semi-naive evaluation and by the
        FO evaluator when descending under quantifiers).
    counter:
        Optional :class:`StepCounter` resource guard.
    extra_relations:
        Relations overriding / extending the database by name (used for IDB
        predicates and for the answer relation ``RQ`` in compatibility
        checks).
    plan:
        A precompiled :class:`~repro.queries.plan.JoinPlan` for this
        conjunction.  When omitted, :func:`resolve_plan` serves one from the
        plan cache, costed with the relations' current statistics; callers
        evaluating the same conjunction with the same pre-bound variable
        *names* many times may compile once and pass it in.  The executor
        carries out the plan's access-path verdicts (``run_semijoin``,
        ``run_multiway``, ``run_columnar``, the compiled range probes and
        columnar pushdowns) as given, falling back to the reference path
        only where an access path declines: a trie that cannot index the
        data, a relation without a columnar encoding, a plan without a
        multiway step.  No verdict can change answers, only cost — the
        differential suite's axes matrix forces each one on and off through
        a hand-built plan and pins this.  (On malformed data with
        ``TypeError``-raising mixed-type comparisons the surfaced error may
        differ by plan, since join order, semi-join pruning and the variable
        elimination order decide which rows ever reach a comparison; see
        :mod:`repro.queries.plan`.  The multiway access paths themselves
        never widen this: a mixed-type trie declines and the binary steps
        take over.)
    step_profile:
        Optional per-step actuals collector for EXPLAIN ANALYZE
        (:class:`repro.observability.explain.StepProfile`, duck-typed).  Pure
        observation — candidates, matches and access kinds per plan step —
        and never consulted for any decision, so a profiled run enumerates
        exactly the same bindings.
    """
    return _execute(
        database,
        relation_atoms,
        comparisons,
        initial_binding,
        counter,
        extra_relations,
        plan,
        step_profile,
        None,
    )


def project_bindings(
    database: Database,
    relation_atoms: Sequence[RelationAtom],
    comparisons: Sequence[Comparison],
    head: Tuple[Term, ...],
    initial_binding: Optional[Mapping[str, Value]] = None,
    counter: Optional[StepCounter] = None,
    extra_relations: Optional[Mapping[str, Relation]] = None,
    plan: Optional[JoinPlan] = None,
) -> Iterator[Tuple[Value, ...]]:
    """Yield ``head`` instantiated under every binding :func:`enumerate_bindings` yields.

    The same run, step for step and tick for tick; each complete binding is
    read from its slots straight into the head tuple instead of into a
    :data:`Binding` dict.  A head variable the conjunction and the initial
    binding leave unbound raises :class:`EvaluationError` at the first
    binding.  Keep ``head`` one tuple object per call site: its projection
    is cached with the plan by identity.
    """
    return _execute(
        database,
        relation_atoms,
        comparisons,
        initial_binding,
        counter,
        extra_relations,
        plan,
        None,
        head,
    )


def _execute(
    database: Database,
    relation_atoms: Sequence[RelationAtom],
    comparisons: Sequence[Comparison],
    initial_binding: Optional[Mapping[str, Value]],
    counter: Optional[StepCounter],
    extra_relations: Optional[Mapping[str, Relation]],
    plan: Optional[JoinPlan],
    step_profile,
    head: Optional[Tuple[Term, ...]],
) -> Iterator[object]:
    """The executor behind :func:`enumerate_bindings` and :func:`project_bindings`.

    Runs the plan's :class:`~repro.queries.plan.SlotProgram` over one slot
    list and yields what ``head`` selects for each complete binding: a
    :data:`Binding` dict (``head`` ``None``) or the head tuple.
    """
    counter = _deadline_guarded(counter)
    extra_relations = extra_relations or {}

    def lookup(name: str) -> Relation:
        if name in extra_relations:
            return extra_relations[name]
        return database.relation(name)

    # Fail fast on unknown relations so that errors surface deterministically.
    for atom in relation_atoms:
        lookup(atom.relation)

    initial: Mapping[str, Value] = initial_binding or {}
    pre_bound = tuple(initial)
    if plan is None:
        plan = resolve_plan(
            database,
            relation_atoms,
            comparisons,
            frozenset(pre_bound),
            lookup=lookup,
        )
    program = plan.slot_program(pre_bound)
    emit = program.emit if head is None else program.projection(head)
    slots: Slots = [*initial.values(), *program.template]
    steps = plan.steps
    slot_steps = program.steps
    tests = program.tests
    unresolved = plan.unresolved_comparisons

    # Metrics are accumulated into plain local integers and flushed once per
    # enumeration (in the try/finally below), so the active registry's lock
    # is taken a constant number of times per evaluation — never per row.
    active = _metrics._ACTIVE
    metrics_acc: Optional[List[int]] = [0, 0, 0, 0, 0] if active is not None else None

    def run() -> Iterator[object]:
        if plan.run_multiway and plan.multiway is not None:
            state = _multiway_state(lookup, plan.multiway)
            if state is not None:  # None: a trie declined, the binary steps take over
                roots, multiway_relations, multiway_empty = state
                if multiway_empty:
                    # A constant prefix matched no row: no answers.  Still
                    # evaluate the comparisons ground under the initial
                    # binding alone, exactly as the binary root node does
                    # before touching any rows — so a TypeError the reference
                    # path raises at the root is not silently swallowed into
                    # an empty result.
                    for apply, left, right in program.level_tests[0]:
                        apply(slots[left], slots[right])
                    return
                yield from _execute_multiway(
                    plan,
                    program,
                    slots,
                    emit,
                    counter,
                    roots,
                    multiway_relations,
                    metrics_acc,
                    step_profile,
                )
                return

        run_columnar = plan.run_columnar  # read once: execute() checks it per node
        reduced_rows: Optional[Dict[int, Tuple[Row, ...]]] = None
        reduced_sets: Optional[Dict[int, FrozenSet[Row]]] = None
        reduced_probes: Optional[Dict[int, Dict]] = None
        if plan.run_semijoin and plan.semijoin_tree:
            reduced_rows, reduced_sets, reduced_probes = _semijoin_reduce(
                lookup, plan, program, slots
            )

        def execute(depth: int) -> Iterator[object]:
            if counter is not None:
                counter.tick()
            if metrics_acc is not None:
                metrics_acc[2] += 1
            for apply, left, right in tests[depth]:
                if not apply(slots[left], slots[right]):
                    return
            if depth == len(steps):
                if unresolved:
                    # Some comparison still has unbound variables: unsafe query.
                    raise _unsafe_comparison_error(plan.comparisons, unresolved)
                yield emit(slots)
                return
            step = steps[depth]
            slot_step = slot_steps[depth]
            relation = lookup(step.atom.relation)
            columnar_rows: Optional[Tuple[Row, ...]] = None
            if (
                run_columnar
                and step.columnar_pushdowns
                and not step.uses_index
                and reduced_rows is None
            ):
                get_encoding = getattr(relation, "columnar", None)
                encoding = get_encoding() if get_encoding is not None else None
                if encoding is not None:
                    # The kernel answers every pushed-down comparison in one
                    # vectorized pass; a ``None`` result is a decline (the
                    # encoding cannot evaluate some predicate exactly) and
                    # the range/scan paths below take over.  Surfaced rows
                    # are a superset of the matches — the comparisons stay in
                    # the schedule and every row is still re-checked.
                    columnar_rows = encoding.select(
                        [
                            (planned.position, planned.op.value, slots[slot])
                            for planned, slot in zip(
                                step.columnar_pushdowns, slot_step.pushdown_slots
                            )
                        ]
                    )
            if step.uses_index:
                if reduced_probes is not None:
                    rows: Iterable[Tuple[Value, ...]] = reduced_probes[depth].get(
                        slot_step.key(slots), ()
                    )
                    access_kind = "reduced-probe"
                else:
                    rows = relation.probe(step.probe_positions, slot_step.key(slots))
                    access_kind = "probe"
            elif columnar_rows is not None:
                rows = columnar_rows
                access_kind = "columnar"
                if metrics_acc is not None:
                    metrics_acc[3] += 1
                    metrics_acc[4] += len(columnar_rows)
            elif step.range_probe is not None:
                probe = step.range_probe
                range_rows = getattr(relation, "range_rows", None)
                ranged = (
                    range_rows(probe.position, probe.op.value, slots[slot_step.range_slot])
                    if range_rows is not None
                    else None
                )
                if ranged is None:
                    # The sorted index cannot answer exactly: fall back to the
                    # scan (or its semi-join-reduced row set), preserving
                    # semantics.
                    rows = reduced_rows[depth] if reduced_rows is not None else relation
                    access_kind = "reduced-scan" if reduced_rows is not None else "scan"
                elif reduced_sets is not None:
                    keep = reduced_sets[depth]
                    rows = tuple(row for row in ranged if row in keep)
                    access_kind = "reduced-range"
                else:
                    rows = ranged
                    access_kind = "range"
            elif reduced_rows is not None:
                rows = reduced_rows[depth]
                access_kind = "reduced-scan"
            else:
                rows = relation
                access_kind = "scan"
            if step_profile is not None:
                step_profile.access(depth, access_kind)
            surfaced = 1 if step.uses_index else 0  # the metrics slot rows count into
            binds = slot_step.binds
            checks = slot_step.checks
            # The nodes below the last step are leaves: entered inline rather
            # than as one generator each, with the same tick and tests.
            leaf_tests = tests[depth + 1] if depth + 1 == len(steps) else None
            # A full scan iterates the live row set, so mutating the relation
            # while this generator is suspended raises the usual
            # RuntimeError; the index probe (and any reduced/ranged row set)
            # iterates a frozen sequence, so check the version explicitly to
            # fail just as loudly instead of mixing pre- and post-mutation
            # states.
            version = relation.version
            for row in rows:
                if relation.version != version:
                    raise EvaluationError(
                        f"relation {relation.name!r} was mutated during evaluation"
                    )
                if counter is not None:
                    counter.tick()
                if metrics_acc is not None:
                    metrics_acc[surfaced] += 1
                if step_profile is not None:
                    step_profile.candidate(depth)
                for position, slot in binds:
                    slots[slot] = row[position]
                for position, slot in checks:
                    if slots[slot] != row[position]:
                        break
                else:
                    if step_profile is not None:
                        step_profile.match(depth)
                    if leaf_tests is None:
                        yield from execute(depth + 1)
                        continue
                    if counter is not None:
                        counter.tick()
                    if metrics_acc is not None:
                        metrics_acc[2] += 1
                    for apply, left, right in leaf_tests:
                        if not apply(slots[left], slots[right]):
                            break
                    else:
                        if unresolved:
                            raise _unsafe_comparison_error(plan.comparisons, unresolved)
                        yield emit(slots)

        yield from execute(0)

    finished = False
    try:
        yield from run()
        finished = True
    finally:
        if metrics_acc is not None:
            active.inc_many(
                (
                    ("executor.rows.scanned", metrics_acc[0]),
                    ("executor.rows.probed", metrics_acc[1]),
                    ("executor.steps", metrics_acc[2]),
                    ("columnar.kernel.selects", metrics_acc[3]),
                    ("columnar.rows.selected", metrics_acc[4]),
                )
            )
        if counter is not None:
            counter.flush(check=finished)


def row_matcher(atom: RelationAtom) -> Callable[[Row], Optional[Binding]]:
    """``atom`` matched against one row with nothing bound, compiled once.

    The returned function gives the binding of the atom's variables to the
    row, or ``None`` when a constant or a repeated variable (``R(x, x)``)
    does not match — what matching a lone scan step would bind.
    """
    program = plan_conjunction((atom,)).slot_program(())
    (step,) = program.steps
    binds, checks, names, template = step.binds, step.checks, program.names, program.template

    def match(row: Row) -> Optional[Binding]:
        slots = list(template)
        if _row_matches(row, binds, checks, slots):
            return dict(zip(names, slots))
        return None

    return match


def enumerate_bindings_naive(
    database: Database,
    relation_atoms: Sequence[RelationAtom],
    comparisons: Sequence[Comparison] = (),
    initial_binding: Optional[Mapping[str, Value]] = None,
    counter: Optional[StepCounter] = None,
    extra_relations: Optional[Mapping[str, Relation]] = None,
) -> Iterator[Binding]:
    """The historical backtracking evaluator: dynamic atom choice, full scans.

    Semantically identical to :func:`enumerate_bindings`; kept as the reference
    path for the differential test harness and as the baseline the evaluator
    benchmark measures the indexed path against.  Takes the same parameters
    except for ``plan`` (it never plans).
    """
    counter = _deadline_guarded(counter)
    extra_relations = extra_relations or {}

    def lookup(name: str) -> Relation:
        if name in extra_relations:
            return extra_relations[name]
        return database.relation(name)

    # Fail fast on unknown relations so that errors surface deterministically.
    for atom in relation_atoms:
        lookup(atom.relation)

    base_binding: Binding = dict(initial_binding or {})
    comparisons = list(comparisons)

    def backtrack(remaining: List[RelationAtom], binding: Binding, checked: set) -> Iterator[Binding]:
        if counter is not None:
            counter.tick()
        status = _ready_comparisons(comparisons, binding, checked)
        if status is False:
            return
        if not remaining:
            if len(checked) != len(comparisons):
                # Some comparison still has unbound variables: unsafe query.
                raise _unsafe_comparison_error(
                    comparisons,
                    (i for i in range(len(comparisons)) if i not in checked),
                )
            yield dict(binding)
            return
        index = most_constrained_index(remaining, binding)
        atom = remaining[index]
        rest = remaining[:index] + remaining[index + 1 :]
        for row in lookup(atom.relation):
            if counter is not None:
                counter.tick()
            extended = _match_atom_against_row(atom, row, binding)
            if extended is None:
                continue
            yield from backtrack(rest, extended, set(checked))

    finished = False
    try:
        yield from backtrack(list(relation_atoms), base_binding, set())
        finished = True
    finally:
        if counter is not None:
            counter.flush(check=finished)
