"""The slot-compiled executor against the naive reference, case by case.

:func:`~repro.queries.bindings.enumerate_bindings` runs a plan's
:class:`~repro.queries.plan.SlotProgram`: every variable has a slot, each
step writes its new variables into slots and compares the rest of the row
against slots (constants included), and a binding dict is built only when a
binding is complete.  The random differential suite covers the common
shapes; the cases here pin the ones the slot layout has to get right — a
repeated variable in one atom, constants inside atoms, pre-bound variables
(the Datalog, FO and delta-seed entry modes, including names the
conjunction never mentions and a plan compiled for other bound names), a
variable first bound under a semi-join-reduced or a leapfrog step — and the
errors that must not move: the unsafe-comparison error, the mutation check
on the probe, range and scan paths, a mixed-type ``TypeError`` at the same
comparison, and the EXPLAIN ANALYZE actuals.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.observability.explain import StepProfile, explain_analyze
from repro.queries.ast import Comparison, ComparisonOp, Const, RelationAtom, Var
from repro.queries.bindings import (
    _match_atom_against_row,
    enumerate_bindings,
    enumerate_bindings_naive,
    project_bindings,
    row_matcher,
)
from repro.queries.plan import plan_conjunction
from repro.relational.database import Database
from repro.relational.errors import EvaluationError
from repro.resilience.deadline import Deadline, deadline_scope

from scenarios import (
    CYCLIC_SHAPES,
    forced_plan,
    random_conjunction,
    random_cyclic_conjunction,
    random_cyclic_database,
    random_database,
    relation_statistics,
)

X, Y, Z, W = Var("x"), Var("y"), Var("z"), Var("w")


def _r(*terms) -> RelationAtom:
    return RelationAtom("r", terms)


def _s(*terms) -> RelationAtom:
    return RelationAtom("s", terms)


@pytest.fixture
def database() -> Database:
    """Two untyped relations mixing ints and strings, with self-loops."""
    database = Database()
    database.create_relation(
        "r", ["a", "b"], [(1, 1), (1, 2), (2, 2), (3, 1), ("a", "a"), ("a", 1)]
    )
    database.create_relation("s", ["a", "b"], [(1, "x"), (2, "y"), (2, "x"), ("a", "x")])
    return database


def _typed(bindings) -> Counter:
    """Bindings as a multiset, telling ``1`` from ``"1"`` (and from ``True``)."""
    return Counter(
        tuple(sorted((name, type(value).__name__, repr(value)) for name, value in b.items()))
        for b in bindings
    )


def _instantiate(binding, head):
    return tuple(binding[t.name] if isinstance(t, Var) else t.value for t in head)


CASES = {
    "repeated": ([_r(X, X)], [], {}),
    "repeated-join": ([_r(X, X), _s(X, Y)], [], {}),
    "constant": ([_r(X, 1)], [], {}),
    "constants-join": ([_r(1, Y), _s(Y, "x")], [], {}),
    "pre-bound": ([_r(X, Y), _s(Y, "x")], [], {"x": 1}),
    "pre-bound-outside": ([_r(X, Y), _s(X, Z)], [Comparison("!=", Y, Z)], {"w": 5}),
    "pre-bound-repeated": ([_r(X, X), _s(X, Z)], [], {"z": "x"}),
    "self-join-seed": ([_r(X, Y), _r(Y, X)], [Comparison("<=", X, Y)], {"y": 2}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_atom_shapes_match_the_naive_reference(database, case):
    atoms, comparisons, initial = CASES[case]
    naive = list(enumerate_bindings_naive(database, atoms, comparisons, initial_binding=initial))
    planned = list(enumerate_bindings(database, atoms, comparisons, initial_binding=initial))
    assert _typed(planned) == _typed(naive)
    # A plan compiled for no bound names still runs under the initial binding:
    # the pre-bound variables become checks of the rows the steps surface.
    unbound_plan = plan_conjunction(atoms, comparisons)
    replanned = enumerate_bindings(
        database, atoms, comparisons, initial_binding=initial, plan=unbound_plan
    )
    assert _typed(replanned) == _typed(naive)
    # Every output names every pre-bound variable, mentioned or not.
    assert all(set(initial) <= set(binding) for binding in planned)


@pytest.mark.parametrize("case", sorted(CASES))
def test_projections_match_the_naive_reference(database, case):
    atoms, comparisons, initial = CASES[case]
    names = sorted({v.name for atom in atoms for v in atom.variables()} | set(initial))
    # Constants, a repeated variable and the pre-bound names in one head.
    head = (Const(7), *(Var(name) for name in names), Var(names[0]), Const("k"))
    naive = Counter(
        _instantiate(binding, head)
        for binding in enumerate_bindings_naive(
            database, atoms, comparisons, initial_binding=initial
        )
    )
    projected = project_bindings(database, atoms, comparisons, head, initial_binding=initial)
    assert Counter(projected) == naive


def test_an_unsafe_head_variable_raises_at_the_first_binding(database):
    head = (X, Var("q"))
    with pytest.raises(EvaluationError, match="unsafe head variable: 'q'"):
        list(project_bindings(database, [_r(X, X)], [], head))
    # No binding, no error: as when the head was projected from each binding.
    assert list(project_bindings(database, [_r(X, 9)], [], head)) == []


@pytest.mark.parametrize(
    "atom", [_r(X, X), _r(X, 1), _r(1, Y), _r(X, Y), _r("a", X)], ids=str
)
def test_the_row_matcher_matches_as_the_naive_matcher(database, atom):
    match = row_matcher(atom)
    for row in database.relation("r"):
        assert match(row) == _match_atom_against_row(atom, row, {}), row


# ---------------------------------------------------------------------------
# Access paths: a variable first bound under a reduced or a leapfrog step
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("columnar", [False, True], ids=["rows", "columnar"])
def test_a_variable_first_bound_under_a_semijoin_reduced_step(columnar):
    database = Database()
    database.create_relation("r", ["a", "b"], [(v, v % 3) for v in range(9)] + [(4, 4), (5, 5)])
    database.create_relation("s", ["a", "b"], [(v, v + 1) for v in range(8)])
    database.create_relation("t", ["a", "b"], [(v, 7) for v in range(10) if v != 3])
    atoms = [_r(X, X), _s(X, Y), RelationAtom("t", [Y, 7])]
    plan = forced_plan(
        atoms, (), relation_statistics(database, atoms), semijoin=True, columnar=columnar
    )
    assert plan.run_semijoin and plan.semijoin_tree
    profile = StepProfile(len(plan.steps))
    planned = list(enumerate_bindings(database, atoms, plan=plan, step_profile=profile))
    assert all(kind.startswith("reduced") for kind in profile.access_kinds.values())
    assert _typed(planned) == _typed(enumerate_bindings_naive(database, atoms))
    assert {(b["x"], b["y"]) for b in planned} == {(0, 1), (1, 2), (4, 5), (5, 6)}


@pytest.mark.parametrize("pre_bound", [False, True], ids=["free", "pre-bound"])
def test_a_variable_first_bound_under_a_leapfrog_step(pre_bound):
    database = Database()
    edges = [(a, b) for a in range(6) for b in range(6) if (a * b + a + b) % 4 != 3]
    database.create_relation("e", ["a", "b"], edges)
    # Every edge among x, y, z and w, plus a self-loop atom: the repeated
    # variable descends its trie twice with one value, and with w pre-bound
    # the triangle on x, y, z keeps the conjunction cyclic.
    pairs = [(X, Y), (Y, Z), (Z, X), (X, W), (Y, W), (Z, W), (X, X)]
    atoms = [RelationAtom("e", pair) for pair in pairs]
    comparisons = [Comparison(ComparisonOp.NE, Y, Z)]
    initial = {"w": 1} if pre_bound else {}
    plan = forced_plan(
        atoms,
        comparisons,
        relation_statistics(database, atoms),
        bound_variables=set(initial),
        multiway=True,
    )
    assert plan.run_multiway and plan.multiway is not None
    profile = StepProfile(len(plan.steps))
    planned = list(
        enumerate_bindings(
            database, atoms, comparisons, initial_binding=initial, plan=plan, step_profile=profile
        )
    )
    assert profile.multiway_mode
    naive = list(enumerate_bindings_naive(database, atoms, comparisons, initial_binding=initial))
    assert planned and _typed(planned) == _typed(naive)


# ---------------------------------------------------------------------------
# Errors that must not move
# ---------------------------------------------------------------------------
def test_the_unsafe_comparison_error_is_unchanged(database):
    atoms = [_r(X, X)]
    comparisons = [Comparison("<", W, X)]
    for run in (
        lambda: list(enumerate_bindings(database, atoms, comparisons)),
        lambda: list(enumerate_bindings_naive(database, atoms, comparisons)),
        lambda: list(project_bindings(database, atoms, comparisons, (X,))),
    ):
        with pytest.raises(
            EvaluationError,
            match=r"comparisons with variables not bound by any relation atom: w < x",
        ):
            run()


def _numbers() -> Database:
    database = Database()
    database.create_relation("n", ["a", "b"], [(1, 10), (2, 20), (3, 30), (4, 40), (6, 20)])
    return database


def _mutate_keeping_size(database: Database) -> None:
    """A row replaced by another: the live set keeps its size, so only the
    executor's version check can notice."""
    relation = database.relation("n")
    relation.discard((4, 40))
    relation.add((5, 50))


@pytest.mark.parametrize("path", ["probe", "range", "scan"])
@pytest.mark.parametrize("entry", ["bindings", "projection"])
def test_a_mutation_during_evaluation_fails_loudly(path, entry):
    database = _numbers()
    atoms = [RelationAtom("n", [X, Y])]
    comparisons = {"range": [Comparison("<", X, 4)]}.get(path, [])
    initial = {"y": 20} if path == "probe" else {}
    profile = StepProfile(1)
    list(enumerate_bindings(database, atoms, comparisons, initial, step_profile=profile))
    assert profile.access_kinds[0] == path
    if entry == "bindings":
        generator = enumerate_bindings(database, atoms, comparisons, initial)
    else:
        generator = project_bindings(database, atoms, comparisons, (X, Y), initial)
    assert next(generator) is not None
    if path == "probe":
        database.relation("n").add((9, 20))  # the probed bucket is a frozen tuple
    else:
        _mutate_keeping_size(database)
    with pytest.raises(EvaluationError, match="'n' was mutated during evaluation"):
        list(generator)


def test_a_mixed_type_comparison_raises_at_the_same_comparison():
    """With no index to take (no shared variable, no constant) the planned
    steps are the naive search tree: the same bindings come out, then the same
    ``TypeError`` after the same number of steps."""
    database = Database()
    database.create_relation("item", ["iid", "value"], [(1, 1), (2, "b"), (3, 3)])
    database.create_relation("other", ["iid", "value"], [(4, 2), (5, 0)])
    atoms = [RelationAtom("item", [X, Y]), RelationAtom("other", [Z, W])]
    comparisons = [Comparison("<", Y, W)]
    plan = forced_plan(atoms, comparisons, range_probes=False)

    def outcome(run):
        seen = []
        with deadline_scope(Deadline()) as budget, pytest.raises(TypeError) as raised:
            for binding in run():
                seen.append(binding)
        return seen, str(raised.value), budget.steps

    planned = outcome(lambda: enumerate_bindings(database, atoms, comparisons, plan=plan))
    naive = outcome(lambda: enumerate_bindings_naive(database, atoms, comparisons))
    assert planned == naive
    assert "'<' not supported between instances of 'str' and 'int'" in planned[1]


#: EXPLAIN ANALYZE actuals of the parent executor (dict bindings), pinned:
#: ``(answers, candidates per step, matches per step, access kinds)`` of the
#: scenario kit's conjunction at ``random.Random(7000 + seed)`` under the
#: forced axes.
BINARY_ACTUALS = {
    (5, ()): (4, (1, 4, 16), (1, 4, 4), ("probe", "scan", "scan")),
    (5, ("semijoin",)): (
        4,
        (1, 4, 4),
        (1, 4, 4),
        ("reduced-probe", "reduced-scan", "reduced-scan"),
    ),
    (5, ("columnar", "semijoin")): (
        4,
        (1, 4, 4),
        (1, 4, 4),
        ("reduced-probe", "reduced-scan", "reduced-scan"),
    ),
    (29, ()): (0, (4, 10, 0, 0), (4, 0, 0, 0), ("range", "range")),
    (37, ()): (0, (6, 0), (1, 0), ("scan", "probe")),
}

#: ``(answers, candidates per level, matches per level)`` of the kit's cyclic
#: conjunction at ``random.Random(9000 + seed)``, multiway forced on.
LEAPFROG_ACTUALS = {
    0: (1, (4, 4, 1), (4, 4, 1)),
    1: (7, (4, 4, 5, 7), (4, 4, 5, 7)),
    2: (1, (6, 5, 5, 1), (6, 5, 5, 1)),
}


@pytest.mark.parametrize("seed, axes", sorted(BINARY_ACTUALS))
def test_explain_analyze_step_actuals_are_unchanged(seed, axes):
    rng = random.Random(7000 + seed)
    database = random_database(rng)
    atoms, comparisons = random_conjunction(rng, database)
    plan = forced_plan(
        atoms,
        comparisons,
        relation_statistics(database, atoms),
        **{axis: True for axis in axes},
    )
    result = explain_analyze(database, atoms, comparisons, plan=plan)
    profile = result.profile
    kinds = tuple(kind for _, kind in sorted(profile.access_kinds.items()))
    actual = (result.answer_count, tuple(profile.candidates), tuple(profile.matches), kinds)
    assert actual == BINARY_ACTUALS[seed, axes]


@pytest.mark.parametrize("seed", sorted(LEAPFROG_ACTUALS))
def test_explain_analyze_level_actuals_are_unchanged(seed):
    rng = random.Random(9000 + seed)
    database = random_cyclic_database(rng)
    atoms, comparisons = random_cyclic_conjunction(rng, database, CYCLIC_SHAPES[seed % 3])
    plan = forced_plan(atoms, comparisons, relation_statistics(database, atoms), multiway=True)
    result = explain_analyze(database, atoms, comparisons, plan=plan)
    profile = result.profile
    assert profile.multiway_mode
    actual = (result.answer_count, tuple(profile.level_candidates), tuple(profile.level_matches))
    assert actual == LEAPFROG_ACTUALS[seed]
