"""Differential tests: the planned evaluator against the naive reference.

Property-based in the seeded-random style: every case derives a random
database plus a random query (CQ, UCQ or ∃FO+) from an integer seed through
the shared scenario kit (:mod:`scenarios`), evaluates it through the
production path (:func:`repro.queries.bindings.enumerate_bindings`, which
compiles an indexed join plan) and through the retained reference path
(:func:`repro.queries.bindings.enumerate_bindings_naive`, the historical
backtracking scan), and asserts the answer multisets are identical.

Across the parametrized seeds the suite covers more than 200 generated
query/database pairs; any divergence between the two paths fails with the
seed in the test id, so a mismatch is reproducible by construction.

The cost-based planner added three access-path choices that may change *cost*
but never answers — statistics-driven atom ordering, sorted-index range
probes, and the Yannakakis semi-join reduction — the worst-case-optimal
multiway leapfrog join a fourth, and the vectorized columnar kernels a fifth:
their surfaced supersets are re-checked row by row, so they too can change
only cost.  Each is a verdict on the compiled plan, which the executor follows
as given, so the axes matrix below forces each one on or off by building the
plan itself (:func:`scenarios.forced_plan`) and passing it as ``plan=``.
Evaluating against a pinned database snapshot instead of the live database
must be invisible too, so a sixth axis passes ``database.snapshot()`` *as* the
database.  The matrix re-runs random pairs under every one of the 2⁶
combinations (including the all-off configuration, which is exactly the
original statistics-blind planner evaluating the live database, and the
multiway-off configuration, which is exactly the binary cost-based planner)
against the same naive reference — once over the kit's generic conjunctions
and once over its *cyclic* shapes (triangle, 4-cycle, star-with-chord), the
workloads the multiway path exists for.  The generated databases are
well-typed (every comparison is total), which is the scope of the equivalence
contract: on malformed mixed-type data the surfaced ``TypeError`` may differ
by join order (see :mod:`repro.queries.plan`).
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.queries.bindings import enumerate_bindings, enumerate_bindings_naive, project_binding
from repro.queries.cq import ConjunctiveQuery

from scenarios import (
    CYCLIC_SHAPES,
    EVALUATOR_VALUES,
    forced_plan,
    random_conjunction,
    random_cyclic_conjunction,
    random_cyclic_database,
    random_database,
    random_efo_query,
    random_ucq,
    relation_statistics,
)

VALUES = EVALUATOR_VALUES


def _binding_multiset(bindings):
    """Bindings as a sorted multiset of sorted (name, value) item tuples."""
    return sorted(tuple(sorted(binding.items())) for binding in bindings)


def _naive_answer_rows(database, cq: ConjunctiveQuery):
    """The reference answer set of a CQ: naive bindings projected on the head."""
    return {
        project_binding(binding, cq.head)
        for binding in enumerate_bindings_naive(database, cq.atoms, cq.comparisons)
    }


# ---------------------------------------------------------------------------
# Conjunctive queries (120 pairs)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(120))
def test_cq_bindings_match_naive(seed):
    rng = random.Random(seed)
    database = random_database(rng)
    atoms, comparisons = random_conjunction(rng, database)
    planned = _binding_multiset(enumerate_bindings(database, atoms, comparisons))
    naive = _binding_multiset(enumerate_bindings_naive(database, atoms, comparisons))
    assert planned == naive


@pytest.mark.parametrize("seed", range(30))
def test_cq_bindings_match_naive_under_initial_binding(seed):
    """Pre-bound variables (the Datalog / FO entry mode) agree across paths."""
    rng = random.Random(1_000 + seed)
    database = random_database(rng)
    atoms, comparisons = random_conjunction(rng, database)
    body_vars = sorted({v.name for atom in atoms for v in atom.variables()})
    initial = {rng.choice(body_vars): rng.choice(VALUES)} if body_vars else {}
    planned = _binding_multiset(
        enumerate_bindings(database, atoms, comparisons, initial_binding=initial)
    )
    naive = _binding_multiset(
        enumerate_bindings_naive(database, atoms, comparisons, initial_binding=initial)
    )
    assert planned == naive


# ---------------------------------------------------------------------------
# Unions of conjunctive queries (30 pairs of 2-3 disjuncts each)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(30))
def test_ucq_evaluation_matches_naive_union(seed):
    rng = random.Random(2_000 + seed)
    database = random_database(rng)
    ucq = random_ucq(rng, database)
    planned_rows = ucq.evaluate(database).rows()
    naive_rows = set()
    for cq in ucq.disjuncts:
        naive_rows |= _naive_answer_rows(database, cq)
    assert planned_rows == naive_rows


# ---------------------------------------------------------------------------
# Positive-existential queries (40 pairs)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(40))
def test_efo_evaluation_matches_naive_dnf(seed):
    rng = random.Random(3_000 + seed)
    database = random_database(rng)
    query = random_efo_query(rng, database)
    planned_rows = query.evaluate(database).rows()
    naive_rows = set()
    for cq in query.to_ucq().disjuncts:
        naive_rows |= _naive_answer_rows(database, cq)
    assert planned_rows == naive_rows


# ---------------------------------------------------------------------------
# Planner axes: the full 2⁶ matrix, on generic and cyclic scenarios
# ---------------------------------------------------------------------------
# Every axis but ``snapshot`` forces one access path through the plan (see
# :func:`scenarios.forced_plan`): ``statistics`` costs the plan with the
# relations' statistics instead of the statistics-blind order,
# ``range_probes`` keeps the compiled range probes, and ``semijoin`` /
# ``multiway`` / ``columnar`` force those verdicts on (off also strips the
# columnar pushdowns).  ``snapshot`` evaluates against a freshly pinned
# ``database.snapshot()`` passed as the database, which must be invisible on
# a quiescent database under every combination of the others.  All-off
# remains bit-identical to the original in-place reference.
AXIS_NAMES = (
    "statistics",
    "range_probes",
    "semijoin",
    "multiway",
    "columnar",
    "snapshot",
)

PLANNER_AXES = [
    pytest.param(
        dict(zip(AXIS_NAMES, bits)),
        id="pr1-baseline"
        if not any(bits)
        else "+".join(name for name, bit in zip(AXIS_NAMES, bits) if bit),
    )
    for bits in itertools.product((False, True), repeat=len(AXIS_NAMES))
]


def _plan_under_axes(database, atoms, comparisons, axes, bound_variables=frozenset()):
    """The plan the axes force, costed against ``database`` when statistics are on."""
    return forced_plan(
        atoms,
        comparisons,
        relation_statistics(database, atoms) if axes.get("statistics", True) else None,
        bound_variables=bound_variables,
        range_probes=axes.get("range_probes", True),
        semijoin=axes.get("semijoin"),
        multiway=axes.get("multiway"),
        columnar=axes.get("columnar"),
    )


def _evaluate_under_axes(database, atoms, comparisons, axes):
    target = database.snapshot() if axes["snapshot"] else database
    plan = _plan_under_axes(target, atoms, comparisons, axes)
    return _binding_multiset(enumerate_bindings(target, atoms, comparisons, plan=plan))


@pytest.mark.parametrize("axes", PLANNER_AXES)
@pytest.mark.parametrize("seed", range(12))
def test_planner_axes_match_naive(seed, axes):
    """No combination of forced access paths may change answers, only cost."""
    rng = random.Random(4_000 + seed)
    database = random_database(rng)
    atoms, comparisons = random_conjunction(rng, database)
    planned = _evaluate_under_axes(database, atoms, comparisons, axes)
    naive = _binding_multiset(enumerate_bindings_naive(database, atoms, comparisons))
    assert planned == naive


@pytest.mark.parametrize("axes", PLANNER_AXES)
@pytest.mark.parametrize("shape", CYCLIC_SHAPES)
@pytest.mark.parametrize("seed", range(5))
def test_planner_axes_match_naive_on_cyclic_shapes(seed, shape, axes):
    """The axes matrix again, on the shapes the multiway step compiles for."""
    rng = random.Random(6_000 + seed)
    database = random_cyclic_database(rng)
    atoms, comparisons = random_cyclic_conjunction(rng, database, shape)
    planned = _evaluate_under_axes(database, atoms, comparisons, axes)
    naive = _binding_multiset(enumerate_bindings_naive(database, atoms, comparisons))
    assert planned == naive


@pytest.mark.parametrize("seed", range(12))
def test_snapshot_as_database_matches_naive(seed):
    """A pinned snapshot passed *as* the database answers like the live one."""
    rng = random.Random(4_000 + seed)
    database = random_database(rng)
    atoms, comparisons = random_conjunction(rng, database)
    planned = _binding_multiset(enumerate_bindings(database.snapshot(), atoms, comparisons))
    naive = _binding_multiset(enumerate_bindings_naive(database, atoms, comparisons))
    assert planned == naive


@pytest.mark.parametrize("seed", range(20))
def test_forced_semijoin_matches_naive_under_initial_binding(seed):
    """The reduction respects pre-bound variables (the delta-rule entry mode)."""
    rng = random.Random(5_000 + seed)
    database = random_database(rng)
    atoms, comparisons = random_conjunction(rng, database)
    body_vars = sorted({v.name for atom in atoms for v in atom.variables()})
    initial = {rng.choice(body_vars): rng.choice(VALUES)} if body_vars else {}
    plan = _plan_under_axes(
        database, atoms, comparisons, {"semijoin": True}, bound_variables=frozenset(initial)
    )
    planned = _binding_multiset(
        enumerate_bindings(database, atoms, comparisons, initial_binding=initial, plan=plan)
    )
    naive = _binding_multiset(
        enumerate_bindings_naive(database, atoms, comparisons, initial_binding=initial)
    )
    assert planned == naive


@pytest.mark.parametrize("shape", CYCLIC_SHAPES)
@pytest.mark.parametrize("seed", range(8))
def test_forced_multiway_matches_naive_under_initial_binding(seed, shape):
    """A pre-bound variable is a singleton leapfrog candidate, never a widening."""
    rng = random.Random(7_000 + seed)
    database = random_cyclic_database(rng)
    atoms, comparisons = random_cyclic_conjunction(rng, database, shape)
    body_vars = sorted({v.name for atom in atoms for v in atom.variables()})
    initial = {rng.choice(body_vars): rng.choice(range(12))}
    plan = _plan_under_axes(
        database, atoms, comparisons, {"multiway": True}, bound_variables=frozenset(initial)
    )
    planned = _binding_multiset(
        enumerate_bindings(database, atoms, comparisons, initial_binding=initial, plan=plan)
    )
    naive = _binding_multiset(
        enumerate_bindings_naive(database, atoms, comparisons, initial_binding=initial)
    )
    assert planned == naive


def test_multiway_actually_compiles_on_the_cyclic_shapes():
    """At least one generated cyclic scenario per shape carries a leapfrog step.

    Guards the matrix against silently degenerating: if the planner stopped
    compiling multiway steps, the ``multiway`` axis would be testing
    nothing.
    """
    from repro.queries.plan import plan_conjunction

    for shape in CYCLIC_SHAPES:
        compiled = 0
        for seed in range(5):
            rng = random.Random(6_000 + seed)
            database = random_cyclic_database(rng)
            atoms, comparisons = random_cyclic_conjunction(rng, database, shape)
            statistics = relation_statistics(database, atoms)
            plan = plan_conjunction(atoms, comparisons, statistics=statistics)
            if plan.multiway is not None:
                compiled += 1
        assert compiled > 0, f"no multiway step compiled for shape {shape}"


def test_columnar_actually_compiles_on_generated_scenarios():
    """At least one generated scenario carries live columnar pushdowns.

    The same degeneracy guard as the multiway one above: if no generated
    conjunction ever compiled a pushdown on a relation whose encoding is
    alive, the ``columnar`` axis would be testing nothing.
    """
    from repro.queries.plan import plan_conjunction

    engaged = 0
    for seed in range(12):
        rng = random.Random(4_000 + seed)
        database = random_database(rng)
        atoms, comparisons = random_conjunction(rng, database)
        statistics = relation_statistics(database, atoms)
        plan = plan_conjunction(atoms, comparisons, statistics=statistics)
        for step in plan.steps:
            if (
                step.columnar_pushdowns
                and database.relation(step.atom.relation).columnar() is not None
            ):
                engaged += 1
    assert engaged > 0, "no generated scenario exercises the columnar kernels"


def _profile_under_axes(database, atoms, comparisons, axes):
    """The executor's per-step profile of one evaluation under forced axes."""
    from repro.observability.explain import StepProfile

    plan = _plan_under_axes(database, atoms, comparisons, axes)
    profile = StepProfile(len(plan.steps))
    list(enumerate_bindings(database, atoms, comparisons, plan=plan, step_profile=profile))
    return profile


def test_forced_plans_change_the_access_path_taken():
    """Forcing an axis through the plan really changes what the executor runs.

    The degeneracy guard for :func:`scenarios.forced_plan` itself: on at
    least one matrix scenario a forced semi-join records ``reduced-*`` access
    kinds and forced columnar a ``columnar`` one, and on at least one cyclic
    scenario forced multiway runs the leapfrog branch; the same axis forced
    off never takes that path.
    """

    def kinds(profile):
        return set(profile.access_kinds.values())

    reduced = columnar = 0
    for seed in range(12):
        rng = random.Random(4_000 + seed)
        database = random_database(rng)
        atoms, comparisons = random_conjunction(rng, database)
        forced = {"semijoin": True}
        on = kinds(_profile_under_axes(database, atoms, comparisons, forced))
        off = kinds(_profile_under_axes(database, atoms, comparisons, {"semijoin": False}))
        assert not any(kind.startswith("reduced-") for kind in off)
        reduced += any(kind.startswith("reduced-") for kind in on)
        # The semi-join's reduced row sets take precedence over the kernels.
        forced = {"columnar": True, "semijoin": False}
        on = kinds(_profile_under_axes(database, atoms, comparisons, forced))
        off = kinds(
            _profile_under_axes(
                database, atoms, comparisons, {"columnar": False, "semijoin": False}
            )
        )
        assert "columnar" not in off
        columnar += "columnar" in on
    assert reduced > 0, "a forced semi-join never ran the reduction"
    assert columnar > 0, "forced columnar never ran a columnar kernel"

    leapfrog = 0
    for shape in CYCLIC_SHAPES:
        for seed in range(5):
            rng = random.Random(6_000 + seed)
            database = random_cyclic_database(rng)
            atoms, comparisons = random_cyclic_conjunction(rng, database, shape)
            on = _profile_under_axes(database, atoms, comparisons, {"multiway": True})
            off = _profile_under_axes(database, atoms, comparisons, {"multiway": False})
            assert not off.multiway_mode
            leapfrog += on.multiway_mode and bool(on.level_names)
    assert leapfrog > 0, "forced multiway never ran the leapfrog branch"


def test_suite_covers_at_least_200_pairs():
    """The acceptance criterion: ≥200 generated query/database pairs."""
    assert 120 + 30 + 30 + 40 >= 200
    # ... and the axes matrix re-proves planned ≡ naive under all 2⁶
    # combinations, on generic and cyclic scenarios alike.
    assert len(PLANNER_AXES) == 2 ** 6
    assert 12 * len(PLANNER_AXES) + 5 * len(CYCLIC_SHAPES) * len(PLANNER_AXES) == 1728
