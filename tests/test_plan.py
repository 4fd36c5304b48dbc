"""Unit tests for the join planner (:mod:`repro.queries.plan`).

Pins down the contract the indexed evaluator relies on: most-constrained-first
atom ordering (replicating the naive evaluator's dynamic choice), index probes
whenever a term position is resolved (bound variable or constant), and
step-counter behaviour — identical tick counts to the naive path when no index
applies, and the same abort semantics always.
"""

from __future__ import annotations

import pytest

from repro.queries.ast import Comparison, ComparisonOp, Const, RelationAtom, Var
from repro.queries.bindings import StepCounter, enumerate_bindings, enumerate_bindings_naive
from repro.queries.plan import plan_conjunction
from repro.relational.database import Database
from repro.relational.errors import EvaluationError

from scenarios import forced_plan

X, Y, Z = Var("x"), Var("y"), Var("z")


@pytest.fixture
def graph() -> Database:
    database = Database()
    database.create_relation(
        "edge", ["src", "dst"], [(1, 2), (2, 3), (3, 4), (2, 4), (4, 1)]
    )
    database.create_relation("label", ["node", "tag"], [(1, "a"), (2, "b"), (4, "a")])
    return database


# ---------------------------------------------------------------------------
# Atom ordering
# ---------------------------------------------------------------------------
def test_most_constrained_atom_runs_first():
    """An atom with a constant outscores an all-variable atom."""
    free = RelationAtom("edge", [X, Y])
    constrained = RelationAtom("label", [Y, Const("a")])
    plan = plan_conjunction([free, constrained])
    assert [step.atom.relation for step in plan.steps] == ["label", "edge"]
    # After `label` binds y, the edge atom probes its dst position.
    assert plan.steps[1].probe_positions == (1,)


def test_initially_bound_variables_drive_the_order():
    """A variable from the initial binding counts as resolved for ordering."""
    first = RelationAtom("edge", [X, Y])
    second = RelationAtom("edge", [Y, Z])
    plan = plan_conjunction([first, second], bound_variables={"z"})
    assert plan.steps[0].atom is second
    assert plan.steps[0].probe_positions == (1,)


def test_ties_break_towards_the_first_atom():
    """Equal scores keep body order — exactly the naive evaluator's rule."""
    first = RelationAtom("edge", [X, Y])
    second = RelationAtom("edge", [Y, Z])
    plan = plan_conjunction([first, second])
    assert plan.steps[0].atom is first


def test_chain_query_orders_like_the_naive_evaluator():
    """Each later atom of a chain joins on the variable the previous one bound."""
    atoms = [
        RelationAtom("edge", [Var("x0"), Var("x1")]),
        RelationAtom("edge", [Var("x1"), Var("x2")]),
        RelationAtom("edge", [Var("x2"), Var("x3")]),
    ]
    plan = plan_conjunction(atoms)
    assert [step.atom for step in plan.steps] == atoms
    assert not plan.steps[0].uses_index
    assert plan.steps[1].probe_positions == (0,)
    assert plan.steps[2].probe_positions == (0,)


# ---------------------------------------------------------------------------
# Access paths
# ---------------------------------------------------------------------------
def test_bound_variables_become_index_probes():
    plan = plan_conjunction([RelationAtom("edge", [X, Y])], bound_variables={"x"})
    step = plan.steps[0]
    assert step.uses_index
    assert step.probe_positions == (0,)
    assert step.probe_key({"x": 3}) == (3,)
    assert step.new_variables == ("y",)


def test_constants_are_pushed_into_index_probes():
    plan = plan_conjunction([RelationAtom("edge", [Const(2), Y])])
    step = plan.steps[0]
    assert step.uses_index
    assert step.probe_positions == (0,)
    assert step.probe_key({}) == (2,)


def test_constants_and_bound_variables_combine_in_one_probe():
    plan = plan_conjunction(
        [RelationAtom("label", [X, Const("a")])], bound_variables={"x"}
    )
    step = plan.steps[0]
    assert step.probe_positions == (0, 1)
    assert step.probe_key({"x": 4}) == (4, "a")


def test_repeated_unbound_variable_stays_out_of_the_probe():
    """R(x, x) with x unbound: no probe, the row matcher enforces equality."""
    plan = plan_conjunction([RelationAtom("edge", [X, X])])
    step = plan.steps[0]
    assert not step.uses_index
    assert step.new_variables == ("x",)


def test_executor_uses_the_relation_index(graph):
    """Evaluating a probe-able atom materialises a hash index on the relation."""
    edge = graph.relation("edge")
    assert edge.indexed_position_sets() == ()
    results = list(
        enumerate_bindings(
            graph, [RelationAtom("edge", [X, Y])], initial_binding={"x": 2}
        )
    )
    assert sorted(binding["y"] for binding in results) == [3, 4]
    assert (0,) in edge.indexed_position_sets()


def test_precompiled_plan_can_be_reused(graph):
    atoms = [RelationAtom("edge", [X, Y]), RelationAtom("edge", [Y, Z])]
    plan = plan_conjunction(atoms)
    direct = sorted(map(repr, enumerate_bindings(graph, atoms)))
    replayed = sorted(map(repr, enumerate_bindings(graph, atoms, plan=plan)))
    assert direct == replayed


def test_plan_describe_names_access_paths():
    plan = plan_conjunction(
        [RelationAtom("edge", [X, Y]), RelationAtom("edge", [Y, Z])],
        [Comparison(ComparisonOp.LT, X, Z)],
    )
    description = plan.describe()
    assert "scan edge(x, y)" in description
    assert "probe edge(y, z)" in description
    assert "check x < z at depth 2" in description


# ---------------------------------------------------------------------------
# Comparison scheduling
# ---------------------------------------------------------------------------
def test_comparisons_scheduled_at_earliest_ground_depth():
    atoms = [RelationAtom("edge", [X, Y]), RelationAtom("edge", [Y, Z])]
    comparisons = [
        Comparison(ComparisonOp.NE, X, Y),  # ground after step 1
        Comparison(ComparisonOp.LT, X, Z),  # ground after step 2
    ]
    plan = plan_conjunction(atoms, comparisons)
    assert plan.comparison_schedule == ((), (0,), (1,))
    assert plan.unresolved_comparisons == ()


def test_initially_ground_comparisons_run_before_any_atom():
    plan = plan_conjunction(
        [RelationAtom("edge", [X, Y])],
        [Comparison(ComparisonOp.EQ, X, Const(1))],
        bound_variables={"x"},
    )
    assert plan.comparison_schedule[0] == (0,)


def test_unresolvable_comparisons_are_flagged():
    plan = plan_conjunction(
        [RelationAtom("edge", [X, Y])], [Comparison(ComparisonOp.LT, Var("w"), X)]
    )
    assert plan.unresolved_comparisons == (0,)


# ---------------------------------------------------------------------------
# StepCounter semantics
# ---------------------------------------------------------------------------
def _count_steps(evaluator, graph, atoms, comparisons=(), limit=None):
    counter = StepCounter(limit)
    list(evaluator(graph, atoms, comparisons, counter=counter))
    return counter.steps


def test_full_scan_tick_counts_match_the_naive_path(graph):
    """With no probe-able position, planned and naive ticks are identical."""
    single = [RelationAtom("edge", [X, Y])]
    assert _count_steps(enumerate_bindings, graph, single) == _count_steps(
        enumerate_bindings_naive, graph, single
    )


def test_indexed_path_never_ticks_more_than_naive(graph):
    atoms = [
        RelationAtom("edge", [Var("x0"), Var("x1")]),
        RelationAtom("edge", [Var("x1"), Var("x2")]),
        RelationAtom("edge", [Var("x2"), Var("x3")]),
    ]
    planned = _count_steps(enumerate_bindings, graph, atoms)
    naive = _count_steps(enumerate_bindings_naive, graph, atoms)
    assert planned < naive


def test_step_limit_aborts_the_planned_path(graph):
    atoms = [RelationAtom("edge", [X, Y]), RelationAtom("edge", [Y, Z])]
    with pytest.raises(EvaluationError):
        _count_steps(enumerate_bindings, graph, atoms, limit=3)
    with pytest.raises(EvaluationError):
        _count_steps(enumerate_bindings_naive, graph, atoms, limit=3)


def test_step_limit_aborts_at_the_same_count_when_scanning(graph):
    """In full-scan mode the two paths abort after exactly the same tick."""
    single = [RelationAtom("edge", [X, Y])]
    total = _count_steps(enumerate_bindings, graph, single)
    for limit in range(1, total):
        planned = StepCounter(limit)
        naive = StepCounter(limit)
        with pytest.raises(EvaluationError):
            list(enumerate_bindings(graph, single, counter=planned))
        with pytest.raises(EvaluationError):
            list(enumerate_bindings_naive(graph, single, counter=naive))
        assert planned.steps == naive.steps


# ---------------------------------------------------------------------------
# Unsafe-query error parity
# ---------------------------------------------------------------------------
def test_unsafe_comparison_raises_like_the_naive_path(graph):
    atoms = [RelationAtom("edge", [X, Y])]
    comparisons = [Comparison(ComparisonOp.LT, Var("w"), X)]
    with pytest.raises(EvaluationError, match="not bound by any relation atom"):
        list(enumerate_bindings(graph, atoms, comparisons))
    with pytest.raises(EvaluationError, match="not bound by any relation atom"):
        list(enumerate_bindings_naive(graph, atoms, comparisons))


def test_mutation_during_indexed_iteration_fails_loudly(graph):
    """Mutating a relation while a probe-backed generator is suspended raises.

    The full-scan path already fails via the underlying set's RuntimeError;
    the probe path iterates a frozen index bucket, so the executor checks the
    relation version explicitly instead of silently mixing database states.
    """
    atom = RelationAtom("edge", [X, Y])
    generator = enumerate_bindings(graph, [atom], initial_binding={"x": 2})
    assert next(generator) is not None
    graph.relation("edge").add((9, 9))
    with pytest.raises(EvaluationError, match="mutated during evaluation"):
        next(generator)


def test_unsafe_comparison_is_silent_when_no_binding_completes():
    """Neither path raises when the search never reaches a complete binding."""
    database = Database()
    database.create_relation("empty", ["a", "b"])
    atoms = [RelationAtom("empty", [X, Y])]
    comparisons = [Comparison(ComparisonOp.LT, Var("w"), X)]
    assert list(enumerate_bindings(database, atoms, comparisons)) == []
    assert list(enumerate_bindings_naive(database, atoms, comparisons)) == []


# ---------------------------------------------------------------------------
# Worst-case-optimal multiway compilation
# ---------------------------------------------------------------------------
def _triangle_atoms():
    return [
        RelationAtom("edge", [X, Y]),
        RelationAtom("edge", [Y, Z]),
        RelationAtom("edge", [Z, X]),
    ]


def _stats_for(database, atoms):
    return {
        atom.relation: database.relation(atom.relation).statistics() for atom in atoms
    }


@pytest.fixture
def skewed_graph() -> Database:
    """A hub-heavy edge relation: binary joins explode, the AGM bound does not."""
    database = Database()
    rows = {(i, i % 3) for i in range(60)} | {(i % 3, i) for i in range(60)}
    database.create_relation("edge", ["src", "dst"], rows)
    return database


class TestMultiwayPlanning:
    def test_cyclic_costed_conjunction_compiles_a_multiway_step(self, skewed_graph):
        plan = plan_conjunction(
            _triangle_atoms(), statistics=_stats_for(skewed_graph, _triangle_atoms())
        )
        assert plan.multiway is not None
        assert plan.semijoin_tree == ()  # cyclic: GYO found no ear
        assert tuple(sorted(plan.multiway.var_order)) == ("x", "y", "z")
        # One composite trie per atom; the closing atom nests its positions in
        # elimination order, not schema order.
        by_atom = {str(m.atom): m.trie_positions for m in plan.multiway.atoms}
        order_index = {name: i for i, name in enumerate(plan.multiway.var_order)}
        closing = by_atom["edge(z, x)"]
        assert closing == ((1, 0) if order_index["x"] < order_index["z"] else (0, 1))

    def test_statistics_blind_planner_compiles_no_multiway(self):
        plan = plan_conjunction(_triangle_atoms())
        assert plan.multiway is None
        assert not plan.run_multiway

    def test_acyclic_conjunction_compiles_no_multiway(self, skewed_graph):
        chain = [
            RelationAtom("edge", [X, Y]),
            RelationAtom("edge", [Y, Z]),
        ]
        plan = plan_conjunction(chain, statistics=_stats_for(skewed_graph, chain))
        assert plan.multiway is None

    def test_verdict_fires_on_skew_and_rests_on_uniform(self, skewed_graph):
        """AGM below the worst-case binary intermediate <=> run_multiway."""
        skewed_plan = plan_conjunction(
            _triangle_atoms(), statistics=_stats_for(skewed_graph, _triangle_atoms())
        )
        assert skewed_plan.run_multiway  # hub degree ~60: binary worst case explodes

        uniform = Database()
        uniform.create_relation("edge", ["src", "dst"], [(i, i + 1) for i in range(40)])
        uniform_plan = plan_conjunction(
            _triangle_atoms(), statistics=_stats_for(uniform, _triangle_atoms())
        )
        # Every degree is 1: the binary plan's worst case is tiny, the AGM
        # bound (40^1.5) is not — the verdict keeps the binary plan.
        assert uniform_plan.multiway is not None
        assert not uniform_plan.run_multiway

    def test_agm_estimate_is_the_fractional_cover_product(self, skewed_graph):
        from repro.queries.plan import multiway_estimate

        stats = _stats_for(skewed_graph, _triangle_atoms())
        cardinality = stats["edge"].cardinality
        # A triangle: every variable occurs in two atoms, so each atom weighs
        # 1/2 and the bound is |E|^{3/2}.
        assert multiway_estimate(_triangle_atoms(), frozenset(), stats) == pytest.approx(
            cardinality ** 1.5
        )
        # A variable unique to one atom forces that atom to weight 1: in the
        # open chain both end atoms carry one (x resp. w), the middle stays ½.
        chain = [
            RelationAtom("edge", [X, Y]),
            RelationAtom("edge", [Y, Z]),
            RelationAtom("edge", [Z, Var("w")]),
        ]
        assert multiway_estimate(chain, frozenset(), stats) == pytest.approx(
            cardinality ** 2.5
        )
        # Binding the end variables releases both end atoms back to weight ½.
        assert multiway_estimate(chain, frozenset({"x", "w"}), stats) == pytest.approx(
            cardinality ** 1.5
        )

    def test_initially_bound_variables_lead_the_elimination_order(self, skewed_graph):
        # A pendant atom keeps the triangle cyclic while carrying the bound
        # variable w; binding a triangle vertex itself would break the cycle
        # (bound variables drop out of the GYO hypergraph) and void the step.
        atoms = _triangle_atoms() + [RelationAtom("edge", [Z, Var("w")])]
        plan = plan_conjunction(
            atoms,
            bound_variables={"w"},
            statistics=_stats_for(skewed_graph, atoms),
        )
        assert plan.multiway is not None
        assert plan.multiway.var_order[0] == "w"

    def test_binding_a_cycle_vertex_voids_the_multiway_step(self, skewed_graph):
        """A bound vertex acts as a constant: the residual hypergraph is acyclic."""
        plan = plan_conjunction(
            _triangle_atoms(),
            bound_variables={"z"},
            statistics=_stats_for(skewed_graph, _triangle_atoms()),
        )
        assert plan.multiway is None
        assert plan.semijoin_tree  # GYO now finds ears

    def test_repeated_variable_owns_consecutive_trie_levels(self, skewed_graph):
        atoms = [
            RelationAtom("edge", [X, X]),
            RelationAtom("edge", [X, Y]),
            RelationAtom("edge", [Y, Z]),
            RelationAtom("edge", [Z, X]),
        ]
        plan = plan_conjunction(atoms, statistics=_stats_for(skewed_graph, atoms))
        assert plan.multiway is not None
        loop = next(m for m in plan.multiway.atoms if str(m.atom) == "edge(x, x)")
        assert loop.var_levels == (("x", 2),)
        assert loop.trie_positions == (0, 1)

    def test_multiway_comparison_schedule_is_earliest_ground(self, skewed_graph):
        comparisons = [Comparison(ComparisonOp.LT, X, Y)]
        plan = plan_conjunction(
            _triangle_atoms(),
            comparisons,
            statistics=_stats_for(skewed_graph, _triangle_atoms()),
        )
        multiway = plan.multiway
        assert multiway is not None
        depth = max(multiway.var_order.index("x"), multiway.var_order.index("y")) + 1
        assert multiway.comparison_schedule[depth] == (0,)
        assert sum(len(entry) for entry in multiway.comparison_schedule) == 1

    def test_describe_renders_the_multiway_section(self, skewed_graph):
        plan = plan_conjunction(
            _triangle_atoms(), statistics=_stats_for(skewed_graph, _triangle_atoms())
        )
        text = plan.describe()
        assert "multiway on (cyclic):" in text
        assert "multiway leapfrog, variable order [" in text
        assert "trie edge" in text

    def test_nullary_atom_in_a_cyclic_conjunction_is_a_membership_test(self):
        """An arity-0 atom cannot be trie-indexed; it must not crash the path."""
        database = Database()
        rows = {(i, i % 3) for i in range(30)} | {(i % 3, i) for i in range(30)}
        database.create_relation("edge", ["src", "dst"], rows)
        database.create_relation("flag", [], {()})
        atoms = _triangle_atoms() + [RelationAtom("flag", [])]

        def multiset(bindings):
            return sorted(tuple(sorted(b.items())) for b in bindings)

        leapfrog = forced_plan(atoms, statistics=_stats_for(database, atoms), multiway=True)
        assert leapfrog.multiway is not None
        expected = multiset(enumerate_bindings_naive(database, atoms))
        assert expected  # the flag is set: the triangle answers survive
        assert multiset(enumerate_bindings(database, atoms, plan=leapfrog)) == expected
        assert multiset(enumerate_bindings(database, atoms)) == expected
        # An empty nullary relation empties the conjunction instead.
        database.relation("flag").clear()
        assert multiset(enumerate_bindings(database, atoms, plan=leapfrog)) == []
        assert multiset(enumerate_bindings_naive(database, atoms)) == []

    def test_empty_constant_prefix_still_checks_root_comparisons(self, skewed_graph):
        """The no-answers early exit must not swallow a root-level TypeError."""
        atoms = _triangle_atoms() + [RelationAtom("edge", [X, Const(999)])]
        comparisons = [Comparison(ComparisonOp.LT, Var("w"), 3)]
        with pytest.raises(TypeError):
            list(
                enumerate_bindings_naive(
                    skewed_graph, atoms, comparisons, initial_binding={"w": "zzz"}
                )
            )
        leapfrog = forced_plan(
            atoms,
            comparisons,
            _stats_for(skewed_graph, atoms),
            bound_variables={"w"},
            multiway=True,
        )
        assert leapfrog.multiway is not None
        with pytest.raises(TypeError):
            list(
                enumerate_bindings(
                    skewed_graph,
                    atoms,
                    comparisons,
                    initial_binding={"w": "zzz"},
                    plan=leapfrog,
                )
            )


# ---------------------------------------------------------------------------
# Pre-bound variables switch the whole-relation verdicts off in the planner
# ---------------------------------------------------------------------------
def _semijoin_case():
    """A costed chain whose estimated intermediate dwarfs its relations."""
    database = Database()
    database.create_relation("r", ["a", "x"], [(i, i % 2) for i in range(200)])
    database.create_relation("s", ["x", "y"], [(i % 2, i) for i in range(200)])
    database.create_relation("t", ["y", "c"], [(i % 200, i) for i in range(1200)])
    atoms = [
        RelationAtom("r", [Var("a"), X]),
        RelationAtom("s", [X, Y]),
        RelationAtom("t", [Y, Var("c")]),
    ]
    return database, atoms, [], {"x"}, "run_semijoin"


def _multiway_case():
    """The skewed triangle plus a pendant atom that carries the bound variable."""
    database = Database()
    rows = {(i, i % 3) for i in range(60)} | {(i % 3, i) for i in range(60)}
    database.create_relation("edge", ["src", "dst"], rows)
    atoms = _triangle_atoms() + [RelationAtom("edge", [Z, Var("w")])]
    return database, atoms, [], {"w"}, "run_multiway"


def _columnar_case():
    """A range scan over a relation large enough for the columnar kernels."""
    database = Database()
    database.create_relation("item", ["iid", "price"], [(i, i % 500) for i in range(2000)])
    database.create_relation("limit", ["q"], [(1,)])
    atoms = [RelationAtom("item", [X, Var("p")]), RelationAtom("limit", [Var("q")])]
    comparisons = [Comparison(ComparisonOp.LT, Var("p"), 30)]
    return database, atoms, comparisons, {"q"}, "run_columnar"


#: The plan section each verdict runs; a seeded plan still compiles it.
_VERDICT_SECTIONS = {
    "run_semijoin": lambda plan: bool(plan.semijoin_tree),
    "run_multiway": lambda plan: plan.multiway is not None,
    "run_columnar": lambda plan: any(step.columnar_pushdowns for step in plan.steps),
}


@pytest.mark.parametrize("case", [_semijoin_case, _multiway_case, _columnar_case])
def test_bound_variables_switch_the_whole_relation_verdicts_off(case):
    """The planner, not the executor, keeps seeded evaluations O(|Δ|).

    Each conjunction's unbound plan votes for its whole-relation path; the
    same conjunction compiled with a pre-bound variable still compiles the
    path's plan section but votes against running it.
    """
    database, atoms, comparisons, bound, verdict = case()
    statistics = _stats_for(database, atoms)
    unbound = plan_conjunction(atoms, comparisons, statistics=statistics)
    seeded = plan_conjunction(atoms, comparisons, bound, statistics)
    assert getattr(unbound, verdict)
    assert _VERDICT_SECTIONS[verdict](seeded)
    assert not (seeded.run_semijoin or seeded.run_multiway or seeded.run_columnar)
