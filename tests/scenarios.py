"""The shared random-scenario kit behind every differential suite.

Historically each differential suite (`test_evaluator_differential`,
`test_enumeration_differential`, `test_incremental_differential`) carried its
own near-identical copy of the random-instance generators.  This module is
the single shared kit they all import: random schemas and databases, random
CQ/UCQ/∃FO⁺ queries, random update streams, random recommendation problems —
and, new with the worst-case-optimal multiway join, random *cyclic* query
shapes (triangle, 4-cycle, star-with-chord) that no suite generated before.
It also builds the forced plans (:func:`forced_plan`) through which the
evaluator suite drives each access path on and off.

Every generator is a pure function of the :class:`random.Random` instance it
is handed (plus explicit parameters), so a scenario is reproducible from the
seed in a failing test's id by construction — ``tests/test_scenarios.py``
pins that determinism for each generator.

The keyword defaults replicate each suite's historical distributions exactly
(including the order of ``rng`` draws), so extracting the kit changed no
generated instance; the suites pass their historical ``values``/``variables``
pools where those differed.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import AbstractSet, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core import CountCost, CountRating, QueryConstraint
from repro.core.compatibility import EmptyConstraint
from repro.core.functions import (
    AttributeSumCost,
    AttributeSumRating,
    ConstantRating,
    MinAttributeRating,
)
from repro.core.model import ConstantBound, PolynomialBound, RecommendationProblem
from repro.queries.ast import (
    And,
    Comparison,
    ComparisonOp,
    Const,
    Exists,
    Or,
    RelationAtom,
    Var,
)
from repro.queries.cq import ConjunctiveQuery
from repro.queries.efo import PositiveExistentialQuery
from repro.queries.plan import JoinPlan, plan_conjunction
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.database import Database
from repro.relational.statistics import RelationStatistics
from repro.workloads.synthetic import (
    item_selection_query,
    no_duplicate_category_constraint,
    random_item_database,
)

#: The evaluator suite's historical pools.
EVALUATOR_VALUES = range(7)
EVALUATOR_VARIABLES = ("x0", "x1", "x2", "x3", "x4")

#: The incremental suite's historical pools.
INCREMENTAL_VALUES = range(6)
INCREMENTAL_VARIABLES = ("x0", "x1", "x2", "x3")

COMPARISON_OPS = tuple(ComparisonOp)

#: The cyclic conjunction shapes the multiway planner compiles a leapfrog
#: step for; :func:`random_cyclic_conjunction` generates one of each.
CYCLIC_SHAPES = ("triangle", "four_cycle", "star_chord")


# ---------------------------------------------------------------------------
# Random databases
# ---------------------------------------------------------------------------
def random_database(
    rng: random.Random,
    *,
    values: Sequence[int] = EVALUATOR_VALUES,
    max_relations: int = 3,
    max_arity: int = 3,
    max_rows: int = 6,
) -> Database:
    """A small random database: 1-N relations of arity 1-k over a tiny domain."""
    database = Database()
    for index in range(rng.randint(1, max_relations)):
        arity = rng.randint(1, max_arity)
        rows = {
            tuple(rng.choice(values) for _ in range(arity))
            for _ in range(rng.randint(0, max_rows))
        }
        database.create_relation(f"R{index}", [f"a{i}" for i in range(arity)], rows)
    return database


def random_cyclic_database(
    rng: random.Random,
    *,
    values: Sequence[int] = range(12),
    max_relations: int = 2,
    max_rows: int = 18,
) -> Database:
    """1-2 binary edge-like relations, dense enough for cyclic joins to bite."""
    database = Database()
    for index in range(rng.randint(1, max_relations)):
        rows = {
            (rng.choice(values), rng.choice(values))
            for _ in range(rng.randint(6, max_rows))
        }
        database.create_relation(f"E{index}", ["s", "d"], rows)
    return database


# ---------------------------------------------------------------------------
# Random conjunctions (the evaluator suite's shapes)
# ---------------------------------------------------------------------------
def random_atoms(
    rng: random.Random,
    database: Database,
    *,
    values: Sequence[int] = EVALUATOR_VALUES,
    variables: Sequence[str] = EVALUATOR_VARIABLES,
    max_atoms: int = 4,
    var_probability: float = 0.75,
) -> List[RelationAtom]:
    """1-N random atoms; the first term of the first atom is always a variable."""
    atoms: List[RelationAtom] = []
    for atom_index in range(rng.randint(1, max_atoms)):
        name = rng.choice(database.relation_names())
        arity = database.relation(name).arity
        terms: List = []
        for position in range(arity):
            if (atom_index == 0 and position == 0) or rng.random() < var_probability:
                terms.append(Var(rng.choice(variables)))
            else:
                terms.append(Const(rng.choice(values)))
        atoms.append(RelationAtom(name, terms))
    return atoms


def random_comparisons(
    rng: random.Random,
    atoms: Sequence[RelationAtom],
    *,
    values: Sequence[int] = EVALUATOR_VALUES,
    max_comparisons: int = 2,
) -> List[Comparison]:
    """0-N comparisons over variables that occur in the atoms (safety)."""
    body_vars = sorted({v.name for atom in atoms for v in atom.variables()})
    if not body_vars:
        return []
    comparisons = []
    for _ in range(rng.randint(0, max_comparisons)):
        left = Var(rng.choice(body_vars))
        right = (
            Var(rng.choice(body_vars)) if rng.random() < 0.5 else Const(rng.choice(values))
        )
        comparisons.append(Comparison(rng.choice(COMPARISON_OPS), left, right))
    return comparisons


def random_conjunction(
    rng: random.Random,
    database: Database,
    *,
    values: Sequence[int] = EVALUATOR_VALUES,
    variables: Sequence[str] = EVALUATOR_VARIABLES,
) -> Tuple[List[RelationAtom], List[Comparison]]:
    """A random conjunction: atoms plus safe comparisons over their variables."""
    atoms = random_atoms(rng, database, values=values, variables=variables)
    return atoms, random_comparisons(rng, atoms, values=values)


def random_cyclic_conjunction(
    rng: random.Random,
    database: Database,
    shape: str,
    *,
    values: Sequence[int] = range(12),
    comparison_probability: float = 0.4,
) -> Tuple[List[RelationAtom], List[Comparison]]:
    """A conjunction of the named cyclic shape over the binary relations.

    ``triangle`` and ``four_cycle`` are the pure cycles; ``star_chord`` is a
    star around the hub variable plus a chord closing one triangle — the GYO
    reduct is cyclic although some atoms are ears.  Each atom draws its
    relation independently, so self-joins are likely; with
    ``comparison_probability`` a comparison over the cycle variables rides
    along.
    """
    binary = [
        name for name in database.relation_names() if database.relation(name).arity == 2
    ]
    if not binary:
        raise ValueError("a cyclic conjunction needs at least one binary relation")
    x0, x1, x2, x3 = Var("x0"), Var("x1"), Var("x2"), Var("x3")

    def edge(source: Var, target: Var) -> RelationAtom:
        return RelationAtom(rng.choice(binary), [source, target])

    if shape == "triangle":
        atoms = [edge(x0, x1), edge(x1, x2), edge(x2, x0)]
    elif shape == "four_cycle":
        atoms = [edge(x0, x1), edge(x1, x2), edge(x2, x3), edge(x3, x0)]
    elif shape == "star_chord":
        atoms = [edge(x0, x1), edge(x0, x2), edge(x0, x3), edge(x1, x2)]
    else:
        raise ValueError(f"unknown cyclic shape {shape!r}; known: {CYCLIC_SHAPES}")
    comparisons: List[Comparison] = []
    if rng.random() < comparison_probability:
        body_vars = sorted({v.name for atom in atoms for v in atom.variables()})
        left = Var(rng.choice(body_vars))
        right = (
            Var(rng.choice(body_vars)) if rng.random() < 0.5 else Const(rng.choice(values))
        )
        comparisons.append(Comparison(rng.choice(COMPARISON_OPS), left, right))
    return atoms, comparisons


# ---------------------------------------------------------------------------
# Forced plans (the evaluator's access-path axes)
# ---------------------------------------------------------------------------
def relation_statistics(
    database: Database, atoms: Sequence[RelationAtom]
) -> Dict[str, RelationStatistics]:
    """The statistics of every relation ``atoms`` mention, keyed as the planner takes them."""
    return {atom.relation: database.relation(atom.relation).statistics() for atom in atoms}


def forced_plan(
    atoms: Sequence[RelationAtom],
    comparisons: Sequence[Comparison] = (),
    statistics: Optional[Mapping[str, RelationStatistics]] = None,
    *,
    bound_variables: AbstractSet[str] = frozenset(),
    range_probes: bool = True,
    semijoin: Optional[bool] = None,
    multiway: Optional[bool] = None,
    columnar: Optional[bool] = None,
) -> JoinPlan:
    """A join plan with chosen access paths forced on or off, to pass as ``plan=``.

    The executor carries out the plan's verdicts and has no switch of its
    own, so an axis is forced by building the plan: compile it with
    :func:`~repro.queries.plan.plan_conjunction` (``statistics=None`` gives
    the statistics-blind order), strip the compiled range probes
    (``range_probes=False``) or columnar pushdowns (``columnar=False``), then
    set the ``run_*`` verdicts — ``None`` keeps the planner's, a bool forces
    it.  A verdict forced on without the plan section it needs (a semi-join
    without a join tree, a multiway step the planner did not compile) is a
    no-op: the executor runs the binary steps.  With every axis off and no
    statistics this is exactly the original statistics-blind planner.
    """
    plan = plan_conjunction(atoms, comparisons, bound_variables, statistics)
    steps = tuple(
        replace(
            step,
            range_probe=step.range_probe if range_probes else None,
            columnar_pushdowns=step.columnar_pushdowns if columnar is not False else (),
        )
        for step in plan.steps
    )
    return replace(
        plan,
        steps=steps,
        run_semijoin=plan.run_semijoin if semijoin is None else semijoin,
        run_multiway=plan.run_multiway if multiway is None else multiway,
        run_columnar=plan.run_columnar if columnar is None else columnar,
    )


# ---------------------------------------------------------------------------
# Random queries (CQ / UCQ / ∃FO⁺)
# ---------------------------------------------------------------------------
def random_cq(
    rng: random.Random,
    database: Database,
    name: str,
    *,
    values: Sequence[int] = EVALUATOR_VALUES,
    variables: Sequence[str] = EVALUATOR_VARIABLES,
) -> ConjunctiveQuery:
    """A random CQ with a 1-2 variable head sampled from its body variables."""
    atoms, comparisons = random_conjunction(rng, database, values=values, variables=variables)
    head_vars = sorted({v.name for atom in atoms for v in atom.variables()})
    head = [Var(v) for v in rng.sample(head_vars, rng.randint(1, min(2, len(head_vars))))]
    return ConjunctiveQuery(head, atoms, comparisons, name=name)


def random_ucq(
    rng: random.Random,
    database: Database,
    *,
    values: Sequence[int] = EVALUATOR_VALUES,
    variables: Sequence[str] = EVALUATOR_VARIABLES,
) -> UnionOfConjunctiveQueries:
    """A UCQ of 2-3 random disjuncts, padded/trimmed to one output arity."""
    disjuncts: List[ConjunctiveQuery] = []
    width = rng.randint(2, 3)
    for index in range(width):
        cq = random_cq(rng, database, f"Q{index}", values=values, variables=variables)
        # All disjuncts of a UCQ must share one output arity; pad or trim the
        # head by repeating its first term.
        if disjuncts and cq.output_arity != disjuncts[0].output_arity:
            target = disjuncts[0].output_arity
            cq = ConjunctiveQuery(
                (cq.head * target)[:target], cq.atoms, cq.comparisons, name=cq.name
            )
        disjuncts.append(cq)
    return UnionOfConjunctiveQueries(disjuncts, name="U")


def _formula_vars(formula):
    if isinstance(formula, (RelationAtom, Comparison)):
        return formula.variables()
    if isinstance(formula, (And, Or)):
        result = frozenset()
        for operand in formula.operands:
            result |= _formula_vars(operand)
        return result
    return _formula_vars(formula.operand)


def random_efo_query(
    rng: random.Random,
    database: Database,
    *,
    values: Sequence[int] = EVALUATOR_VALUES,
    variables: Sequence[str] = EVALUATOR_VARIABLES,
) -> PositiveExistentialQuery:
    """A random ∃FO⁺ query: 1-3 DNF branches sharing ``x0``, maybe quantified."""
    branches = []
    for _ in range(rng.randint(1, 3)):
        atoms = random_atoms(rng, database, values=values, variables=variables)
        # Share x0 across every branch so a head variable exists in all of them.
        atoms[0] = RelationAtom(atoms[0].relation, [Var("x0")] + list(atoms[0].terms[1:]))
        comparisons = random_comparisons(rng, atoms, values=values)
        branches.append(And(*(atoms + comparisons)))
    formula = Or(*branches) if len(branches) > 1 else branches[0]
    branch_vars = sorted(
        {v.name for branch in branches for v in _formula_vars(branch)} - {"x0"}
    )
    if branch_vars and rng.random() < 0.7:
        formula = Exists(
            tuple(Var(v) for v in rng.sample(branch_vars, rng.randint(1, len(branch_vars)))),
            formula,
        )
    return PositiveExistentialQuery([Var("x0")], formula, name="E")


def random_cq_or_ucq(
    rng: random.Random,
    database: Database,
    *,
    values: Sequence[int] = INCREMENTAL_VALUES,
    variables: Sequence[str] = INCREMENTAL_VARIABLES,
):
    """A random CQ or UCQ; self-joins and repeated variables are likely.

    The incremental suite's query shape: denser variable reuse than
    :func:`random_cq` (0.8 variable probability over a 4-name pool) so
    maintained self-joins and multi-occurrence delta rules are exercised.
    """

    def inner_cq(name: str, head_vars=None) -> ConjunctiveQuery:
        atoms: List[RelationAtom] = []
        for _ in range(rng.randint(1, 3)):
            relation = rng.choice(database.relation_names())
            arity = database.relation(relation).arity
            terms = [
                Var(rng.choice(variables))
                if rng.random() < 0.8
                else Const(rng.choice(values))
                for _ in range(arity)
            ]
            atoms.append(RelationAtom(relation, terms))
        body_vars = sorted({v.name for atom in atoms for v in atom.variables()})
        comparisons = []
        if body_vars and rng.random() < 0.4:
            left = Var(rng.choice(body_vars))
            right = (
                Var(rng.choice(body_vars))
                if rng.random() < 0.5
                else Const(rng.choice(values))
            )
            comparisons.append(Comparison(rng.choice(COMPARISON_OPS), left, right))
        if head_vars is None:
            head_vars = (
                rng.sample(body_vars, min(len(body_vars), rng.randint(1, 2)))
                if body_vars
                else []
            )
        head = [Var(v) for v in head_vars]
        return ConjunctiveQuery(head, atoms, comparisons, name=name)

    first = inner_cq("d1")
    if rng.random() < 0.3:
        # a UCQ whose disjuncts agree on the output arity
        arity = first.output_arity
        disjuncts = [first]
        for index in range(rng.randint(1, 2)):
            for _ in range(8):  # retry until a disjunct with matching arity appears
                candidate = inner_cq(f"d{index + 2}")
                if candidate.output_arity == arity:
                    disjuncts.append(candidate)
                    break
        if len(disjuncts) > 1:
            return UnionOfConjunctiveQueries(disjuncts, name="ucq")
    return first


# ---------------------------------------------------------------------------
# Random update streams (the incremental suite's shapes)
# ---------------------------------------------------------------------------
def random_modification(
    rng: random.Random,
    database: Database,
    *,
    values: Sequence[int] = INCREMENTAL_VALUES,
) -> Tuple[str, str, Tuple]:
    """One random insert/delete; deletes usually target an existing row."""
    relation = rng.choice(database.relation_names())
    arity = database.relation(relation).arity
    kind = rng.choice(["insert", "delete"])
    if kind == "delete" and len(database.relation(relation)) and rng.random() < 0.6:
        row = rng.choice(sorted(database.relation(relation).rows()))
    else:
        row = tuple(rng.choice(values) for _ in range(arity))
    return (kind, relation, row)


def random_update_stream(
    rng: random.Random,
    database: Database,
    length: int,
    *,
    values: Sequence[int] = INCREMENTAL_VALUES,
    max_batch: int = 3,
) -> List[List[Tuple[str, str, Tuple]]]:
    """A stream of single- and multi-modification deltas (some no-ops)."""
    stream = []
    for _ in range(length):
        batch = [
            random_modification(rng, database, values=values)
            for _ in range(rng.randint(1, max_batch))
        ]
        stream.append(batch)
    return stream


# ---------------------------------------------------------------------------
# Random recommendation problems (the enumeration suite's shapes)
# ---------------------------------------------------------------------------
def duplicate_category_qc() -> QueryConstraint:
    """"At most one item per category" as a CQ violation query over ``RQ``."""
    iid1, iid2, category = Var("iid1"), Var("iid2"), Var("category")
    p1, q1, p2, q2 = Var("p1"), Var("q1"), Var("p2"), Var("q2")
    violation = ConjunctiveQuery(
        [],
        [
            RelationAtom("RQ", [iid1, category, p1, q1]),
            RelationAtom("RQ", [iid2, category, p2, q2]),
        ],
        [Comparison(ComparisonOp.NE, iid1, iid2)],
        name="duplicate_category",
    )
    return QueryConstraint(violation, answer_relation="RQ")


def random_problem(seed: int) -> Tuple[RecommendationProblem, float]:
    """A random recommendation problem plus a rating bound that bites.

    The declared hints (``monotone_cost``, ``antimonotone_compatibility``,
    ``monotone_val``) are randomly withheld even when the property holds, so
    a differential suite exercises both the pruned and the exhaustive regimes
    of every search mode; they are never declared when the property does NOT
    hold.
    """
    rng = random.Random(seed)
    num_items = rng.randint(3, 7)
    database = random_item_database(num_items, seed=seed)

    max_price = rng.choice([None, 20, 35])
    query = item_selection_query(max_price)

    cost = rng.choice([CountCost(), AttributeSumCost("price")])
    # Prices and qualities are ≥ 1, so both costs are monotone.
    cost_is_monotone = True

    val_kind = rng.randrange(5)
    if val_kind == 0:
        val, val_is_monotone = AttributeSumRating("quality"), True
    elif val_kind == 1:
        val, val_is_monotone = AttributeSumRating("quality", sign=-1.0), False
    elif val_kind == 2:
        val, val_is_monotone = CountRating(), True
    elif val_kind == 3:
        val, val_is_monotone = MinAttributeRating("quality"), False
    else:
        val, val_is_monotone = ConstantRating(float(rng.randint(1, 5))), True

    constraint_kind = rng.randrange(3)
    if constraint_kind == 0:
        compatibility = EmptyConstraint()
    elif constraint_kind == 1:
        compatibility = no_duplicate_category_constraint()
    else:
        compatibility = duplicate_category_qc()

    if isinstance(cost, CountCost):
        budget = float(rng.randint(1, 4))
    else:
        budget = float(rng.randint(10, 90))

    size_bound = rng.choice(
        [ConstantBound(rng.randint(1, 3)), PolynomialBound(1.0, 1)]
    )

    problem = RecommendationProblem(
        database=database,
        query=query,
        cost=cost,
        val=val,
        budget=budget,
        k=rng.randint(1, 3),
        compatibility=compatibility,
        size_bound=size_bound,
        name=f"differential seed {seed}",
        monotone_cost=cost_is_monotone and rng.random() < 0.8,
        antimonotone_compatibility=rng.random() < 0.8,
        monotone_val=val_is_monotone and rng.random() < 0.8,
        cache_compatibility=rng.random() < 0.8,
    )
    if val_kind == 1:
        rating_bound = float(-rng.randint(5, 40))
    else:
        rating_bound = float(rng.randint(1, 25))
    return problem, rating_bound
