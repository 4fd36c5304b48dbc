"""Encoding CNF clauses as database tuples (the Lemma 4.4 gadget).

Several data-complexity lower bounds share one construction: a relation
``RC(cid, L1, V1, L2, V2, L3, V3)`` holding, for every clause and every truth
assignment of that clause's own variables that satisfies it, one tuple
recording the clause id and the (variable, value) pairs.  A package of such
tuples encodes a partial truth assignment; it is *consistent* when no clause id
repeats and no variable receives both values.  The paper's reductions then
steer the cost function with exactly that consistency predicate.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.core.packages import Package
from repro.logic.formulas import Clause, CNFFormula
from repro.relational.database import Database, Relation
from repro.relational.schema import RelationSchema

#: Name and schema of the clause relation.
CLAUSE_RELATION = "RC"
CLAUSE_ATTRIBUTES = ("cid", "L1", "V1", "L2", "V2", "L3", "V3")


def clause_relation_schema(name: str = CLAUSE_RELATION, extra: Sequence[str] = ()) -> RelationSchema:
    """The schema ``RC(cid, L1, V1, L2, V2, L3, V3[, extra...])``."""
    return RelationSchema(name, list(CLAUSE_ATTRIBUTES) + list(extra))


def _padded_variables(clause: Clause) -> Tuple[str, str, str]:
    """The clause's variables padded to three slots (repeating the last one)."""
    names = sorted(clause.variables())
    if not names:
        raise ValueError("clauses must mention at least one variable")
    while len(names) < 3:
        names.append(names[-1])
    return names[0], names[1], names[2]


def clause_tuples(
    formula: CNFFormula,
    cid_offset: int = 0,
    extra_values: Sequence[object] = (),
) -> Tuple[Tuple[object, ...], ...]:
    """All ``RC`` tuples for a CNF formula.

    One tuple per clause per satisfying assignment of the clause's own
    variables; clause ids start at ``cid_offset + 1``.  ``extra_values`` are
    appended verbatim to every tuple (the QRPP reduction adds a flag column).
    """
    rows = []
    for index, clause in enumerate(formula.clauses, start=cid_offset + 1):
        v1, v2, v3 = _padded_variables(clause)
        for assignment in clause.satisfying_local_assignments():
            row = (
                index,
                v1,
                int(assignment[v1]),
                v2,
                int(assignment[v2]),
                v3,
                int(assignment[v3]),
            )
            rows.append(row + tuple(extra_values))
    return tuple(rows)


def clause_database(
    formula: CNFFormula,
    relation_name: str = CLAUSE_RELATION,
    cid_offset: int = 0,
    extra_attributes: Sequence[str] = (),
    extra_values: Sequence[object] = (),
) -> Database:
    """A database holding only the clause relation of ``formula``."""
    schema = clause_relation_schema(relation_name, extra_attributes)
    relation = Relation(schema, clause_tuples(formula, cid_offset, extra_values))
    return Database([relation])


# ---------------------------------------------------------------------------
# Decoding packages of clause tuples
# ---------------------------------------------------------------------------
def _slots(item: Sequence[object]) -> Tuple[Tuple[str, int], ...]:
    """The three (variable, value) pairs of one clause tuple."""
    return ((item[1], item[2]), (item[3], item[4]), (item[5], item[6]))


def package_clause_ids(package: Package) -> Tuple[object, ...]:
    """The clause ids mentioned by a package (with duplicates removed, sorted)."""
    return tuple(sorted({item[0] for item in package.items}))


def package_assignment(package: Package) -> Optional[Dict[str, bool]]:
    """The partial truth assignment a package encodes, or ``None`` if inconsistent.

    A package is inconsistent when two of its tuples assign different values to
    the same variable.
    """
    assignment: Dict[str, bool] = {}
    for item in package.items:
        for variable, value in _slots(item):
            boolean = bool(value)
            if variable in assignment and assignment[variable] != boolean:
                return None
            assignment[variable] = boolean
    return assignment


def package_is_consistent(package: Package) -> bool:
    """The Lemma 4.4 consistency predicate.

    True iff no two distinct tuples share a clause id and no variable is
    assigned both truth values.
    """
    ids = [item[0] for item in package.items]
    if len(ids) != len(set(ids)):
        return False
    return package_assignment(package) is not None


def covers_all_clauses(package: Package, num_clauses: int, cid_offset: int = 0) -> bool:
    """Whether the package has (at least) one tuple for every clause id."""
    wanted = set(range(cid_offset + 1, cid_offset + num_clauses + 1))
    return wanted <= {item[0] for item in package.items}
