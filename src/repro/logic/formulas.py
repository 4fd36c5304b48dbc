"""Propositional formulas in clausal form.

CNF formulas are conjunctions of clauses (disjunctions of literals); DNF
formulas are disjunctions of terms (conjunctions of literals).  Variables are
plain strings; a truth assignment is a mapping from variable names to bools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Sequence, Tuple

TruthAssignment = Dict[str, bool]


@dataclass(frozen=True)
class Literal:
    """A propositional literal: a variable or its negation."""

    variable: str
    positive: bool = True

    def negate(self) -> "Literal":
        """The complementary literal."""
        return Literal(self.variable, not self.positive)

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Truth value under an assignment that must bind the variable."""
        value = assignment[self.variable]
        return value if self.positive else not value

    def __str__(self) -> str:
        return self.variable if self.positive else f"¬{self.variable}"


@dataclass(frozen=True)
class Clause:
    """A disjunction of literals (one clause of a CNF formula)."""

    literals: Tuple[Literal, ...]

    def __init__(self, literals: Iterable[Literal]) -> None:
        object.__setattr__(self, "literals", tuple(literals))

    def variables(self) -> FrozenSet[str]:
        return frozenset(l.variable for l in self.literals)

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return any(l.evaluate(assignment) for l in self.literals)

    def satisfying_local_assignments(self) -> Tuple[TruthAssignment, ...]:
        """All assignments of the clause's own variables that satisfy it.

        The reductions of Lemma 4.4 and the MAX-WEIGHT SAT encoding create one
        database tuple per clause per satisfying local assignment; exposing the
        enumeration here keeps those encodings short and testable.
        """
        names = sorted(self.variables())
        result = []
        for bits in range(2 ** len(names)):
            assignment = {
                name: bool((bits >> index) & 1) for index, name in enumerate(names)
            }
            if self.evaluate(assignment):
                result.append(assignment)
        return tuple(result)

    def __len__(self) -> int:
        return len(self.literals)

    def __str__(self) -> str:
        return "(" + " ∨ ".join(str(l) for l in self.literals) + ")"


@dataclass(frozen=True)
class Term3:
    """A conjunction of literals (one term of a DNF formula)."""

    literals: Tuple[Literal, ...]

    def __init__(self, literals: Iterable[Literal]) -> None:
        object.__setattr__(self, "literals", tuple(literals))

    def variables(self) -> FrozenSet[str]:
        return frozenset(l.variable for l in self.literals)

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return all(l.evaluate(assignment) for l in self.literals)

    def __len__(self) -> int:
        return len(self.literals)

    def __str__(self) -> str:
        return "(" + " ∧ ".join(str(l) for l in self.literals) + ")"


class _ClausalFormula:
    """Shared behaviour of CNF and DNF formulas."""

    parts: Tuple

    def variables(self) -> Tuple[str, ...]:
        """All variables, sorted by name."""
        names: set = set()
        for part in self.parts:
            names |= part.variables()
        return tuple(sorted(names))

    def __len__(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class CNFFormula(_ClausalFormula):
    """A conjunction of clauses."""

    parts: Tuple[Clause, ...]

    def __init__(self, clauses: Iterable[Clause]) -> None:
        object.__setattr__(self, "parts", tuple(clauses))

    @property
    def clauses(self) -> Tuple[Clause, ...]:
        return self.parts

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return all(clause.evaluate(assignment) for clause in self.parts)

    def is_3cnf(self) -> bool:
        """Whether every clause has at most three literals."""
        return all(len(clause) <= 3 for clause in self.parts)

    def __str__(self) -> str:
        return " ∧ ".join(str(c) for c in self.parts)


@dataclass(frozen=True)
class DNFFormula(_ClausalFormula):
    """A disjunction of terms."""

    parts: Tuple[Term3, ...]

    def __init__(self, terms: Iterable[Term3]) -> None:
        object.__setattr__(self, "parts", tuple(terms))

    @property
    def terms(self) -> Tuple[Term3, ...]:
        return self.parts

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return any(term.evaluate(assignment) for term in self.parts)

    def is_3dnf(self) -> bool:
        """Whether every term has at most three literals."""
        return all(len(term) <= 3 for term in self.parts)

    def negate_to_cnf(self) -> CNFFormula:
        """¬(T1 ∨ ... ∨ Tr) as a CNF formula (De Morgan per term)."""
        return CNFFormula(
            Clause([l.negate() for l in term.literals]) for term in self.parts
        )

    def __str__(self) -> str:
        return " ∨ ".join(str(t) for t in self.parts)


def cnf(*clauses: Sequence[Tuple[str, bool]]) -> CNFFormula:
    """Build a CNF formula from ``(variable, positive)`` pairs.

    >>> cnf([("x", True), ("y", False)], [("y", True)])
    matches (x ∨ ¬y) ∧ (y).
    """
    return CNFFormula(Clause(Literal(v, p) for v, p in clause) for clause in clauses)


def dnf(*terms: Sequence[Tuple[str, bool]]) -> DNFFormula:
    """Build a DNF formula from ``(variable, positive)`` pairs."""
    return DNFFormula(Term3(Literal(v, p) for v, p in term) for term in terms)
