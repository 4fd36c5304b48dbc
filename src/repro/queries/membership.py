"""The membership problem ``t ∈ Q(D)``.

The paper's upper- and lower-bound proofs repeatedly reduce recommendation
problems to (or from) query membership: membership is NP-complete for CQ/UCQ/
∃FO+, PSPACE-complete for DATALOG_nr and FO, EXPTIME-complete for DATALOG, and
PTIME for SP (combined complexity); for every language the *data* complexity
is PTIME.  This module exposes membership as a first-class function so tests
and benchmarks can exercise exactly that problem.
"""

from __future__ import annotations

from repro.queries.base import Query
from repro.relational.database import Database, Row


def is_member(query: Query, database: Database, row: Row) -> bool:
    """Decide ``row ∈ Q(D)`` using the query's own (possibly optimised) check."""
    return query.contains(database, tuple(row))


def answer_size(query: Query, database: Database) -> int:
    """``|Q(D)|`` — used by workload generators and sanity checks.

    One evaluation; an error the evaluation raises propagates.
    """
    return len(query.evaluate(database))


def is_empty(query: Query, database: Database) -> bool:
    """Whether ``Q(D)`` is empty (the trigger for relaxation/adjustment)."""
    satisfiable = getattr(query, "is_satisfiable_on", None)
    if callable(satisfiable):
        return not satisfiable(database)
    return len(query.evaluate(database)) == 0
