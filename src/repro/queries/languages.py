"""The query-language lattice of the paper.

``CQ ⊆ UCQ ⊆ ∃FO+ ⊆ FO`` and ``DATALOG_nr ⊆ DATALOG``; ``DATALOG_nr`` also
contains UCQ, and SP ⊆ CQ.  The enumeration is used to parameterise the
recommendation problems (``RPP(LQ)`` etc.), to key the paper's complexity
tables, and to classify concrete query objects.
"""

from __future__ import annotations

from enum import Enum
from typing import Tuple


class QueryLanguage(Enum):
    """Languages LQ considered by the paper (plus the SP/identity fragments)."""

    SP = "SP"
    CQ = "CQ"
    UCQ = "UCQ"
    EFO_PLUS = "∃FO+"
    DATALOG_NR = "DATALOG_nr"
    FO = "FO"
    DATALOG = "DATALOG"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value

    @property
    def has_ptime_membership_combined(self) -> bool:
        """Whether the *combined* complexity of membership ``t ∈ Q(D)`` is PTIME.

        Among the languages of the paper only SP (and other
        selection/projection fragments) enjoy this; it is the hinge of
        Corollary 6.2.
        """
        return self is QueryLanguage.SP

    def subsumes(self, other: "QueryLanguage") -> bool:
        """Language containment ``other ⊆ self`` in the paper's lattice."""
        return other in _CONTAINED_IN[self]


_CONTAINED_IN = {
    QueryLanguage.SP: {QueryLanguage.SP},
    QueryLanguage.CQ: {QueryLanguage.SP, QueryLanguage.CQ},
    QueryLanguage.UCQ: {QueryLanguage.SP, QueryLanguage.CQ, QueryLanguage.UCQ},
    QueryLanguage.EFO_PLUS: {
        QueryLanguage.SP,
        QueryLanguage.CQ,
        QueryLanguage.UCQ,
        QueryLanguage.EFO_PLUS,
    },
    QueryLanguage.DATALOG_NR: {
        QueryLanguage.SP,
        QueryLanguage.CQ,
        QueryLanguage.UCQ,
        QueryLanguage.EFO_PLUS,
        QueryLanguage.DATALOG_NR,
    },
    QueryLanguage.FO: {
        QueryLanguage.SP,
        QueryLanguage.CQ,
        QueryLanguage.UCQ,
        QueryLanguage.EFO_PLUS,
        QueryLanguage.FO,
    },
    QueryLanguage.DATALOG: {
        QueryLanguage.SP,
        QueryLanguage.CQ,
        QueryLanguage.UCQ,
        QueryLanguage.EFO_PLUS,
        QueryLanguage.DATALOG_NR,
        QueryLanguage.DATALOG,
    },
}

#: The three language groups that share one complexity cell in Tables 8.1/8.2.
CQ_GROUP: Tuple[QueryLanguage, ...] = (
    QueryLanguage.CQ,
    QueryLanguage.UCQ,
    QueryLanguage.EFO_PLUS,
)
FO_GROUP: Tuple[QueryLanguage, ...] = (QueryLanguage.DATALOG_NR, QueryLanguage.FO)
DATALOG_GROUP: Tuple[QueryLanguage, ...] = (QueryLanguage.DATALOG,)

ALL_LANGUAGES: Tuple[QueryLanguage, ...] = (
    QueryLanguage.CQ,
    QueryLanguage.UCQ,
    QueryLanguage.EFO_PLUS,
    QueryLanguage.DATALOG_NR,
    QueryLanguage.FO,
    QueryLanguage.DATALOG,
)


def classify_query(query) -> QueryLanguage:
    """The smallest language of the lattice a query object belongs to.

    Classification is syntactic: a recursive :class:`DatalogProgram` is
    DATALOG even if its rules happen never to recurse on the given data, and a
    one-disjunct UCQ is classified as CQ.
    """
    from repro.queries.cq import ConjunctiveQuery
    from repro.queries.datalog import DatalogProgram, NonRecursiveDatalogProgram
    from repro.queries.efo import PositiveExistentialQuery
    from repro.queries.fo import FirstOrderQuery
    from repro.queries.sp import SPQuery
    from repro.queries.ucq import UnionOfConjunctiveQueries

    if isinstance(query, SPQuery):
        return QueryLanguage.SP
    if isinstance(query, ConjunctiveQuery):
        return QueryLanguage.CQ
    if isinstance(query, UnionOfConjunctiveQueries):
        if len(query.disjuncts) == 1:
            return QueryLanguage.CQ
        return QueryLanguage.UCQ
    if isinstance(query, PositiveExistentialQuery):
        return QueryLanguage.EFO_PLUS
    if isinstance(query, NonRecursiveDatalogProgram):
        return QueryLanguage.DATALOG_NR
    if isinstance(query, DatalogProgram):
        return QueryLanguage.DATALOG_NR if not query.is_recursive() else QueryLanguage.DATALOG
    if isinstance(query, FirstOrderQuery):
        return QueryLanguage.FO
    raise TypeError(f"cannot classify object of type {type(query).__name__} as a query language")
