"""Common interface for all query classes.

Every query evaluates a :class:`~repro.relational.database.Database` to a
:class:`~repro.relational.database.Relation` whose schema is the *answer
schema* ``RQ`` of the paper.  The answer relation name matters: compatibility
constraints are queries that mention ``RQ`` together with the database
relations, so the recommendation engine materialises a candidate package ``N``
as a relation named :attr:`Query.answer_name` before evaluating ``Qc``.
"""

from __future__ import annotations

import abc
import inspect
from typing import FrozenSet, Optional, Sequence, Tuple

from repro.relational.database import Database, Relation, Row
from repro.relational.schema import RelationSchema

DEFAULT_ANSWER_NAME = "RQ"


def takes_parameter(function, name: str) -> bool:
    """Whether ``function`` declares a parameter called ``name``.

    The shipped query classes' ``evaluate`` takes ``extra_relations``; a
    user subclass may implement only the base
    ``evaluate(database)``.  Callers decide from the signature, never by
    catching a ``TypeError``, which the evaluation itself may raise.
    """
    try:
        return name in inspect.signature(function).parameters
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False


class Query(abc.ABC):
    """Abstract base class of every query language implementation."""

    #: Name of the answer relation ``RQ``; compatibility constraints refer to it.
    answer_name: str = DEFAULT_ANSWER_NAME

    #: Whether ``Q(D)`` is a function of the :meth:`relations_used` relations
    #: *alone*.  False (the conservative default) means evaluation may consult
    #: other parts of the database — e.g. FO quantifiers range over the full
    #: active domain, so inserting a tuple into an unrelated relation can
    #: change the answer.  Delta-driven caches (the footprint-aware
    #: compatibility oracle, the incremental view maintainers) may only skip
    #: work for modifications outside ``relations_used()`` when this is True.
    active_domain_independent: bool = False

    @property
    @abc.abstractmethod
    def output_attributes(self) -> Tuple[str, ...]:
        """Attribute names of the answer schema, in order."""

    @abc.abstractmethod
    def evaluate(self, database: Database) -> Relation:
        """Compute ``Q(D)`` as a relation named :attr:`answer_name`."""

    @abc.abstractmethod
    def relations_used(self) -> FrozenSet[str]:
        """Names of the database relations the query may read."""

    # -- shared helpers -------------------------------------------------------
    @property
    def output_arity(self) -> int:
        """Arity of the answer schema."""
        return len(self.output_attributes)

    def output_schema(self) -> RelationSchema:
        """The answer schema ``RQ``."""
        return RelationSchema(self.answer_name, self.output_attributes)

    def empty_answer(self) -> Relation:
        """An empty relation with the answer schema."""
        return Relation(self.output_schema())

    def answer_relation(self, rows: Sequence[Row]) -> Relation:
        """Materialise ``rows`` (e.g. a candidate package) under the answer schema."""
        return Relation(self.output_schema(), rows)

    def contains(self, database: Database, row: Row) -> bool:
        """The membership problem: is ``row`` in ``Q(D)``?

        The default implementation evaluates the full answer; subclasses
        override it when a cheaper check exists (e.g. SP and identity queries).
        """
        return tuple(row) in self.evaluate(database).rows()


def unique_attribute_names(raw_names: Sequence[str]) -> Tuple[str, ...]:
    """Make attribute names unique by suffixing duplicates.

    Query heads may repeat a variable or mix variables and constants; relation
    schemas need distinct attribute names, so ``x, x, 5`` becomes
    ``x, x_2, col_3``.
    """
    seen: dict = {}
    result = []
    for position, name in enumerate(raw_names, start=1):
        base = name if name else f"col_{position}"
        count = seen.get(base, 0) + 1
        seen[base] = count
        result.append(base if count == 1 else f"{base}_{count}")
    return tuple(result)
