"""Exception hierarchy shared by the whole library.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while still
being able to distinguish schema problems from query or model problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A relation or database schema is malformed or violated."""


class UnknownRelationError(SchemaError):
    """A relation name was referenced that does not exist in the database."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown relation: {name!r}")
        self.name = name


class UnknownAttributeError(SchemaError):
    """An attribute name was referenced that a relation schema does not have."""

    def __init__(self, relation: str, attribute: str) -> None:
        super().__init__(f"relation {relation!r} has no attribute {attribute!r}")
        self.relation = relation
        self.attribute = attribute


class IntegrityError(ReproError):
    """A tuple does not conform to the schema of the relation it is added to."""


class QueryError(ReproError):
    """A query is malformed (unsafe variables, bad arity, unknown predicate)."""


class EvaluationError(ReproError):
    """Query evaluation failed (e.g. resource guard tripped)."""


class ModelError(ReproError):
    """A recommendation problem specification is inconsistent."""


class StepLimitExceeded(EvaluationError):
    """A search charged more steps than its
    :class:`~repro.resilience.deadline.Deadline`'s ``max_steps``.

    Dedicated (rather than a bare :class:`EvaluationError`) so the serving
    layer's error taxonomy can map a step-budget abort to a typed per-request
    error instead of a generic failure; still an :class:`EvaluationError`
    subclass, so historical ``except EvaluationError`` guards keep working.
    """

    def __init__(self, limit: int, steps: int) -> None:
        super().__init__(
            f"evaluation exceeded the step limit of {limit} search steps"
        )
        self.limit = limit
        self.steps = steps


class SnapshotViolationError(ModelError):
    """A direct mutation hit a relation pinned by a live snapshot.

    Direct ``Relation.add``/``discard``/``clear``/``replace_rows`` calls
    bypass the copy-on-write commit path, so with a live snapshot pinning the
    relation they would silently corrupt the snapshot's frozen view; the
    snapshot-safety guard, always on, raises this instead.
    """
