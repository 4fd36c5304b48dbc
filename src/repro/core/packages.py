"""Packages of items.

A *package* is a finite set of items, where each item is a tuple of the answer
schema ``RQ`` of the selection query (Section 2).  Packages are immutable and
hashable so they can be collected into selections, compared for distinctness
(condition (6) of top-k selections), and used as dictionary keys by the
solvers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Optional, Sequence, Tuple

from repro.relational.database import Relation, Row
from repro.relational.errors import ModelError
from repro.relational.ordering import row_sort_key
from repro.relational.schema import RelationSchema, Value


@dataclass(frozen=True)
class Package:
    """An immutable set of items sharing one answer schema."""

    schema: RelationSchema
    items: FrozenSet[Row]

    def __init__(self, schema: RelationSchema, items: Iterable[Sequence[Value]] = ()) -> None:
        object.__setattr__(self, "schema", schema)
        validated = frozenset(schema.validate_tuple(item) for item in items)
        object.__setattr__(self, "items", validated)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def trusted(
        cls,
        schema: RelationSchema,
        items: FrozenSet[Row],
        sorted_items: Optional[Tuple[Row, ...]] = None,
    ) -> "Package":
        """A package over items that are already validated answer tuples.

        The search engine builds a package for a lattice node only when it
        yields the node or asks the oracle for its verdict; re-validating
        every tuple against the schema there would re-pay work the query
        evaluator already did once when producing ``Q(D)``.  The caller
        guarantees ``items`` is a frozenset of schema-valid plain tuples.
        ``sorted_items`` may be supplied when the caller already holds the
        items in :func:`~repro.relational.ordering.row_sort_key` order (the
        DFS extends packages in exactly that order), pre-seeding the
        :meth:`sorted_items` cache.
        """
        package = object.__new__(cls)
        object.__setattr__(package, "schema", schema)
        object.__setattr__(package, "items", items)
        if sorted_items is not None:
            object.__setattr__(package, "_sorted_items", sorted_items)
        return package

    @classmethod
    def empty(cls, schema: RelationSchema) -> "Package":
        """The empty package (usually excluded by ``cost(∅) = ∞``)."""
        return cls(schema, ())

    @classmethod
    def singleton(cls, schema: RelationSchema, item: Sequence[Value]) -> "Package":
        """A one-item package, the shape item recommendations use."""
        return cls(schema, (item,))

    # -- basic protocol ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.items)

    def __contains__(self, item: Sequence[Value]) -> bool:
        return tuple(item) in self.items

    def is_empty(self) -> bool:
        """Whether the package has no items."""
        return not self.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Package):
            return NotImplemented
        return self.items == other.items and self.schema.attribute_names == other.schema.attribute_names

    # -- access helpers ---------------------------------------------------------------
    def sorted_items(self) -> Tuple[Row, ...]:
        """Items in a deterministic order (typed sort key, computed once).

        The order is defined by :func:`~repro.relational.ordering.row_sort_key`
        — numbers numerically, strings lexicographically — rather than the
        historical ``repr`` string order, which was slow on hot paths and
        collided for distinct values with equal reprs.  The tuple is cached on
        first use; packages are immutable, so the cache can never go stale.
        """
        cached = self.__dict__.get("_sorted_items")
        if cached is None:
            cached = tuple(sorted(self.items, key=row_sort_key))
            object.__setattr__(self, "_sorted_items", cached)
        return cached

    def sort_key(self) -> Tuple:
        """A total, deterministic order over packages with one schema.

        Used as the tie-breaker wherever equal-rated packages must be ranked
        (top-k selections, heuristic beams): packages compare by their
        typed-sorted item lists, so the ordering is stable across runs and
        independent of hash seeds and of ``repr`` formatting.
        """
        return tuple(row_sort_key(item) for item in self.sorted_items())

    def column(self, attribute: str) -> Tuple[Value, ...]:
        """All values of one attribute across the items (with duplicates)."""
        index = self.schema.index_of(attribute)
        return tuple(item[index] for item in self.sorted_items())

    def value_of(self, item: Row, attribute: str) -> Value:
        """The value of ``attribute`` in a specific item of the package."""
        if item not in self.items:
            raise ModelError(f"item {item!r} is not part of the package")
        return item[self.schema.index_of(attribute)]

    def as_relation(self, name: Optional[str] = None) -> Relation:
        """Materialise the package as a relation (used for Qc evaluation)."""
        schema = self.schema if name is None else self.schema.rename(name)
        return Relation(schema, self.items)

    def union(self, other: "Package") -> "Package":
        """The union of two packages over the same schema."""
        return Package(self.schema, self.items | other.items)

    def with_item(self, item: Sequence[Value]) -> "Package":
        """A copy of the package with one extra item."""
        return Package(self.schema, set(self.items) | {tuple(item)})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Package({len(self.items)} items over {self.schema.name})"


@dataclass(frozen=True)
class Selection:
    """A candidate top-k selection: an ordered collection of packages.

    Order does not affect the semantics (a selection is a set); keeping the
    packages in rating order makes results readable and deterministic.
    """

    packages: Tuple[Package, ...]

    def __init__(self, packages: Iterable[Package]) -> None:
        object.__setattr__(self, "packages", tuple(packages))

    def __len__(self) -> int:
        return len(self.packages)

    def __iter__(self) -> Iterator[Package]:
        return iter(self.packages)

    def __contains__(self, package: Package) -> bool:
        return package in self.packages

    def distinct(self) -> bool:
        """Condition (6): packages are pairwise distinct."""
        return len(set(self.packages)) == len(self.packages)

    def as_set(self) -> FrozenSet[Package]:
        """The underlying set of packages."""
        return frozenset(self.packages)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Selection({len(self.packages)} packages)"
