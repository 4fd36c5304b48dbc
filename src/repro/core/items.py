"""Item recommendations — the degenerate case of package recommendations.

A top-k item selection for ``(Q, D, f)`` is a set of k distinct tuples of
``Q(D)`` whose utilities are the k highest (Section 2).  The functions here
solve the item problems directly (a sort of ``Q(D)`` by utility) and also via
the package embedding, which the tests compare against each other — that
equivalence is exactly the paper's "item selections are a special case of
package selections" claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.core.frp import compute_top_k
from repro.core.model import RecommendationProblem, item_recommendation_problem
from repro.core.packages import Package, Selection
from repro.queries.base import Query
from repro.relational.database import Database, Row
from repro.relational.ordering import row_sort_key


@dataclass(frozen=True)
class ItemSelectionResult:
    """Outcome of a top-k item computation."""

    items: Optional[Tuple[Row, ...]]
    utilities: Tuple[float, ...] = ()

    @property
    def found(self) -> bool:
        """Whether a top-k item selection exists (|Q(D)| ≥ k)."""
        return self.items is not None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.found


def top_k_items(
    database: Database, query: Query, utility: Callable[[Row], float], k: int
) -> ItemSelectionResult:
    """Compute a top-k item selection directly (sort ``Q(D)`` by utility).

    Utility ties are broken by :func:`~repro.relational.ordering.row_sort_key`,
    the order the package embedding breaks them in, so the two agree.
    """
    answers = sorted(
        query.evaluate(database).rows(), key=lambda row: (-utility(row), row_sort_key(row))
    )
    if len(answers) < k:
        return ItemSelectionResult(None)
    chosen = tuple(answers[:k])
    return ItemSelectionResult(chosen, tuple(utility(row) for row in chosen))


def top_k_items_via_packages(
    database: Database, query: Query, utility: Callable[[Row], float], k: int
) -> ItemSelectionResult:
    """Compute a top-k item selection through the package embedding of Section 2."""
    problem = item_recommendation_problem(database, query, utility, k=k)
    result = compute_top_k(problem)
    if result.selection is None:
        return ItemSelectionResult(None)
    items = []
    for package in result.selection:
        (item,) = package.items
        items.append(item)
    return ItemSelectionResult(tuple(items), result.ratings)


def is_top_k_item_selection(
    database: Database,
    query: Query,
    utility: Callable[[Row], float],
    candidate: Sequence[Row],
) -> bool:
    """RPP restricted to items: is ``candidate`` a top-k item selection?"""
    candidate = [tuple(row) for row in candidate]
    chosen = set(candidate)
    if len(chosen) != len(candidate):
        return False
    answers = query.evaluate(database).rows()
    if not all(row in answers for row in candidate):
        return False
    threshold = min(utility(row) for row in candidate)
    return all(utility(row) <= threshold for row in answers if row not in chosen)


def maximum_item_bound(
    database: Database, query: Query, utility: Callable[[Row], float], k: int
) -> Optional[float]:
    """MBP restricted to items: the k-th highest utility of ``Q(D)``, if defined."""
    utilities = sorted((utility(row) for row in query.evaluate(database).rows()), reverse=True)
    if len(utilities) < k:
        return None
    return utilities[k - 1]


def count_items_above(
    database: Database, query: Query, utility: Callable[[Row], float], bound: float
) -> int:
    """CPP restricted to items: how many tuples of ``Q(D)`` have utility ≥ bound?"""
    return sum(1 for row in query.evaluate(database).rows() if utility(row) >= bound)
