"""QRPP — query relaxation recommendations (Section 7.2).

Given a recommendation problem whose selection query finds no (or not enough)
highly rated packages, QRPP asks whether a relaxation ``QΓ`` of the selection
query with ``gap(QΓ) ≤ g`` admits k distinct valid packages rated ≥ B.

:func:`find_package_relaxation` searches the relaxation space in order of
increasing gap and returns the *first* (hence minimum-gap) relaxation that
works, together with witnesses; :func:`qrpp_decision` is the paper's decision
problem.  The item variants restrict packages to singletons rated by a
utility function, which is the case whose data complexity drops to PTIME
(Corollary 7.3).

The relaxed problems are derived with
:meth:`~repro.core.model.RecommendationProblem.with_query`, which shares the
parent problem's memoized compatibility oracle: ``Qc`` and ``D`` do not change
across relaxations, so a package judged (in)compatible under one relaxed query
is never re-checked under another.

For *evolving* databases, :class:`~repro.incremental.streaming.StreamingQRPP`
keeps this search live across a stream of modifications — each relaxed
``QΓ(D)`` is incrementally maintained instead of re-evaluated — and the
incremental differential suite pins it to the from-scratch functions below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.core.enumeration import find_k_witnesses
from repro.core.model import RecommendationProblem
from repro.core.packages import Selection
from repro.relational.database import Row
from repro.relaxation.relax import Relaxation, RelaxationSpace, RelaxedQuery


@dataclass(frozen=True)
class QRPPResult:
    """Outcome of a relaxation search."""

    found: bool
    relaxation: Optional[Relaxation] = None
    relaxed_query: Optional[RelaxedQuery] = None
    witnesses: Optional[Selection] = None
    relaxations_tried: int = 0

    @property
    def gap(self) -> Optional[float]:
        """The gap of the found relaxation (``None`` when nothing was found)."""
        return self.relaxation.gap() if self.relaxation is not None else None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.found


def find_package_relaxation(
    problem: RecommendationProblem,
    space: RelaxationSpace,
    rating_bound: float,
    max_gap: float,
    include_trivial: bool = True,
) -> QRPPResult:
    """Search for a minimum-gap relaxation admitting k valid packages rated ≥ B.

    Relaxations are enumerated up to D-equivalence in order of increasing gap,
    so the first hit is gap-minimal.  ``include_trivial`` controls whether the
    un-relaxed query itself (gap 0) counts — the paper poses QRPP when the
    original query fails, but keeping the trivial relaxation in the search
    makes the function also answer "was relaxation even necessary?".
    """
    tried = 0
    for relaxation in space.enumerate_relaxations(
        problem.database, max_gap, include_trivial=include_trivial
    ):
        tried += 1
        relaxed_query = space.relax(relaxation)
        relaxed_problem = problem.with_query(relaxed_query)
        # Each relaxed problem gets its own engine over its own Q(D), but the
        # compatibility oracle underneath is the one shared across relaxations
        # via with_query.  Its witness index, built once, serves packages
        # within the first Q(D) it was asked about; the memo serves the rest,
        # so verdict reuse spans the whole search.
        witnesses = find_k_witnesses(relaxed_problem, rating_bound)
        if witnesses is not None:
            return QRPPResult(
                True,
                relaxation=relaxation,
                relaxed_query=relaxed_query,
                witnesses=witnesses,
                relaxations_tried=tried,
            )
    return QRPPResult(False, relaxations_tried=tried)


def qrpp_decision(
    problem: RecommendationProblem,
    space: RelaxationSpace,
    rating_bound: float,
    max_gap: float,
) -> bool:
    """The QRPP decision problem: does *some* relaxation within the gap budget work?"""
    return find_package_relaxation(problem, space, rating_bound, max_gap).found


# ---------------------------------------------------------------------------
# The item special case (Corollary 7.3)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ItemQRPPResult:
    """Outcome of an item-level relaxation search."""

    found: bool
    relaxation: Optional[Relaxation] = None
    relaxed_query: Optional[RelaxedQuery] = None
    items: Tuple[Row, ...] = ()
    relaxations_tried: int = 0

    @property
    def gap(self) -> Optional[float]:
        return self.relaxation.gap() if self.relaxation is not None else None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.found


def find_item_relaxation(
    problem_database,
    space: RelaxationSpace,
    utility: Callable[[Row], float],
    rating_bound: float,
    k: int,
    max_gap: float,
) -> ItemQRPPResult:
    """QRPP for items: find a minimum-gap relaxation with k items of utility ≥ B.

    For a fixed query this runs in polynomial time in the data: there are
    polynomially many relaxations up to D-equivalence and each check is a scan
    of the relaxed answer (Corollary 7.3).
    """
    tried = 0
    for relaxation in space.enumerate_relaxations(problem_database, max_gap):
        tried += 1
        relaxed_query = space.relax(relaxation)
        answers = [
            row
            for row in relaxed_query.evaluate(problem_database).rows()
            if utility(row) >= rating_bound
        ]
        if len(answers) >= k:
            answers.sort(key=lambda row: (-utility(row), repr(row)))
            return ItemQRPPResult(
                True,
                relaxation=relaxation,
                relaxed_query=relaxed_query,
                items=tuple(answers[:k]),
                relaxations_tried=tried,
            )
    return ItemQRPPResult(False, relaxations_tried=tried)
