"""CPP — the counting problem: how many valid packages are rated ≥ B?

A package ``N`` is *valid for* ``(Q, D, Qc, cost, val, C, B)`` when
``N ⊆ Q(D)``, ``Qc(N, D) = ∅``, ``cost(N) ≤ C`` and ``val(N) ≥ B`` with
``|N|`` within the size bound.  CPP asks for the number of such packages.

The solver enumerates candidates; its complexity tracks the paper's #·coNP /
#·NP (combined) and #·P (data) classifications — exponential in ``|Q(D)|``
for polynomially bounded packages, polynomial for a constant bound
(Corollary 6.1 gives FP there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.core.enumeration import PackageSearchEngine
from repro.core.model import RecommendationProblem


@dataclass(frozen=True)
class CPPResult:
    """Outcome of a CPP computation."""

    count: int
    rating_bound: float
    by_size: Tuple[Tuple[int, int], ...] = ()

    def __int__(self) -> int:  # pragma: no cover - convenience
        return self.count


def count_valid_packages(
    problem: RecommendationProblem,
    rating_bound: float,
) -> CPPResult:
    """Count the packages valid for ``(Q, D, Qc, cost, val, C, B)``.

    The per-size histogram in the result is not part of the paper's problem
    statement but is cheap to produce and useful both in tests (it must sum to
    the count) and in the benchmark report (it shows where the mass of valid
    packages sits).

    The count tallies the nodes the engine's lattice walk admits: no
    package object survives the node it was built for.
    """
    engine = PackageSearchEngine(problem)
    total, histogram = engine.count_valid(rating_bound=rating_bound, by_size=True)
    return CPPResult(
        count=total,
        rating_bound=rating_bound,
        by_size=tuple(sorted(histogram.items())),
    )


def count_all_valid_packages(problem: RecommendationProblem) -> int:
    """Count the valid packages with no rating bound (B = -∞)."""
    return PackageSearchEngine(problem).count_valid()
