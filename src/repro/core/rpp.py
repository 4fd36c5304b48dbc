"""RPP — the recommendation (decision) problem for packages.

Given a candidate set ``N = {N1, ..., Nk}``, decide whether it is a top-k
package selection for ``(Q, D, Qc, cost, val, C)``: every ``Ni`` must be a
valid package, the packages must be pairwise distinct, and no valid package
outside ``N`` may be rated strictly higher than any package inside it
(equivalently, higher than the minimum rating of ``N``).

The implementation mirrors the paper's upper-bound algorithm (Theorem 4.1):
first a validity phase, then a search for a dominating outsider.  The result
object records which phase failed and, when applicable, a counterexample
package, which the tests use to cross-check the reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from repro.core.enumeration import PackageSearchEngine
from repro.core.model import RecommendationProblem
from repro.core.packages import Package, Selection
from repro.relational.errors import ModelError


@dataclass(frozen=True)
class RPPResult:
    """Outcome of an RPP check."""

    is_top_k: bool
    reason: str
    counterexample: Optional[Package] = None
    invalid_package: Optional[Package] = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.is_top_k


def _as_selection(candidate: "Selection | Iterable[Package]") -> Selection:
    if isinstance(candidate, Selection):
        return candidate
    return Selection(candidate)


def is_top_k_selection(
    problem: RecommendationProblem,
    candidate: "Selection | Iterable[Package]",
) -> RPPResult:
    """Decide RPP for a candidate selection.

    Follows the two-phase structure of the paper's algorithm:

    1. *Validity*: ``|N| = k``, packages pairwise distinct, each package valid
       (subset of ``Q(D)``, compatible, within budget and size bound).
    2. *Optimality*: no valid package outside ``N`` has a rating strictly above
       the minimum rating of ``N``.
    """
    selection = _as_selection(candidate)
    if len(selection) != problem.k:
        return RPPResult(False, f"selection has {len(selection)} packages, expected k = {problem.k}")
    if not selection.distinct():
        return RPPResult(False, "packages are not pairwise distinct")

    candidate_items = problem.candidate_items()
    # The candidate packages come from the caller, not from ``Q(D)``: validity
    # must include the full membership scan, so it stays on the problem's
    # untrusted checker rather than the engine's fast path.
    for package in selection:
        if not problem.is_valid_package(package, candidate_items=candidate_items):
            report = problem.validity_report(package)
            failed = ", ".join(name for name, ok in report.items() if not ok)
            return RPPResult(
                False,
                f"package {package.sorted_items()} is not valid ({failed})",
                invalid_package=package,
            )

    threshold = problem.min_rating(selection)
    chosen = selection.as_set()
    engine = PackageSearchEngine(problem, candidate_items=candidate_items)
    # The rating condition is pushed into the engine (threaded incrementally
    # along the DFS, and with ``monotone_val`` cutting every subtree that
    # cannot beat the threshold); the first package it yields is exactly the
    # first dominating outsider the historical scan-then-test loop found.
    outsider = engine.first_valid(rating_bound=threshold, strict=True, exclude=chosen)
    if outsider is not None:
        return RPPResult(
            False,
            "a valid package outside the selection has a higher rating "
            f"({problem.val(outsider)} > {threshold})",
            counterexample=outsider,
        )
    return RPPResult(True, "selection is a top-k package selection")


def selection_from_items(
    problem: RecommendationProblem, packages_items: Sequence[Sequence[Sequence]]
) -> Selection:
    """Build a :class:`Selection` from raw item tuples (one list per package)."""
    return Selection(problem.package_from_items(items) for items in packages_items)
