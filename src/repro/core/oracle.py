"""The EXISTPACK≥ oracle of Theorem 5.1.

``EXISTPACK≥(Q, D, Qc, cost, val, C, N, v)`` answers whether there exists a
valid package ``N ⊆ Q(D)`` with ``val(N) ≥ v`` that differs from every package
already in the partial selection ``N``.  In the paper this is a Σ₂ᵖ oracle;
here it is a deterministic search that also returns a witness.  The class
keeps a call counter so that benchmarks can report "number of oracle calls" —
the machine-independent cost measure the paper's FP^NP / FP^Σ₂ᵖ upper bounds
are stated in.

The oracle owns one :class:`~repro.core.enumeration.PackageSearchEngine` over
the problem's candidate pool
(:meth:`~repro.core.model.RecommendationProblem.candidate_pool`): the binary
search of the Theorem 5.1 solver issues many calls against the same ``Q(D)``,
and sharing the engine pays its setup once, not per call.  The pool itself
is the problem's, so the oracle and every other solver call on the same
problem and epoch share one evaluation and one sort of ``Q(D)``.

``candidate_items`` is captured at construction and never refreshed, so an
oracle built over a *live* database silently answers as of its construction
time once the database mutates (the problem's pool moves on; the oracle's
engine does not).  Under snapshot isolation that pitfall disappears: build
the oracle over a pinned problem
(:meth:`~repro.core.model.RecommendationProblem.pinned`) and the captured
pool *provably* equals the pinned epoch's ``Q(D)`` forever — the serving
layer (:mod:`repro.serving`) relies on this to share one oracle between all
readers of an epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.enumeration import PackageSearchEngine
from repro.core.model import RecommendationProblem
from repro.core.packages import Package
from repro.relational.database import Relation


@dataclass
class ExistPackOracle:
    """A callable oracle bound to one recommendation problem."""

    problem: RecommendationProblem
    calls: int = 0
    candidate_items: Optional[Relation] = field(default=None, repr=False)
    _engine: Optional[PackageSearchEngine] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.candidate_items is None:
            self.candidate_items = self.problem.candidate_items()
        self._engine = PackageSearchEngine(self.problem, candidate_items=self.candidate_items)

    @property
    def engine(self) -> PackageSearchEngine:
        """The shared search engine over the oracle's ``Q(D)`` snapshot."""
        return self._engine

    def __call__(
        self,
        rating_bound: float,
        exclude: Iterable[Package] = (),
        strict: bool = False,
    ) -> Optional[Package]:
        """A valid package with ``val ≥ rating_bound`` (or ``>``) outside ``exclude``."""
        self.calls += 1
        return self._engine.first_valid(
            rating_bound=rating_bound, strict=strict, exclude=exclude
        )

    def exists(self, rating_bound: float, exclude: Iterable[Package] = (), strict: bool = False) -> bool:
        """The Boolean answer of the paper's oracle (discarding the witness)."""
        return self(rating_bound, exclude=exclude, strict=strict) is not None

    def reset_counter(self) -> None:
        """Reset the call counter (benchmarks call this between measurements)."""
        self.calls = 0
