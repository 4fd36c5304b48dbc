"""EXPLAIN ANALYZE: execute a plan and annotate each step with actuals.

:func:`explain_analyze` compiles a conjunction exactly the way
:func:`repro.queries.bindings.enumerate_bindings` would, executes it with a
:class:`StepProfile` attached, and renders each
:class:`~repro.queries.plan.PlannedAtom` (or the
:class:`~repro.queries.plan.PlannedMultiway` levels) with the rows the step
*actually* surfaced and the time it consumed next to the planner's estimate
— the first direct view of cost-model error.

This module imports the query layer, so it is deliberately **not** imported
by ``repro.observability.__init__`` — the metrics/tracing modules must stay
importable from the bottom of the stack without a cycle.  Import it as
``from repro.observability.explain import explain_analyze``.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.queries.ast import Comparison, RelationAtom
from repro.queries.bindings import enumerate_bindings, resolve_plan
from repro.queries.plan import JoinPlan


class StepProfile:
    """Per-step actuals collected by the executor during one evaluation.

    The executor calls the hooks below from its hot loop; they are plain
    attribute mutations, cheap enough that the measured evaluation remains
    representative.  Binary steps are profiled by plan depth, the multiway
    leapfrog branch by variable level; ``mode`` records which branch ran.

    Timing attribution: :meth:`candidate` charges the wall-clock elapsed
    since the *previous* recorded event to the step that surfaced the
    current row, so the per-step seconds sum to the total enumeration time
    (including time spent inside downstream steps' generators is charged to
    the step that resumed them — the conventional EXPLAIN ANALYZE
    inclusive/exclusive compromise for pipelined executors).
    """

    def __init__(self, size: int) -> None:
        self.candidates = [0] * size
        self.matches = [0] * size
        self.seconds = [0.0] * size
        self.access_kinds: Dict[int, str] = {}
        self.multiway_mode = False
        self.level_candidates: List[int] = []
        self.level_matches: List[int] = []
        self.level_names: Tuple[str, ...] = ()
        self._last = perf_counter()

    # -- binary-branch hooks ------------------------------------------------
    def access(self, depth: int, kind: str) -> None:
        """Record the access path a step actually took (scan/probe/range/…)."""
        self.access_kinds[depth] = kind

    def candidate(self, depth: int) -> None:
        """A row surfaced at ``depth``; charge elapsed time to that step."""
        now = perf_counter()
        self.seconds[depth] += now - self._last
        self._last = now
        self.candidates[depth] += 1

    def match(self, depth: int) -> None:
        """The last candidate at ``depth`` matched the atom."""
        self.matches[depth] += 1

    # -- multiway-branch hooks ----------------------------------------------
    def mode(self, var_order: Tuple[str, ...]) -> None:
        """The leapfrog branch ran; profile per variable level instead."""
        self.multiway_mode = True
        self.level_names = var_order
        self.level_candidates = [0] * len(var_order)
        self.level_matches = [0] * len(var_order)

    def level_candidate(self, level: int) -> None:
        self.level_candidates[level] += 1

    def level_match(self, level: int) -> None:
        self.level_matches[level] += 1


@dataclass(frozen=True)
class ExplainResult:
    """The outcome of one EXPLAIN ANALYZE run."""

    plan: JoinPlan
    profile: StepProfile
    answer_count: int
    elapsed_s: float

    def render(self) -> str:
        """Actual-vs-estimated, one line per executed plan step."""
        lines: List[str] = []
        profile = self.profile
        if profile.multiway_mode and self.plan.multiway is not None:
            multiway = self.plan.multiway
            lines.append(
                f"multiway leapfrog (est ≈ {multiway.estimated_answers:.0f} answers, "
                f"actual {self.answer_count} answers)"
            )
            for level, name in enumerate(profile.level_names):
                lines.append(
                    f"  level {name}: {profile.level_candidates[level]} candidates "
                    f"→ {profile.level_matches[level]} advanced"
                )
        else:
            for depth, step in enumerate(self.plan.steps):
                estimate = (
                    f"est ≈ {step.estimated_rows:.1f} rows"
                    if step.estimated_rows is not None
                    else "est n/a"
                )
                kind = profile.access_kinds.get(depth, "not reached")
                lines.append(
                    f"{step.describe()}  [{kind}]  ({estimate}, "
                    f"actual {profile.candidates[depth]} candidates "
                    f"→ {profile.matches[depth]} matches, "
                    f"{profile.seconds[depth] * 1000.0:.3f} ms)"
                )
        lines.append(
            f"answers: {self.answer_count}  total: {self.elapsed_s * 1000.0:.3f} ms"
        )
        return "\n".join(lines)


def explain_analyze(
    database,
    relation_atoms: Sequence[RelationAtom],
    comparisons: Sequence[Comparison] = (),
    *,
    plan: Optional[JoinPlan] = None,
) -> ExplainResult:
    """Execute a conjunction with per-step profiling and return the actuals.

    Without a ``plan`` it is resolved by the code :func:`enumerate_bindings`
    uses (:func:`~repro.queries.bindings.resolve_plan`: statistics gathered
    when every relation provides them, served from the plan cache), so the
    profiled execution is the production execution — not a parallel code
    path that could drift.
    """
    if plan is None:
        plan = resolve_plan(database, relation_atoms, comparisons)
    profile = StepProfile(len(plan.steps))
    started = perf_counter()
    answers = list(
        enumerate_bindings(
            database,
            relation_atoms,
            comparisons,
            plan=plan,
            step_profile=profile,
        )
    )
    elapsed = perf_counter() - started
    return ExplainResult(plan, profile, len(answers), elapsed)
