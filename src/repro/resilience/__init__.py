"""Resilience primitives threaded through every layer of the stack.

Three small modules:

- :mod:`~repro.resilience.errors` — the typed per-request error taxonomy
  (:class:`RequestTimeout`, :class:`RequestFailed`, :class:`ServerOverloaded`,
  …) plus :func:`classify_error`, which maps any exception onto a frozen
  :class:`ServeError` record for error ``ServeResult``\\ s.
- :mod:`~repro.resilience.deadline` — per-request :class:`Deadline` budgets
  (wall clock / cancellation / steps) carried ambiently via
  :func:`deadline_scope` and charged by every evaluator entry point and
  every package-lattice traversal: the one search budget.
- :mod:`~repro.resilience.faults` — the deterministic chaos harness:
  seeded :class:`FaultPlan`\\ s that raise :class:`InjectedFault` at
  registered injection points, all-off bit-identical.
"""

from repro.resilience.deadline import (
    CancellationToken,
    Deadline,
    current_deadline,
    deadline_scope,
)
from repro.resilience.errors import (
    ERROR_CODES,
    InjectedFault,
    RequestCancelled,
    RequestFailed,
    RequestTimeout,
    ResilienceError,
    ServeError,
    ServerOverloaded,
    classify_error,
)
from repro.resilience.faults import (
    FAULT_POINTS,
    FaultPlan,
    FaultRule,
    chaos,
    fault_point,
    register_fault_point,
)

__all__ = [
    "CancellationToken",
    "Deadline",
    "current_deadline",
    "deadline_scope",
    "ERROR_CODES",
    "InjectedFault",
    "RequestCancelled",
    "RequestFailed",
    "RequestTimeout",
    "ResilienceError",
    "ServeError",
    "ServerOverloaded",
    "classify_error",
    "FAULT_POINTS",
    "FaultPlan",
    "FaultRule",
    "chaos",
    "fault_point",
    "register_fault_point",
]
