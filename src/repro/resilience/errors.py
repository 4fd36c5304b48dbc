"""The serving error taxonomy: typed, per-request failure classes.

The paper's package-recommendation problems are intractable in general, so a
production service must expect requests that run too long, workers that fail
and commits that die mid-flight.  This module gives every such outcome a
*type*, so the serving layer can surface a per-request error
:class:`~repro.serving.server.ServeResult` instead of aborting a whole batch,
and so clients (and the chaos differential suite) can distinguish "try again"
from "this request can never succeed".

Exception classes — raised inside the serving/evaluation stack:

:class:`RequestTimeout`
    The request's :class:`~repro.resilience.deadline.Deadline` expired
    mid-evaluation.  Not retryable within the same deadline.
:class:`RequestCancelled`
    The request's cancellation token was cancelled.
:class:`ServerOverloaded`
    Admission control shed the request before it ran (bounded queue full).
    Retryable — by the client, once load drops.
:class:`RequestFailed`
    A request failed for any other reason; carries a ``retryable`` flag so
    transient infrastructure faults can be retried while deterministic
    failures (malformed request, step-limit abort) are surfaced immediately.
:class:`InjectedFault`
    A deterministic chaos fault from :mod:`repro.resilience.faults` fired at
    a registered injection point.  ``transient`` faults are retryable.

Record type — carried on error results:

:class:`ServeError` is the frozen, comparable serialisation of a classified
failure (``code`` + ``message`` + ``retryable``); :func:`classify_error` maps
any exception onto it.  Keeping the record separate from the exception means
a :class:`~repro.serving.server.ServeResult` stays a plain comparable value.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.relational.errors import ReproError, StepLimitExceeded


class ResilienceError(ReproError):
    """Base class for the serving layer's typed request failures."""


class RequestTimeout(ResilienceError):
    """A request's deadline expired before it finished evaluating."""


class RequestCancelled(ResilienceError):
    """A request's cancellation token was cancelled mid-evaluation."""


class ServerOverloaded(ResilienceError):
    """Admission control rejected the request: the bounded queue is full."""


class RequestFailed(ResilienceError):
    """A request failed; ``retryable`` marks transient infrastructure faults."""

    def __init__(self, message: str, retryable: bool = False) -> None:
        super().__init__(message)
        self.retryable = retryable


class InjectedFault(RequestFailed):
    """A deterministic chaos fault raised at a registered injection point."""

    def __init__(self, point: str, index: int, transient: bool = True) -> None:
        super().__init__(
            f"injected fault at {point!r} (hit #{index})", retryable=transient
        )
        self.point = point
        self.index = index
        self.transient = transient


#: The stable error codes a :class:`ServeError` may carry.
ERROR_CODES = ("timeout", "cancelled", "overloaded", "step_limit", "fault", "failed")


@dataclass(frozen=True)
class ServeError:
    """One classified request failure: a stable code, a message, retryability.

    ``code`` is drawn from :data:`ERROR_CODES`; ``retryable`` tells the
    server's retry loop (and clients) whether re-executing the identical
    request may succeed.
    """

    code: str
    message: str
    retryable: bool = False


def classify_error(error: BaseException) -> ServeError:
    """Map an exception onto the typed :class:`ServeError` taxonomy.

    Order matters: the specific resilience classes first, then the step
    budget (a deterministic resource abort, surfaced with its own code so
    clients can distinguish "raise the budget" from "broken request"), then
    the generic catch-all.
    """
    if isinstance(error, RequestTimeout):
        return ServeError("timeout", str(error), retryable=False)
    if isinstance(error, RequestCancelled):
        return ServeError("cancelled", str(error), retryable=False)
    if isinstance(error, ServerOverloaded):
        return ServeError("overloaded", str(error), retryable=True)
    if isinstance(error, InjectedFault):
        return ServeError("fault", str(error), retryable=error.transient)
    if isinstance(error, StepLimitExceeded):
        return ServeError("step_limit", str(error), retryable=False)
    if isinstance(error, RequestFailed):
        return ServeError("failed", str(error), retryable=error.retryable)
    return ServeError(
        "failed", f"{type(error).__name__}: {error}", retryable=False
    )
