"""Deadlines and cancellation tokens for bounded request evaluation.

The paper's problems are intractable in the query, so the evaluator
(:mod:`repro.queries`) and the package-lattice walks
(:mod:`repro.core.enumeration`) can run for an unbounded time on adversarial
inputs.  A :class:`Deadline` bounds one search: a wall-clock expiry, an
optional cooperative :class:`CancellationToken`, and an optional step budget.

The deadline travels *ambiently*: the serving layer wraps each request in
:func:`deadline_scope`, and the evaluation stack picks it up with
:func:`checked_deadline` at its entry points.  The scope is thread-local, so
a worker thread's deadline never leaks into a neighbour — and it is read at
entry-point *call* time, never captured at object construction, because the
long-lived :class:`~repro.core.oracle.ExistPackOracle` shares one search
engine across all requests.

With no ambient deadline every hook is a no-op (an ``is None`` test), so the
unguarded paths stay bit-identical per the knob contract.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.observability import metrics as _metrics
from repro.relational.errors import StepLimitExceeded
from repro.resilience.errors import RequestCancelled, RequestTimeout

#: How many charged steps may pass between two reads of the clock and the
#: cancellation token.  Amortises the wall-clock read; a search can overshoot
#: an expired deadline or a cancellation by at most this many steps.
_DEADLINE_FLUSH_EVERY = 128


class CancellationToken:
    """A cooperative cancellation flag shared between caller and evaluator.

    The caller keeps a reference and calls :meth:`cancel`; the evaluator
    observes it through the :class:`Deadline` it is attached to.  Backed by a
    :class:`threading.Event`, so cancelling from another thread is safe.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


class Deadline:
    """A search's one budget: wall clock, cancellation, steps.

    ``expires_at`` is a :func:`time.monotonic` instant (``None`` for no time
    bound); ``token`` an optional :class:`CancellationToken`; ``max_steps``
    an optional bound on the search steps charged via :meth:`tick`.

    It is the one search budget.  Every evaluator entry point and every
    lattice traversal reads the ambient deadline once, checks it fail-fast,
    and charges it: one step per search node entered, per candidate row
    considered, per first-order subformula checked and per lattice node.
    :meth:`tick` counts every step exactly and raises
    :class:`~repro.relational.errors.StepLimitExceeded` at the first tick
    past ``max_steps``; it reads the clock and the token only once per
    :data:`_DEADLINE_FLUSH_EVERY` charged steps, and a run that reaches its
    end calls :meth:`check` once more.  So an evaluation overshoots an
    expired deadline or a cancellation by fewer than
    :data:`_DEADLINE_FLUSH_EVERY` steps and never overshoots ``max_steps``.
    The lattice walk charges its nodes and checks every budget once per
    64-node stride (:data:`~repro.core.enumeration._DEADLINE_STRIDE`), so it
    overshoots any budget by less than one stride more; a walk that runs to
    its end re-checks, and one closed early charges its last nodes without a
    check.

    :meth:`check` raises the matching typed error the moment any budget is
    exhausted — :class:`RequestCancelled` wins over :class:`RequestTimeout`
    (a cancelled request should report cancellation even if it also timed
    out), and the step budget raises the evaluator's own
    :class:`~repro.relational.errors.StepLimitExceeded`.
    """

    __slots__ = ("expires_at", "token", "max_steps", "steps", "_next_check")

    def __init__(
        self,
        expires_at: Optional[float] = None,
        token: Optional[CancellationToken] = None,
        max_steps: Optional[int] = None,
    ) -> None:
        self.expires_at = expires_at
        self.token = token
        self.max_steps = max_steps
        self.steps = 0
        self._schedule()

    @classmethod
    def after(
        cls,
        seconds: Optional[float],
        token: Optional[CancellationToken] = None,
        max_steps: Optional[int] = None,
    ) -> "Deadline":
        """A deadline expiring ``seconds`` from now (``None`` = no time bound)."""
        expires_at = None if seconds is None else time.monotonic() + seconds
        return cls(expires_at=expires_at, token=token, max_steps=max_steps)

    def remaining(self) -> Optional[float]:
        """Seconds until expiry (may be negative), or ``None`` if unbounded."""
        if self.expires_at is None:
            return None
        return self.expires_at - time.monotonic()

    def expired(self) -> bool:
        return self.expires_at is not None and time.monotonic() >= self.expires_at

    def _schedule(self) -> None:
        """Set the step count at which :meth:`tick` next calls :meth:`check`:
        one clock-read stride on, or the first step past ``max_steps`` if sooner."""
        next_check = self.steps + _DEADLINE_FLUSH_EVERY
        if self.max_steps is not None and self.max_steps < next_check:
            next_check = self.max_steps + 1
        self._next_check = next_check

    def check(self) -> None:
        """Raise the typed error for the first exhausted budget, if any."""
        self._schedule()
        if self.token is not None and self.token.cancelled:
            raise RequestCancelled("request cancelled")
        if self.expires_at is not None and time.monotonic() >= self.expires_at:
            active = _metrics._ACTIVE
            if active is not None:
                active.inc("resilience.deadline.timeouts")
            raise RequestTimeout("request deadline expired")
        if self.max_steps is not None and self.steps > self.max_steps:
            raise StepLimitExceeded(self.max_steps, self.steps)

    def tick(self, amount: int = 1) -> None:
        """Charge ``amount`` search steps; re-check every budget once per
        clock-read stride and at the first step past ``max_steps``."""
        self.steps += amount
        if self.steps >= self._next_check:
            self.check()


_AMBIENT = threading.local()


def current_deadline() -> Optional[Deadline]:
    """The deadline of the innermost enclosing :func:`deadline_scope`, if any."""
    return getattr(_AMBIENT, "deadline", None)


def checked_deadline() -> Optional[Deadline]:
    """:func:`current_deadline`, checked fail-fast: how every evaluator entry
    point and lattice traversal reads its budget before charging it."""
    deadline = getattr(_AMBIENT, "deadline", None)
    if deadline is not None:
        deadline.check()
    return deadline


@contextmanager
def deadline_scope(deadline: Optional[Deadline]) -> Iterator[Optional[Deadline]]:
    """Install ``deadline`` as this thread's ambient deadline for the block.

    ``None`` is accepted and simply clears the ambient deadline, so callers
    can pass an optional deadline straight through.  The previous ambient
    deadline (if any) is restored on exit, making scopes nestable.
    """
    previous = getattr(_AMBIENT, "deadline", None)
    _AMBIENT.deadline = deadline
    try:
        yield deadline
    finally:
        _AMBIENT.deadline = previous
