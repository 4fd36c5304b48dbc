"""Snapshot-isolated serving: batched reads over pinned epochs, one writer.

The PR 1–5 stack answers one request at a time over a mutable
:class:`~repro.relational.database.Database`.  This module turns it into a
*service*: N recommendation requests in, N package answers out, while a
writer keeps committing :meth:`~repro.relational.database.Database.apply_delta`
batches.  Two server implementations share one request vocabulary:

:class:`SnapshotServer`
    The MVCC front end.  Readers never touch the live database: the server
    pins one :meth:`~repro.core.model.RecommendationProblem.pinned` problem
    per epoch and shares it — and everything warmed through it (the memoized
    compatibility verdicts, the :class:`~repro.core.oracle.ExistPackOracle`'s
    sorted candidate pool) — between every reader of that epoch.  Because a
    pinned epoch is immutable, answers are also *memoizable*: identical
    requests within an epoch are computed once and the answer is re-served,
    which is where most of the measured throughput win comes from (see
    ``benchmarks/bench_serving.py``).  A commit simply makes the next request
    pin a fresh epoch; in-flight requests finish on the old one.  The one
    structure an epoch hands on is its ``Qc`` witness index, which the next
    epoch's oracle advances by the ``Q(D)`` row diff instead of rebuilding.

:class:`GlobalLockServer`
    The pre-MVCC baseline, retained as the reference: one lock serialises
    every request *and* every commit against the shared live database, and
    each request rebuilds its problem state from scratch — over a mutable
    database neither verdicts nor whole answers can be soundly reused across
    requests, because any commit in between would have invalidated them.

Both servers answer through the same pure :func:`execute_request`, so the
tests can re-execute any request serially against a
:meth:`~repro.relational.database.Database.copy` of the pinned epoch and
demand bit-identical answers (ties included).

Requests are canonical, hashable values (:class:`ServeRequest`) and answers
are plain comparable tuples, so results can be deduplicated, memoized and
asserted on without knowing the solver result types.

Failures are *per request* (PR 7): a raising request yields a
:class:`ServeResult` carrying a typed
:class:`~repro.resilience.errors.ServeError` instead of aborting its whole
batch, on both servers.  A :class:`ResilienceConfig` additionally arms the
snapshot server with per-request deadlines/step budgets (honoured deep
inside the evaluator and the lattice DFS via the ambient
:func:`~repro.resilience.deadline.deadline_scope`), bounded-admission load
shedding, and retry-with-backoff for transiently failed requests.  With no
config the server behaves exactly as before — same answers, same epochs.

A :class:`~repro.durability.DurabilityConfig` (PR 9) additionally makes the
snapshot server's writes survive the process: ``apply`` appends each commit
to a write-ahead log and returns only after the record is fsynced — the
return is the durability ack — with optional periodic checkpoints from
pinned snapshots.  ``durability=None`` (the default) is bit-identical
in-memory serving; ``repro recover`` rebuilds the database after a crash.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core import (
    ExistPackOracle,
    RecommendationProblem,
    compute_top_k,
    count_valid_packages,
    is_top_k_selection,
    selection_from_items,
)
from repro.observability import metrics as _metrics
from repro.observability import tracing as _tracing
from repro.observability.summary import latency_percentiles  # noqa: F401 (re-export)
from repro.observability.tracing import Span, TraceSampler
from repro.resilience import (
    Deadline,
    ServeError,
    ServerOverloaded,
    classify_error,
    deadline_scope,
    fault_point,
)

Row = Tuple[Any, ...]
Answer = Tuple[Any, ...]

#: The request kinds the servers understand, mapping 1:1 onto the paper's
#: problems: FRP (``top_k``), the EXISTPACK≥ oracle (``exists``), CPP
#: (``count``) and RPP (``check``).
REQUEST_KINDS = ("top_k", "exists", "count", "check")


@dataclass(frozen=True)
class ServeRequest:
    """One recommendation request, canonicalised so it is hashable.

    ``selection_items`` (for ``check``) is a tuple of packages, each a tuple
    of item rows — the raw-tuple form
    :func:`~repro.core.rpp.selection_from_items` accepts.
    """

    kind: str
    rating_bound: Optional[float] = None
    strict: bool = False
    selection_items: Optional[Tuple[Tuple[Row, ...], ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}; expected one of {REQUEST_KINDS}")
        if self.kind in ("exists", "count") and self.rating_bound is None:
            raise ValueError(f"a {self.kind!r} request needs a rating_bound")
        if self.kind == "check" and self.selection_items is None:
            raise ValueError("a 'check' request needs selection_items")
        if self.selection_items is not None:
            canonical = tuple(
                tuple(tuple(item) for item in package) for package in self.selection_items
            )
            object.__setattr__(self, "selection_items", canonical)

    # -- constructors -------------------------------------------------------
    @classmethod
    def top_k(cls) -> "ServeRequest":
        """FRP: the top-k package selection of the problem."""
        return cls("top_k")

    @classmethod
    def exists(cls, rating_bound: float, strict: bool = False) -> "ServeRequest":
        """EXISTPACK≥: is there a valid package rated ≥ (or >) the bound?"""
        return cls("exists", rating_bound=rating_bound, strict=strict)

    @classmethod
    def count(cls, rating_bound: float) -> "ServeRequest":
        """CPP: how many valid packages are rated ≥ the bound?"""
        return cls("count", rating_bound=rating_bound)

    @classmethod
    def check(cls, selection_items: Iterable[Iterable[Row]]) -> "ServeRequest":
        """RPP: is this candidate selection really a top-k selection?"""
        return cls(
            "check",
            selection_items=tuple(tuple(package) for package in selection_items),
        )

    def describe(self) -> str:
        if self.kind == "top_k":
            return "top_k"
        if self.kind == "exists":
            op = ">" if self.strict else "≥"
            return f"exists(val {op} {self.rating_bound})"
        if self.kind == "count":
            return f"count(val ≥ {self.rating_bound})"
        return f"check({len(self.selection_items)} packages)"


@dataclass(frozen=True)
class ServeResult:
    """One answered request: the canonical answer plus serving metadata.

    Exactly one of ``answer`` / ``error`` is meaningful: a successful result
    carries the canonical answer tuple and ``error is None``; a failed one
    carries ``answer is None`` and the typed
    :class:`~repro.resilience.errors.ServeError`.  ``attempts`` counts
    executions (1 with retries off; 0 for a request shed by admission
    control, which never ran).

    ``trace`` carries the request's finished
    :class:`~repro.observability.tracing.Span` tree when the server's
    sampler selected it (``None`` otherwise, and always ``None`` with
    tracing off).  It is serving *metadata*, not part of the answer:
    excluded from equality and repr so traced and untraced results over one
    epoch still compare equal — the on/off differential suite relies on
    exactly that.
    """

    request: ServeRequest
    answer: Optional[Answer]
    epoch: int
    latency_s: float
    error: Optional[ServeError] = None
    attempts: int = 1
    trace: Optional[Span] = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        """Whether the request produced an answer (no error)."""
        return self.error is None


@dataclass(frozen=True)
class ResilienceConfig:
    """The snapshot server's resilience knobs; all off (``None``/0) ≡ PR 6.

    ``deadline_s`` / ``max_steps`` bound each request's wall clock / search
    steps (one shared budget across its retries), enforced inside the
    evaluator and the lattice DFS through the ambient deadline;
    ``max_inflight`` caps concurrently executing requests, shedding the rest
    with a retryable ``overloaded`` error; ``max_retries`` re-executes a
    request whose classified error is retryable (an injected transient
    fault, never a timeout), sleeping ``retry_backoff_s * 2**attempt``
    (capped by the remaining deadline) between attempts.
    """

    deadline_s: Optional[float] = None
    max_steps: Optional[int] = None
    max_inflight: Optional[int] = None
    max_retries: int = 0
    retry_backoff_s: float = 0.0


def execute_request(
    problem: RecommendationProblem,
    request: ServeRequest,
    oracle: Optional[ExistPackOracle] = None,
) -> Answer:
    """Answer one request against one problem; pure, no shared state touched.

    This is the single semantics both servers (and the tests' serial
    re-execution) go through.  Answers are canonical tuples built from sorted
    item rows, so two executions agree exactly iff the underlying solver
    results agree — including rating ties, which surface as the same chosen
    packages because the search engine is deterministic over a fixed epoch.

    ``oracle`` optionally supplies a shared
    :class:`~repro.core.oracle.ExistPackOracle` for ``exists`` requests so a
    server builds one search engine per epoch for them; semantics are
    identical to a fresh oracle as long as the oracle was built over
    ``problem``.
    """
    if request.kind == "top_k":
        result = compute_top_k(problem)
        if result.selection is None:
            return ("top_k", None, ())
        return (
            "top_k",
            tuple(package.sorted_items() for package in result.selection),
            result.ratings,
        )
    if request.kind == "exists":
        if oracle is None:
            oracle = ExistPackOracle(problem)
        witness = oracle(request.rating_bound, strict=request.strict)
        return (
            "exists",
            witness is not None,
            witness.sorted_items() if witness is not None else None,
        )
    if request.kind == "count":
        result = count_valid_packages(problem, rating_bound=request.rating_bound)
        return ("count", result.count)
    candidate = selection_from_items(problem, request.selection_items)
    result = is_top_k_selection(problem, candidate)
    return ("check", result.is_top_k, result.reason)


def _finalize_result(result: ServeResult, root: Optional[Span]) -> ServeResult:
    """Account one finished request and attach its trace, if sampled.

    The single exit point of both servers' request paths: registry updates
    are inline-guarded (metrics off costs one attribute load), and the trace
    attaches through :func:`dataclasses.replace` on the ``compare=False``
    field, so the result's identity-bearing fields are byte-identical to an
    uninstrumented run.
    """
    active = _metrics._ACTIVE
    if active is not None:
        active.inc("serving.requests")
        active.observe("serving.latency_s", result.latency_s)
        if result.error is not None:
            active.inc("serving.errors", label=result.error.code)
            if result.error.code == "overloaded" and result.attempts == 0:
                active.inc("serving.sheds")
        if result.attempts > 1:
            active.inc("serving.retries", result.attempts - 1)
    if root is None:
        return result
    root.attributes.setdefault("epoch", result.epoch)
    root.attributes.setdefault("ok", result.ok)
    root.finish()
    return replace(result, trace=root)


#: How many answers one epoch's memo keeps.  Least recently used answers
#: beyond it are evicted, so a long read-only epoch serving many distinct
#: CHECK requests holds a bounded memo.  A constant, not a knob.
EPOCH_MEMO_LIMIT = 256


class _EpochContext:
    """Everything the readers of one pinned epoch share.

    One pinned problem (hence one memoized
    :class:`~repro.core.compatibility.CompatibilityOracle` whose verdicts can
    never be invalidated — the pinned relations' versions are frozen), one
    :class:`~repro.core.oracle.ExistPackOracle` whose captured pool provably
    equals the epoch's ``Q(D)``, and one answer memo, an LRU of at most
    :data:`EPOCH_MEMO_LIMIT` answers.  All of it is safe to share across
    threads *because* the epoch is immutable; the only lock is around the
    memo, never around solver work.

    The compatibility oracle starts empty, but is offered the ``previous``
    epoch's finished witness index
    (:meth:`~repro.core.compatibility.CompatibilityOracle.inherit`): its
    first verdict then advances that index by the ``Q(D)`` row diff instead
    of running the join again, and drops it.  Nothing else of the previous
    epoch is kept.
    """

    __slots__ = ("problem", "oracle", "epoch", "_memo", "_lock")

    def __init__(
        self, pinned: RecommendationProblem, previous: Optional["_EpochContext"] = None
    ) -> None:
        self.problem = pinned
        if previous is not None:
            pinned.compatibility_oracle().inherit(previous.problem.compatibility_oracle())
        self.oracle = ExistPackOracle(pinned)
        self.epoch = pinned.database.epoch
        self._memo: "OrderedDict[ServeRequest, Answer]" = OrderedDict()
        self._lock = threading.Lock()

    def answer(self, request: ServeRequest) -> Answer:
        with self._lock:
            cached = self._memo.get(request)
            if cached is not None:
                self._memo.move_to_end(request)
        active = _metrics._ACTIVE
        if cached is not None:
            if active is not None:
                active.inc("serving.memo.hits")
            return cached
        # Compute outside the lock: two racing threads may duplicate work on
        # the same request, never corrupt it (the epoch is immutable, so both
        # compute the identical answer and setdefault keeps exactly one).
        answer = execute_request(self.problem, request, oracle=self.oracle)
        with self._lock:
            answer = self._memo.setdefault(request, answer)
            evict = len(self._memo) > EPOCH_MEMO_LIMIT
            if evict:
                self._memo.popitem(last=False)
        if evict and active is not None:
            active.inc("serving.memo.evictions")
        return answer


class SnapshotServer:
    """The MVCC serving front end: batched readers, one concurrent writer.

    Readers resolve every request against the epoch current when the request
    starts executing; the writer commits through :meth:`apply` without ever
    blocking them.  ``serve_batch`` deduplicates identical requests up front
    (sound because every answer is tagged with the immutable epoch it was
    computed against) and fans the unique ones out over a thread pool.

    A failing request never takes its batch down: the worker classifies the
    exception and returns an error :class:`ServeResult`.  Error results are
    never memoized (the per-epoch memo only ever sees computed answers), but
    batch deduplication *does* share one error result across duplicate
    requests — within a batch the duplicates would have failed identically.
    An optional :class:`ResilienceConfig` adds deadlines, admission control
    and retries on top; ``resilience=None`` serves exactly as PR 6 did.
    """

    def __init__(
        self,
        problem: RecommendationProblem,
        max_workers: int = 8,
        resilience: Optional[ResilienceConfig] = None,
        tracing: Optional[TraceSampler] = None,
        durability=None,
    ) -> None:
        self._template = problem
        self._database = problem.database
        self._max_workers = max_workers
        self._guard = threading.Lock()
        self._context: Optional[_EpochContext] = None
        self._resilience = resilience
        self._tracing = tracing
        self._admission_lock = threading.Lock()
        self._inflight = 0
        #: Durability knob (a :class:`~repro.durability.DurabilityConfig`):
        #: when set, the database gets a WAL attached at construction and
        #: every :meth:`apply` return is a post-fsync durability ack.
        #: ``None`` (the default) is the knob-contract off position — no
        #: durability import, no log, bit-identical serving.
        self._durability = durability
        self._wal = None
        self._commits_since_checkpoint = 0
        #: Auto-checkpoints run on a background thread (at most one in
        #: flight; the lock also serialises explicit :meth:`checkpoint`
        #: calls against it) so the writer's ``apply`` never absorbs the
        #: image-serialization latency.  A failed background checkpoint
        #: stores its error here and :meth:`close` re-raises it — the
        #: durable state stays consistent either way (old image intact, log
        #: untruncated), so only compaction was lost.
        self._checkpoint_lock = threading.Lock()
        self._checkpoint_thread: Optional[threading.Thread] = None
        self._checkpoint_error: Optional[BaseException] = None
        if durability is not None:
            from repro.durability import open_durable

            # open_durable refuses a directory whose durable epoch does not
            # match this database (attaching anything but the recovered
            # state would fork the history); the caller sees the raise
            # instead of silently losing acked commits on the next recovery.
            self._wal = open_durable(
                self._database,
                durability.directory,
                group_commit=durability.group_commit,
            )

    @property
    def problem(self) -> RecommendationProblem:
        """The live problem template requests are pinned from."""
        return self._template

    @property
    def database(self):
        """The live database the writer commits to."""
        return self._database

    @property
    def wal(self):
        """The attached write-ahead log, or ``None`` (durability off)."""
        return self._wal

    @property
    def epoch(self) -> int:
        return self._database.epoch

    def _current_context(self) -> _EpochContext:
        """The shared context for the current epoch, pinning one if stale.

        Pinning happens under the guard so exactly one thread warms each
        epoch; ``Database.snapshot()`` itself serialises against commits, so
        the pinned epoch is always a consistent world even if a writer races
        the staleness check.  The new epoch's oracle is offered the stale
        context's witness index (:class:`_EpochContext`).
        """
        with self._guard:
            context = self._context
            if context is None or context.epoch != self._database.epoch:
                context = _EpochContext(self._template.pinned(), context)
                self._context = context
            return context

    # -- admission control ---------------------------------------------------
    def _try_admit(self, max_inflight: int) -> bool:
        with self._admission_lock:
            if self._inflight >= max_inflight:
                return False
            self._inflight += 1
            active = _metrics._ACTIVE
            if active is not None:
                active.set_gauge("serving.inflight", self._inflight)
            return True

    def _release(self) -> None:
        with self._admission_lock:
            self._inflight -= 1

    def serve_one(self, request: ServeRequest) -> ServeResult:
        """Answer one request against the epoch current at call time.

        Never raises for a request-level failure: exceptions are classified
        into the typed error taxonomy and returned as an error result.
        """
        start = time.perf_counter()
        config = self._resilience
        sampler = self._tracing
        root: Optional[Span] = None
        if sampler is not None and sampler.sample():
            root = Span("request", kind=request.kind)
        if config is not None and config.max_inflight is not None:
            admit_span = _tracing.child_span(root, "admit")
            admitted = self._try_admit(config.max_inflight)
            _tracing.end_span(admit_span)
            if not admitted:
                error = classify_error(
                    ServerOverloaded(
                        f"request shed: {config.max_inflight} requests already in flight"
                    )
                )
                return _finalize_result(
                    ServeResult(
                        request,
                        None,
                        self._database.epoch,
                        time.perf_counter() - start,
                        error=error,
                        attempts=0,
                    ),
                    root,
                )
            try:
                return self._serve_admitted(request, start, config, root)
            finally:
                self._release()
        return self._serve_admitted(request, start, config, root)

    def _serve_admitted(
        self,
        request: ServeRequest,
        start: float,
        config: Optional[ResilienceConfig],
        root: Optional[Span] = None,
    ) -> ServeResult:
        """The retry loop of one admitted request.

        One :class:`~repro.resilience.deadline.Deadline` is created per
        *request* and shared across its retries — re-execution must not renew
        a budget the client granted once.  Only retryable classified errors
        (transient faults, never timeouts) re-enter the loop, and the
        exponential backoff is capped by the remaining deadline.
        """
        deadline: Optional[Deadline] = None
        max_retries = 0
        if config is not None:
            if config.deadline_s is not None or config.max_steps is not None:
                deadline = Deadline.after(config.deadline_s, max_steps=config.max_steps)
            max_retries = config.max_retries
        attempts = 0
        while True:
            attempts += 1
            epoch = self._database.epoch
            try:
                with deadline_scope(deadline):
                    fault_point("serving.worker")
                    pin_span = _tracing.child_span(root, "snapshot_pin")
                    context = self._current_context()
                    _tracing.end_span(pin_span)
                    epoch = context.epoch
                    exec_span = _tracing.child_span(root, "execute", attempt=attempts)
                    if exec_span is not None:
                        # Installed ambiently only when sampled, so the lower
                        # layers' plan/probe spans find a parent; an untraced
                        # request never pays the contextmanager.
                        try:
                            with _tracing.trace_scope(exec_span):
                                answer = context.answer(request)
                        finally:
                            exec_span.finish()
                    else:
                        answer = context.answer(request)
                return _finalize_result(
                    ServeResult(
                        request,
                        answer,
                        epoch,
                        time.perf_counter() - start,
                        attempts=attempts,
                    ),
                    root,
                )
            except Exception as error:
                serve_error = classify_error(error)
                retry = (
                    serve_error.retryable
                    and attempts <= max_retries
                    and not (deadline is not None and deadline.expired())
                )
                if retry:
                    if config is not None and config.retry_backoff_s > 0.0:
                        delay = config.retry_backoff_s * (2 ** (attempts - 1))
                        if deadline is not None:
                            remaining = deadline.remaining()
                            if remaining is not None and remaining < delay:
                                delay = max(0.0, remaining)
                        if delay > 0.0:
                            time.sleep(delay)
                    continue
                return _finalize_result(
                    ServeResult(
                        request,
                        None,
                        epoch,
                        time.perf_counter() - start,
                        error=serve_error,
                        attempts=attempts,
                    ),
                    root,
                )

    def serve_batch(
        self,
        requests: Sequence[ServeRequest],
        max_workers: Optional[int] = None,
    ) -> List[ServeResult]:
        """Answer N requests, preserving order; duplicates share one compute."""
        requests = list(requests)
        unique = list(dict.fromkeys(requests))
        if not unique:
            return []
        workers = max(1, min(max_workers or self._max_workers, len(unique)))
        if _metrics._ACTIVE is not None:
            # Queue wait = submission to worker pickup; observed inside the
            # worker so the pool's own scheduling is what gets measured.
            submitted = time.perf_counter()

            def _timed(request: ServeRequest) -> ServeResult:
                active = _metrics._ACTIVE
                if active is not None:
                    active.observe(
                        "serving.queue_wait_s", time.perf_counter() - submitted
                    )
                return self.serve_one(request)

            worker = _timed
        else:
            worker = self.serve_one
        with ThreadPoolExecutor(max_workers=workers) as pool:
            served = dict(zip(unique, pool.map(worker, unique)))
        return [served[request] for request in requests]

    def apply(self, delta):
        """The writer's entry point: commit a delta batch, return its undo token.

        With durability configured, the return *is* the ack: the commit's
        WAL record has been fsynced (group commit batches concurrent
        writers' fsyncs) before ``apply_delta`` returns, and — when
        ``checkpoint_every`` is set — every N effective commits hand a
        fresh checkpoint to a background thread (the image serializes from
        a pinned snapshot, so neither this writer nor the readers stall on
        it; if the previous checkpoint is still being written, the trigger
        simply re-arms on the next commit).
        """
        applied = self._database.apply_delta(delta)
        durability = self._durability
        if (
            durability is not None
            and durability.checkpoint_every is not None
            and applied.effective
        ):
            self._commits_since_checkpoint += 1
            if self._commits_since_checkpoint >= durability.checkpoint_every:
                if self._start_background_checkpoint():
                    self._commits_since_checkpoint = 0
        return applied

    def _start_background_checkpoint(self) -> bool:
        """Spawn the auto-checkpoint thread; ``False`` if one is still running."""
        thread = self._checkpoint_thread
        if thread is not None and thread.is_alive():
            return False

        def _run() -> None:
            try:
                self.checkpoint()
            except BaseException as error:  # surfaced by close()
                self._checkpoint_error = error

        thread = threading.Thread(target=_run, name="repro-checkpoint", daemon=True)
        self._checkpoint_thread = thread
        thread.start()
        return True

    def checkpoint(self) -> Optional[int]:
        """Write a durable image of the current epoch; returns its epoch.

        A no-op returning ``None`` with durability off.  The image is taken
        from a pinned snapshot, so readers and the writer continue
        untouched; the WAL is truncated to the records past the image only
        after the image itself is durable.  Safe to call from any thread:
        the checkpoint lock serialises it against the background
        auto-checkpoint (two writers racing ``os.replace`` on the same
        temp file would corrupt neither, but their truncations would
        interleave pointlessly).
        """
        if self._durability is None:
            return None
        from repro.durability import checkpoint_path, write_checkpoint

        with self._checkpoint_lock:
            return write_checkpoint(
                self._database.snapshot(),
                checkpoint_path(self._durability.directory),
                wal=self._wal,
            )

    def close(self) -> None:
        """Detach and close the WAL, if one is attached (idempotent).

        Joins any in-flight background checkpoint first (it truncates the
        WAL being closed), then re-raises the most recent background
        checkpoint failure, if one was stored — compaction failing silently
        would otherwise let the log grow without bound.
        """
        thread = self._checkpoint_thread
        if thread is not None:
            thread.join()
            self._checkpoint_thread = None
        if self._wal is not None:
            self._database.detach_wal()
            self._wal.close()
            self._wal = None
        error, self._checkpoint_error = self._checkpoint_error, None
        if error is not None:
            raise error


class GlobalLockServer:
    """The pre-MVCC baseline: one global lock, fresh state per request.

    Every request takes the lock for its whole execution (readers on the
    live database are not otherwise safe against the writer) and rebuilds
    the problem via
    :meth:`~repro.core.model.RecommendationProblem.with_database`, so each
    request pays a fresh compatibility oracle and a fresh ``Q(D)``
    evaluation.  No answer memo and no batch deduplication: between two
    occurrences of the same request a commit may have changed the world, so
    over the live database reuse would be unsound — which is precisely the
    capability the snapshot server's immutable epochs add.
    """

    def __init__(
        self,
        problem: RecommendationProblem,
        max_workers: int = 8,
        tracing: Optional[TraceSampler] = None,
    ) -> None:
        self._template = problem
        self._database = problem.database
        self._max_workers = max_workers
        self._tracing = tracing
        self._lock = threading.Lock()

    @property
    def problem(self) -> RecommendationProblem:
        return self._template

    @property
    def database(self):
        return self._database

    @property
    def epoch(self) -> int:
        return self._database.epoch

    def serve_one(self, request: ServeRequest) -> ServeResult:
        start = time.perf_counter()
        sampler = self._tracing
        root: Optional[Span] = None
        if sampler is not None and sampler.sample():
            root = Span("request", kind=request.kind)
        epoch = self._database.epoch
        try:
            with self._lock:
                fault_point("serving.worker")
                fresh = self._template.with_database(self._database)
                exec_span = _tracing.child_span(root, "execute")
                if exec_span is not None:
                    try:
                        with _tracing.trace_scope(exec_span):
                            answer = execute_request(fresh, request)
                    finally:
                        exec_span.finish()
                else:
                    answer = execute_request(fresh, request)
                epoch = self._database.epoch
        except Exception as error:
            return _finalize_result(
                ServeResult(
                    request,
                    None,
                    epoch,
                    time.perf_counter() - start,
                    error=classify_error(error),
                ),
                root,
            )
        return _finalize_result(
            ServeResult(request, answer, epoch, time.perf_counter() - start), root
        )

    def serve_batch(
        self,
        requests: Sequence[ServeRequest],
        max_workers: Optional[int] = None,
    ) -> List[ServeResult]:
        requests = list(requests)
        if not requests:
            return []
        workers = max(1, min(max_workers or self._max_workers, len(requests)))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(self.serve_one, requests))

    def apply(self, delta):
        with self._lock:
            return self._database.apply_delta(delta)


# ``latency_percentiles`` lives in :mod:`repro.observability.summary` now
# (PR 8) and is re-exported above, unchanged, for existing importers.
