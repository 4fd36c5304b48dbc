"""The benchmark's three workloads: seeded inputs, the timed op, untimed checks.

Each workload is a closed loop driven by one client; an *op* is the unit
that client waits on.  A workload object owns one copy of the program's
state: :meth:`Workload.setup` rebuilds it from the seed (so the harness can
set up several times and keep the last), :meth:`Workload.next_input` draws
the next op's input from the seeded stream, :meth:`Workload.op` is the only
timed call, and :meth:`Workload.after_op`, :meth:`Workload.check` and
:meth:`Workload.finish` do the untimed bookkeeping and correctness checks.

The program is called through module attributes (``serving.execute_request``,
``views.apply_maintained``, ``checkpoint.write_checkpoint``) so the traced
run's hooks (:mod:`perfbench.spans`) see every call.

``serve_mixed``
    One round per op: the writer commits a small balanced delta through
    ``SnapshotServer.apply`` (durability off), then a skewed batch of
    FRP/EXISTPACK/CPP/RPP requests goes through ``serve_batch`` (one
    worker, see :data:`WORKERS`).  Read-heavy with heavy input sharing:
    epoch pin, cold-epoch warm-up, answer memo and batch dedup do the work.
``solve_qc``
    One session per op on a distinct seeded instance with the serving
    problem's CQ ``Qc`` over ``RQ``: pin, FRP top-k, the RPP check of that
    selection, CPP and EXISTPACK at seeded bounds, via ``execute_request``.
    The lattice search, the ``Qc`` oracle and the evaluator do the work;
    nothing is shared between sessions.
``ingest_durable``
    One acked delta per op through ``apply_maintained`` on a database opened
    with ``open_durable`` (fsync per commit), maintaining the serving
    problem's ``Q(D)`` and two CQ self-join views: the pairs its ``Qc``
    rejects and its size-2 candidate packages.  Every ``checkpoint_every`` ops the writer checkpoints
    synchronously; every ``reader_every`` ops a reader pins a snapshot and
    holds it across the next commits, which forces copy-on-write.  At the
    end the store is closed and ``recover()`` runs.
"""

from __future__ import annotations

import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro.durability.checkpoint as checkpoint
import repro.durability.recovery as recovery
import repro.incremental.views as views
import repro.serving.server as serving
from repro.durability import encode_row
from repro.core import RecommendationProblem, best_valid_packages_reference, compute_top_k
from repro.core.enumeration import enumerate_valid_packages_reference
from repro.incremental import MaintainedQuery
from repro.queries.ast import Comparison, ComparisonOp, RelationAtom, Var
from repro.queries.cq import ConjunctiveQuery
from repro.relational.database import Database, Relation
from repro.serving.server import ResilienceConfig, ServeRequest, SnapshotServer
from repro.serving.trace import serving_problem
from repro.workloads.synthetic import CATEGORIES, ITEMS, item_schema, item_selection_query

#: Per-request deadline for ``serve_mixed``: far above any request's cost,
#: so it arms the resilience layer without ever firing.
DEADLINE_S = 30.0

#: ``serve_mixed``'s pool size.  The load is GIL-bound, and with two
#: workers the GIL hand-offs between them waited on the host's scheduler:
#: an in-process A/B on a 2-core VM measured 33% run-to-run range in mean
#: op time with two workers against 23% with one.
WORKERS = 1

#: Request pool of ``serve_mixed`` as ``(kind, rating bound, weight)``,
#: copied from ``build_trace`` in ``repro/serving/trace.py``, which does not
#: expose it: FRP, three EXISTPACK bounds, CPP, and RPP of the initial top-k.
_POOL = (
    ("top_k", None, 0.30),
    ("exists", 20.0, 0.12),
    ("exists", 28.0, 0.12),
    ("exists", 34.0, 0.11),
    ("count", 26.0, 0.20),
    ("check", None, 0.15),
)
_POOL_WEIGHTS = tuple(weight for _, _, weight in _POOL)
#: The pool's lowest and highest rating bound; ``solve_qc`` draws its CPP
#: and EXISTPACK bounds from this range.
_POOL_BOUNDS = (
    int(min(bound for _, bound, _ in _POOL if bound is not None)),
    int(max(bound for _, bound, _ in _POOL if bound is not None)),
)

#: Sizes per workload.  Where each full size comes from:
#:
#: * ``items`` 80 and ``batch`` 24: ``repro serve``'s defaults (``--items``,
#:   ``--batch``), the repository's served and ``--wal`` durable traffic.
#: * ``items`` 120 for ``ingest_durable``: the largest catalog of
#:   ``SERVE_SWEEP`` in ``benchmarks/bench_serving.py``.  At 80 items the
#:   fsyncs were 43% of an op and its ops/s spread over five seeds was 0.34;
#:   at 120 items, with the size-2 package view, they are about 20%.  The
#:   traced run reports that share as ``wal.op_share``.
#: * ``max_swaps`` 3: ``build_trace`` inserts 1-3 items per round; here each
#:   insert is paired with a delete, so the catalog keeps its size.
#: * ``warmup``, ``trace_ops``, ``check_every``/``check_cap``,
#:   ``checkpoint_every``, ``reader_every``/``reader_hold``: the benchmark's
#:   own, see ``perfbench/STEADINESS.md``.
SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "full": {
        "serve_mixed": {"items": 80, "batch": 24, "max_swaps": 3, "warmup": 12, "trace_ops": 30, "check_every": 8, "check_cap": 30},
        "solve_qc": {"items": 80, "warmup": 12, "trace_ops": 30, "check_every": 10, "check_cap": 20},
        "ingest_durable": {"items": 120, "max_swaps": 3, "warmup": 40, "trace_ops": 150, "checkpoint_every": 25, "reader_every": 4, "reader_hold": 2},
    },
    "tiny": {
        "serve_mixed": {"items": 12, "batch": 6, "max_swaps": 2, "warmup": 2, "trace_ops": 6, "check_every": 1, "check_cap": 20},
        "solve_qc": {"items": 12, "warmup": 2, "trace_ops": 6, "check_every": 1, "check_cap": 20},
        "ingest_durable": {"items": 24, "max_swaps": 2, "warmup": 4, "trace_ops": 12, "checkpoint_every": 5, "reader_every": 3, "reader_hold": 2},
    },
}


def catalog(rng: random.Random, items: int) -> List[tuple]:
    """``items`` rows ``(iid, category, price, quality)`` of a fixed make-up.

    Every catalog of one size has the same category counts and the same
    multisets of prices (spread over 1..49) and qualities (1..19); the seed
    only decides which item gets which.  The number of candidates (price at
    most 30) and of item pairs within the budget is then the same for every
    seed, so seeds vary the instance and not the amount of work.
    """
    columns = [
        [CATEGORIES[i % len(CATEGORIES)] for i in range(items)],
        [1 + i * 49 // items for i in range(items)],
        [1 + i * 19 // items for i in range(items)],
    ]
    for column in columns:
        rng.shuffle(column)
    return [(iid, *values) for iid, values in enumerate(zip(*columns))]


def item_problem(rows: List[tuple]) -> RecommendationProblem:
    """The serving problem (CQ ``Qc`` over ``RQ``, size bound 2) over ``rows``."""
    template = serving_problem(0)
    return template.with_database(Database([Relation(item_schema(), rows)]))


class Workload:
    """Base class; see the module docstring for the protocol."""

    name = ""
    #: How this workload's wall times and CPU times follow the host's
    #: speed: as the product of ``scale ** exponent`` over these probes of
    #: :mod:`perfbench.calibration`.  Fitted per workload in STEADINESS.md.
    wall_exponents: Dict[str, float] = {"compute": 1.0}
    cpu_exponents: Dict[str, float] = {"compute_cpu": 1.0}

    def __init__(self, seed: int, size: str = "full", work_dir: Optional[Path] = None) -> None:
        self.seed = seed
        self.params = SIZES[size][self.name]
        self.work_dir = work_dir

    @property
    def warmup_ops(self) -> int:
        return self.params["warmup"]

    @property
    def trace_ops(self) -> int:
        return self.params["trace_ops"]

    def setup(self) -> None:
        raise NotImplementedError

    def release(self) -> None:
        """Drop the state :meth:`setup` built."""
        for name in [name for name in vars(self) if name not in ("seed", "params", "work_dir")]:
            delattr(self, name)

    def next_input(self) -> Any:
        raise NotImplementedError

    def op(self, given: Any) -> Any:
        raise NotImplementedError

    def after_op(self, index: int, given: Any, output: Any) -> Optional[str]:
        """Untimed bookkeeping; returns why the op failed, or ``None``."""
        return None

    def may_stop(self) -> bool:
        """Whether the loop may end after the op just done."""
        return True

    def check(self) -> List[Tuple[int, str]]:
        """Untimed correctness checks: ``(op index, reason)`` per failure."""
        return []

    def traced_counts(self) -> Dict[str, int]:
        """Running totals the traced run reports as differences."""
        return {}

    def finish(self) -> Tuple[Dict[str, float], List[Tuple[int, str]]]:
        """Close the state; extra timings and end-of-run check failures."""
        return {}, []


class ServeMixed(Workload):
    name = "serve_mixed"
    wall_exponents = {"compute": 0.8}
    cpu_exponents = {"compute_cpu": 0.8}

    def setup(self) -> None:
        # One catalog shape for every seed; the seed renumbers the items
        # (which changes the lattice's search order) and drives the churn.
        # Each round then costs about the same, whatever the seed.
        self.rng = random.Random(self.seed)
        shape = catalog(random.Random(0), self.params["items"])
        iids = list(range(len(shape)))
        self.rng.shuffle(iids)
        problem = item_problem([(iid, *row[1:]) for iid, row in zip(iids, shape)])
        initial = [package.sorted_items() for package in compute_top_k(problem).selection]
        make = {
            "top_k": lambda _: ServeRequest.top_k(),
            "exists": ServeRequest.exists,
            "count": ServeRequest.count,
            "check": lambda _: ServeRequest.check(initial),
        }
        self.pool = [make[kind](bound) for kind, bound, _ in _POOL]
        # The generator's own mirror of the catalog: inputs never read the
        # program's state, so one seed always yields one input stream.  The
        # items of the RPP request's selection are never deleted, so that
        # request stays a full optimality check for the whole run.
        selected = {item for package in self.pool[-1].selection_items for item in package}
        self.catalog = sorted(problem.database.relation(ITEMS).rows() - selected)
        self.next_iid = 10_000
        self.server = SnapshotServer(
            problem, max_workers=WORKERS, resilience=ResilienceConfig(deadline_s=DEADLINE_S)
        )
        self.archive: List[Tuple[int, Database, int, Any, Any]] = []
        self.requests_drawn = 0

    def next_input(self):
        rng = self.rng
        delta = []
        for _ in range(rng.randint(1, self.params["max_swaps"])):
            # The fresh item takes over the victim's values under a new id.
            victim = self.catalog.pop(rng.randrange(len(self.catalog)))
            fresh = (self.next_iid, *victim[1:])
            self.next_iid += 1
            self.catalog.append(fresh)
            delta += [("delete", ITEMS, victim), ("insert", ITEMS, fresh)]
        requests = tuple(rng.choices(self.pool, weights=_POOL_WEIGHTS, k=self.params["batch"]))
        self.requests_drawn += len(requests)
        return tuple(delta), requests

    def op(self, given):
        delta, requests = given
        self.server.apply(delta)
        return self.server.serve_batch(requests)

    def after_op(self, index, given, output):
        errors = [result.error.code for result in output if result.error is not None]
        if index % self.params["check_every"] == 0 and len(self.archive) < self.params["check_cap"]:
            database = self.server.database
            self.archive.append((index, database.copy(), database.epoch, given[1], output))
        return f"request errors {errors}" if errors else None

    def traced_counts(self):
        return {"requests": self.requests_drawn}

    def check(self):
        failures = []
        template = self.server.problem
        for index, copy, epoch, requests, results in self.archive:
            problem = template.with_database(copy)
            expected = {request: serving.execute_request(problem, request) for request in set(requests)}
            for request, result in zip(requests, results):
                if result.epoch != epoch:
                    failures.append((index, f"served epoch {result.epoch}, committed {epoch}"))
                    break
                if result.answer != expected[request]:
                    failures.append((index, f"{request.describe()} differs from serial execution"))
                    break
        return failures


class SolveQc(Workload):
    name = "solve_qc"
    wall_exponents = {"compute": 0.8}
    cpu_exponents = {"compute_cpu": 0.8}

    def setup(self) -> None:
        self.rng = random.Random(self.seed)
        self.sampled: List[Tuple[int, Any, float, float, Any]] = []

    def next_input(self):
        problem = item_problem(catalog(self.rng, self.params["items"]))
        low, high = _POOL_BOUNDS
        count_bound = float(self.rng.randint(low, high))
        exists_bound = float(self.rng.randint(low, high))
        return problem, ServeRequest.count(count_bound), ServeRequest.exists(exists_bound)

    def op(self, given):
        problem, count, exists = given
        pinned = problem.pinned()
        top = serving.execute_request(pinned, ServeRequest.top_k())
        verdict = None
        if top[1] is not None:
            verdict = serving.execute_request(pinned, ServeRequest.check(top[1]))
        return (
            top,
            verdict,
            serving.execute_request(pinned, count),
            serving.execute_request(pinned, exists),
        )

    def after_op(self, index, given, output):
        top, verdict = output[0], output[1]
        if index % self.params["check_every"] == 0 and len(self.sampled) < self.params["check_cap"]:
            self.sampled.append((index, given[0], given[1].rating_bound, given[2].rating_bound, output))
        if top[1] is None:
            return "no top-k selection"
        if not verdict[1]:
            return f"RPP rejects the session's own FRP answer: {verdict[2]}"
        return None

    def check(self):
        failures = []
        for index, problem, count_bound, exists_bound, (top, _, count, exists) in self.sampled:
            reference = best_valid_packages_reference(problem, problem.k)
            if tuple(package.sorted_items() for package in reference) != top[1]:
                failures.append((index, "FRP differs from the reference enumerator"))
            counted = sum(1 for _ in enumerate_valid_packages_reference(problem, rating_bound=count_bound))
            if counted != count[1]:
                failures.append((index, f"CPP {count[1]} != reference {counted}"))
            witness = next(enumerate_valid_packages_reference(problem, rating_bound=exists_bound), None)
            if (witness is not None) != exists[1]:
                failures.append((index, "EXISTPACK differs from the reference enumerator"))
            elif exists[1] and not problem.is_valid_package(
                problem.package_from_items(exists[2]), rating_bound=exists_bound
            ):
                failures.append((index, "EXISTPACK witness is not a valid package"))
        return failures


def same_category_pairs() -> ConjunctiveQuery:
    """Pairs of distinct items sharing a category: what the serving ``Qc`` rejects."""
    iid1, iid2, category = Var("iid1"), Var("iid2"), Var("category")
    return ConjunctiveQuery(
        [iid1, iid2, category],
        [
            RelationAtom(ITEMS, [iid1, category, Var("p1"), Var("q1")]),
            RelationAtom(ITEMS, [iid2, category, Var("p2"), Var("q2")]),
        ],
        [Comparison(ComparisonOp.LT, iid1, iid2)],
        name="same_category_pairs",
    )


def candidate_pairs(max_price: int = 30) -> ConjunctiveQuery:
    """Size-2 packages of the serving problem: ``Q(D)`` pairs ``Qc`` accepts."""
    iid1, iid2, c1, c2, p1, p2 = Var("iid1"), Var("iid2"), Var("c1"), Var("c2"), Var("p1"), Var("p2")
    return ConjunctiveQuery(
        [iid1, iid2],
        [
            RelationAtom(ITEMS, [iid1, c1, p1, Var("q1")]),
            RelationAtom(ITEMS, [iid2, c2, p2, Var("q2")]),
        ],
        [
            Comparison(ComparisonOp.LT, iid1, iid2),
            Comparison(ComparisonOp.NE, c1, c2),
            Comparison(ComparisonOp.LE, p1, max_price),
            Comparison(ComparisonOp.LE, p2, max_price),
        ],
        name="candidate_pairs",
    )


class IngestDurable(Workload):
    name = "ingest_durable"
    # Its time goes to the interpreter, to the kernel and to fsync waits,
    # and follows the host's fsync latency as well as its compute speed.
    wall_exponents = {"compute": 0.5, "fsync": 0.45}
    cpu_exponents = {"compute_cpu": 0.55, "fsync": 0.35}

    def setup(self) -> None:
        self.directory = Path(self.work_dir) / self.name
        shutil.rmtree(self.directory, ignore_errors=True)
        self.rng = random.Random(self.seed)
        self.mirror = catalog(self.rng, self.params["items"])
        self.next_iid = len(self.mirror)
        self.database = Database([Relation(item_schema(), self.mirror)])
        # One writer leaves group commit nothing to batch, and its quiesce
        # sleep before each fsync waited on the host's scheduler: the same
        # A/B measured 33% range with group commit against 16% without.
        self.wal = recovery.open_durable(self.database, self.directory, group_commit=False)
        self.views = [
            MaintainedQuery(item_selection_query(max_price=30), self.database),
            MaintainedQuery(same_category_pairs(), self.database),
            MaintainedQuery(candidate_pairs(), self.database),
        ]
        self.since_checkpoint = 0
        self.ops_done = 0
        self.reader = None
        self.reader_failures: List[Tuple[int, str]] = []
        self.user_bytes = 0
        self.checkpoint_bytes = 0

    def close(self) -> None:
        wal = getattr(self, "wal", None)
        if wal is not None:
            self.database.detach_wal()
            wal.close()
            self.wal = None

    def release(self) -> None:
        self.close()
        super().release()

    def next_input(self):
        delta = []
        for _ in range(self.rng.randint(1, self.params["max_swaps"])):
            # The fresh item takes over the victim's values under a new id:
            # the catalog keeps its make-up, so every view keeps its size
            # and a modification costs the same whatever the seed.
            victim = self.mirror.pop(self.rng.randrange(len(self.mirror)))
            fresh = (self.next_iid, *victim[1:])
            self.next_iid += 1
            self.mirror.append(fresh)
            delta += [("delete", ITEMS, victim), ("insert", ITEMS, fresh)]
            self.user_bytes += len(encode_row(victim)) + len(encode_row(fresh))
        return tuple(delta)

    def op(self, given):
        views.apply_maintained(self.database, given, self.views)
        self.since_checkpoint += 1
        if self.since_checkpoint == self.params["checkpoint_every"]:
            checkpoint.write_checkpoint(
                self.database.snapshot(), recovery.checkpoint_path(self.directory), wal=self.wal
            )
            self.since_checkpoint = 0
        return None

    def after_op(self, index, given, output):
        self.ops_done += 1
        if self.since_checkpoint == 0:
            self.checkpoint_bytes += recovery.checkpoint_path(self.directory).stat().st_size
        if self.reader is not None:
            snapshot, epoch, rows, pinned_at = self.reader
            if self.ops_done - pinned_at >= self.params["reader_hold"]:
                if snapshot.epoch != epoch or snapshot.relation(ITEMS).rows() != rows:
                    self.reader_failures.append((index, "a pinned snapshot changed under commits"))
                self.reader = None
        if self.reader is None and self.ops_done % self.params["reader_every"] == 0:
            snapshot = self.database.snapshot()
            self.reader = (snapshot, snapshot.epoch, snapshot.relation(ITEMS).rows(), self.ops_done)
        return None

    def may_stop(self) -> bool:
        # End with the same log tail every run, so recover() replays the
        # same number of records whatever the op count.
        return self.since_checkpoint == self.params["checkpoint_every"] // 2

    def traced_counts(self):
        return {
            # Every row a view adds or drops bumps its relation's version.
            "rows_changed": sum(view.answers().version for view in self.views),
            "user_bytes": self.user_bytes,
            "checkpoint_bytes": self.checkpoint_bytes,
        }

    def finish(self):
        self.reader = None
        self.close()
        timings = []
        for _ in range(3):
            start = time.perf_counter()
            recovered = recovery.recover(self.directory)
            timings.append(time.perf_counter() - start)
        failures = list(self.reader_failures)
        live = self.database
        if recovered.epoch != live.epoch:
            failures.append((-1, f"recovered epoch {recovered.epoch}, last acked {live.epoch}"))
        if recovered.database.relation(ITEMS).rows() != live.relation(ITEMS).rows():
            failures.append((-1, "recovered rows differ from the live database"))
        for view in self.views:
            if view.answer_rows() != view.query.evaluate(live).rows():
                failures.append((-1, f"view {view.query.name} differs from a fresh evaluation"))
        shutil.rmtree(self.directory, ignore_errors=True)
        return {"recovery_s": statistics.median(timings), "records_replayed": recovered.records_replayed}, failures


WORKLOADS = {cls.name: cls for cls in (ServeMixed, SolveQc, IngestDurable)}
