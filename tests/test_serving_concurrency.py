"""Real-thread stress tests: pinned readers vs a live writer.

The property under test is the serving layer's contract: any number of
reader threads may run whole solver searches (FRP, RPP, QRPP) against pinned
snapshots while one writer commits ``apply_delta`` batches, and every
reader's answers are **bit-identical to a serial re-execution** against a
plain :meth:`~repro.relational.database.Database.copy` of the reader's
pinned epoch — ties included, because the search engine is deterministic
over a fixed epoch.

The writer records a ``copy()`` of the database right after every commit
(only the writer mutates, so the copy is exactly that epoch's world); the
readers record ``(epoch, answer)`` pairs; the assertions replay each answer
serially against the recorded epoch.  A second family checks that the shared
per-epoch compatibility oracle never invalidates — verdicts must not leak
across epochs in either direction.

Default parametrizations use 8 reader threads and finish in seconds, so they
run in tier-1.  The scaled-up stress variants carry the ``concurrency``
marker (deselected by ``pytest.ini``'s addopts) and run under an explicit
``pytest -m concurrency``.
"""

from __future__ import annotations

import random
import sys
import threading
import time

import pytest

from repro.core import compute_top_k, is_top_k_selection, selection_from_items
from repro.relaxation import RelaxationSpace
from repro.relaxation.qrpp import find_package_relaxation
from repro.serving import ServeRequest, SnapshotServer, build_trace, execute_request, serving_problem


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------
class RecordingWriter:
    """A writer thread that commits delta batches and archives each epoch.

    ``copies[epoch]`` is a mutable twin of the database as of ``epoch`` —
    the serial-re-execution reference for any reader pinned there.  The
    archive copy is taken by the writer thread itself immediately after the
    commit, so it cannot race a later commit.
    """

    def __init__(self, database, batches, pause_s=0.003):
        self.database = database
        self.batches = batches
        self.pause_s = pause_s
        self.copies = {database.epoch: database.copy()}
        self.thread = threading.Thread(target=self._run, name="writer")

    def _run(self):
        for batch in self.batches:
            self.database.apply_delta(batch)
            self.copies[self.database.epoch] = self.database.copy()
            time.sleep(self.pause_s)

    def start(self):
        self.thread.start()

    def join(self):
        self.thread.join()


def _item_batches(database, count, seed=0):
    """``count`` effective delta batches against the ``items`` relation."""
    rng = random.Random(seed)
    categories = sorted({row[1] for row in database.relation("items").rows()})
    inserted = []
    batches = []
    next_iid = 20_000
    for _ in range(count):
        batch = []
        for _ in range(rng.randint(1, 2)):
            row = (next_iid, rng.choice(categories), rng.randrange(1, 30), rng.randrange(1, 20))
            next_iid += 1
            inserted.append(row)
            batch.append(("insert", "items", row))
        if inserted and rng.random() < 0.4:
            batch.append(("delete", "items", inserted.pop(rng.randrange(len(inserted)))))
        batches.append(batch)
    return batches


def _frp_answer(problem):
    result = compute_top_k(problem)
    if result.selection is None:
        return ("frp", None, ())
    return (
        "frp",
        tuple(package.sorted_items() for package in result.selection),
        result.ratings,
    )


def _rpp_answer(problem, candidate_items):
    result = is_top_k_selection(problem, selection_from_items(problem, candidate_items))
    return ("rpp", result.is_top_k, result.reason)


def _qrpp_answer(problem, space, rating_bound, max_gap):
    result = find_package_relaxation(problem, space, rating_bound, max_gap)
    witnesses = (
        None
        if result.witnesses is None
        else tuple(package.sorted_items() for package in result.witnesses)
    )
    return ("qrpp", result.found, result.gap, result.relaxations_tried, witnesses)


# ---------------------------------------------------------------------------
# Readers running whole solver searches against pinned snapshots
# ---------------------------------------------------------------------------
def _run_solver_stress(num_readers, iterations, num_commits, seed):
    """Readers pin fresh epochs and solve; every answer is replayed serially."""
    problem = serving_problem(24, seed=seed)
    space = RelaxationSpace.for_constants(problem.query)
    initial_top = compute_top_k(problem)
    assert initial_top.selection is not None, "stress problem must have a top-k"
    candidate_items = tuple(
        package.sorted_items() for package in initial_top.selection
    )

    writer = RecordingWriter(
        problem.database, _item_batches(problem.database, num_commits, seed=seed)
    )
    barrier = threading.Barrier(num_readers + 1)
    records = []  # (epoch, answer); list.append is atomic under the GIL
    errors = []

    def reader(reader_index):
        rng = random.Random(seed * 1_000 + reader_index)
        try:
            barrier.wait()
            for _ in range(iterations):
                pinned = problem.pinned()
                epoch = pinned.database.epoch
                mode = rng.randrange(3)
                if mode == 0:
                    answer = _frp_answer(pinned)
                elif mode == 1:
                    answer = _rpp_answer(pinned, candidate_items)
                else:
                    answer = _qrpp_answer(pinned, space, rating_bound=20.0, max_gap=6.0)
                records.append((epoch, answer))
        except Exception as exc:  # pragma: no cover - surfaced by the assertion
            errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(index,), name=f"reader-{index}")
        for index in range(num_readers)
    ]
    # The writer is already committing when the readers are released, and a
    # short switch interval lets its commits land between the readers' pins
    # and solves: with the default 5 ms a whole run of eight fast readers
    # can fit between two commits.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for thread in threads:
            thread.start()
        writer.start()
        barrier.wait()
        for thread in threads:
            thread.join()
        writer.join()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, f"reader threads raised: {errors!r}"
    assert len(records) == num_readers * iterations

    # Every recorded answer equals a serial re-execution on its pinned epoch.
    serial_cache = {}
    distinct_epochs = set()
    for epoch, answer in records:
        distinct_epochs.add(epoch)
        key = (epoch, answer[0])
        if key not in serial_cache:
            serial = problem.with_database(writer.copies[epoch].copy())
            if answer[0] == "frp":
                serial_cache[key] = _frp_answer(serial)
            elif answer[0] == "rpp":
                serial_cache[key] = _rpp_answer(serial, candidate_items)
            else:
                serial_cache[key] = _qrpp_answer(
                    serial, space, rating_bound=20.0, max_gap=6.0
                )
        assert answer == serial_cache[key], f"epoch {epoch}: {answer[0]} diverged"
    return distinct_epochs


def test_eight_readers_agree_with_serial_reexecution_under_a_live_writer():
    """≥8 reader threads × FRP/RPP/QRPP vs a writer committing a delta trace."""
    epochs = _run_solver_stress(num_readers=8, iterations=4, num_commits=12, seed=5)
    # The test is only meaningful if readers actually spanned several epochs.
    assert len(epochs) >= 2


@pytest.mark.concurrency
@pytest.mark.parametrize("seed", range(3))
def test_sixteen_readers_agree_with_serial_reexecution_scaled(seed):
    epochs = _run_solver_stress(num_readers=16, iterations=6, num_commits=30, seed=seed)
    assert len(epochs) >= 3


# ---------------------------------------------------------------------------
# The batch front end under a live writer
# ---------------------------------------------------------------------------
def _run_server_stress(num_items, num_batches, batch_size, num_commits, seed):
    """serve_batch answers are serially re-executable at their tagged epoch.

    The first batch is served before the writer starts and the last after it
    has committed everything, so the answers span at least two epochs
    whatever the thread timing; the batches between run under the live
    writer.
    """
    trace = build_trace(num_items, 1, batch_size, seed=seed)
    problem = trace.problem
    request_pool = list(dict.fromkeys(trace.rounds[0][1]))
    server = SnapshotServer(problem)
    writer = RecordingWriter(
        problem.database,
        _item_batches(problem.database, num_commits, seed=seed),
        pause_s=0.002,
    )
    rng = random.Random(seed)

    def serve():
        all_results.extend(server.serve_batch(rng.choices(request_pool, k=batch_size)))

    all_results = []
    serve()
    writer.start()
    for _ in range(num_batches - 2):
        serve()
    writer.join()
    serve()

    # Each answer is tagged with the epoch it was computed against; replaying
    # the request serially on that epoch's archived copy must agree exactly.
    serial_cache = {}
    epochs = set()
    for result in all_results:
        epochs.add(result.epoch)
        key = (result.epoch, result.request)
        if key not in serial_cache:
            serial = problem.with_database(writer.copies[result.epoch].copy())
            serial_cache[key] = execute_request(serial, result.request)
        assert result.answer == serial_cache[key], (
            f"epoch {result.epoch}: {result.request.describe()} diverged"
        )
    assert len(all_results) == num_batches * batch_size
    return epochs


def test_snapshot_server_batches_are_consistent_under_a_live_writer():
    epochs = _run_server_stress(
        num_items=30, num_batches=4, batch_size=16, num_commits=10, seed=11
    )
    assert len(epochs) >= 2


@pytest.mark.concurrency
def test_snapshot_server_batches_scaled():
    epochs = _run_server_stress(
        num_items=60, num_batches=8, batch_size=32, num_commits=24, seed=13
    )
    assert len(epochs) >= 3


# ---------------------------------------------------------------------------
# Verdicts never leak across epochs
# ---------------------------------------------------------------------------
def test_shared_pinned_oracle_never_invalidates_under_concurrent_probes():
    """8 threads probe one pinned problem's oracle while a writer commits.

    The pinned relations' versions are frozen, so the memoized
    :class:`~repro.core.compatibility.CompatibilityOracle` must never clear:
    zero invalidations, and every verdict equals a serial probe of the
    pinned epoch — no verdict computed before a commit may change after it.
    """
    problem = serving_problem(24, seed=21)
    pinned = problem.pinned()
    oracle = pinned.compatibility_oracle()
    pool = sorted(pinned.candidate_items().rows())
    assert len(pool) >= 4

    writer = RecordingWriter(
        problem.database, _item_batches(problem.database, 10, seed=21)
    )
    barrier = threading.Barrier(9)
    verdicts = []
    errors = []

    def prober(index):
        rng = random.Random(index)
        try:
            barrier.wait()
            for _ in range(30):
                items = tuple(sorted(rng.sample(pool, 2)))
                package = pinned.package_from_items(items)
                verdicts.append((items, oracle.is_satisfied(package)))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=prober, args=(index,)) for index in range(8)]
    for thread in threads:
        thread.start()
    barrier.wait()
    writer.start()
    for thread in threads:
        thread.join()
    writer.join()

    assert not errors, f"prober threads raised: {errors!r}"
    assert oracle.cache_info()["invalidations"] == 0
    # Serial re-execution of every probed verdict on the pinned epoch's copy.
    serial = problem.with_database(writer.copies[min(writer.copies)].copy())
    serial_oracle = serial.compatibility_oracle()
    for items, verdict in verdicts:
        assert serial_oracle.is_satisfied(serial.package_from_items(items)) == verdict

    # And the other direction: a problem pinned *after* the stream answers
    # from the new world, with its own oracle — the old verdicts never bleed
    # into it (fresh oracle, fresh epoch), nor the new data into the old one.
    fresh = problem.pinned()
    assert fresh.database.epoch != pinned.database.epoch
    assert fresh.compatibility_oracle() is not oracle
