"""A long-running server holds a bounded amount of memory.

Two hundred epochs of :func:`~repro.serving.serving_problem` go through one
:class:`~repro.serving.SnapshotServer`: each commits an insert (and, once
three are in, the delete of the oldest insert, so ``Q(D)`` keeps its size)
and then serves every request kind.  Each epoch pins a snapshot, builds a
candidate pool with its columns and rating-bound tables, a witness index
and an answer memo, all of which must go with the epoch.  The retained memory that
``tracemalloc`` traces must therefore plateau: a pool, table or pin kept per
epoch would retain kilobytes per epoch, hundreds over the second half.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

from repro.core import compute_top_k
from repro.core.model import CandidatePool
from repro.relational.database import DatabaseSnapshot
from repro.serving import ServeRequest, SnapshotServer, serving_problem

EPOCHS = 200

#: The most the traced memory may grow from the middle epoch to the last:
#: a leak of one candidate pool and its bound tables (≈20 items) per epoch
#: would retain several times this over the hundred epochs.
SECOND_HALF_GROWTH_BYTES = 32 * 1024


def _live(kind) -> int:
    return sum(1 for value in gc.get_objects() if type(value) is kind)


def test_retained_memory_plateaus_over_two_hundred_epochs():
    problem = serving_problem(30, seed=4)
    top = compute_top_k(problem).selection
    requests = (
        ServeRequest.top_k(),
        ServeRequest.exists(20.0),
        ServeRequest.exists(34.0),
        ServeRequest.count(26.0),
        ServeRequest.check([package.sorted_items() for package in top]),
    )
    server = SnapshotServer(problem, max_workers=1)
    rng = random.Random(4)
    categories = sorted({row[1] for row in problem.database.relation("items").rows()})
    inserted = []
    retained = {}
    gc.collect()
    # Earlier tests in the same pytest run may still hold snapshots and pools.
    before = _live(DatabaseSnapshot), _live(CandidatePool)
    tracemalloc.start()
    try:
        for epoch in range(1, EPOCHS + 1):
            row = (10_000 + epoch, rng.choice(categories), rng.randrange(1, 30), 1 + epoch % 19)
            delta = [("insert", "items", row)]
            inserted.append(row)
            if len(inserted) > 3:
                delta.append(("delete", "items", inserted.pop(0)))
            server.apply(delta)
            assert all(result.ok for result in server.serve_batch(requests))
            if epoch in (EPOCHS // 2, EPOCHS):
                gc.collect()
                retained[epoch] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert server.epoch == EPOCHS
    growth = retained[EPOCHS] - retained[EPOCHS // 2]
    assert growth < SECOND_HALF_GROWTH_BYTES, growth
    # The serving epoch and the one it carries from, at most.
    assert _live(DatabaseSnapshot) - before[0] <= 2 and _live(CandidatePool) - before[1] <= 2
