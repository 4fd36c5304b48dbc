"""Delta-driven incremental maintenance (the PR 3 subsystem).

Updating the database should cost work proportional to the *delta*, not to
the database: this subpackage keeps query answers
(:class:`~repro.incremental.views.MaintainedQuery`), compatibility verdicts
(via the footprint-aware
:class:`~repro.core.compatibility.CompatibilityOracle`) and whole
recommendation searches
(:class:`~repro.incremental.streaming.StreamingQRPP`, the rewired
:func:`~repro.adjustment.arpp.find_package_adjustment`) live across streams
of insertions and deletions, with
:class:`~repro.incremental.views.MaintainedDelta` undo tokens making every
update revertible.  A maintained delta (and its undo) is one commit of the
relational layer's :meth:`~repro.relational.database.Database.apply_delta`
path, with views notified after each effective modification inside it.
"""

from repro.incremental.views import (
    ConjunctiveMaintainer,
    MaintainedDelta,
    MaintainedQuery,
    RecomputeMaintainer,
    apply_maintained,
    maintainer_for,
    register_maintainer,
)
from repro.incremental.streaming import StreamingQRPP

__all__ = [
    "ConjunctiveMaintainer",
    "MaintainedDelta",
    "MaintainedQuery",
    "RecomputeMaintainer",
    "StreamingQRPP",
    "apply_maintained",
    "maintainer_for",
    "register_maintainer",
]
