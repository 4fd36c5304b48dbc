"""Crash recovery: checkpoint + WAL tail → exactly the last acked epoch.

A durability *directory* holds two artifacts — :data:`CHECKPOINT_FILENAME`
(the most recent full image) and :data:`WAL_FILENAME` (the records since) —
and :func:`recover` folds them back into a live
:class:`~repro.relational.database.Database`:

1. load the checkpoint (its epoch ``C`` is the image's commit count);
2. scan the WAL, accepting the longest well-formed prefix (a torn or
   corrupt tail is *discarded* — those bytes were never fsynced, so no
   commit built on them was ever acked);
3. replay every record with ``epoch > C`` through the normal
   :meth:`~repro.relational.database.Database.apply_delta` path.  Records
   at or below ``C`` are already inside the image (the WAL is truncated
   *after* a checkpoint is durable, so a crash between the two legitimately
   leaves such records behind) and are skipped, which is also what makes
   recovering twice equal recovering once.

Each record holds a commit's *effective* modifications, so replaying one
advances the epoch by exactly one — recovery arrives at ``C + |tail|``,
which the acked/unacked chaos proof in ``tests/test_durability.py`` pins to
the last fsync-acknowledged commit.  Replay runs through the ordinary
commit path, so the recovered database is a full citizen: lazy indexes,
statistics and tries rebuild on demand, snapshots pin, and a new WAL can be
attached to continue the history.

:func:`open_durable` is the write-side bootstrap: given a live database and
a directory, it writes the initial checkpoint if the directory is fresh
(the WAL alone cannot recover pre-existing rows — records only describe
deltas) and returns an attached
:class:`~repro.durability.wal.WriteAheadLog`.  Re-attaching to an existing
directory is verified: the database's epoch must equal the directory's
:func:`durable_epoch` (i.e. be the state :func:`recover` returns for it),
so a fresh database can never silently append a forked history over
someone else's durable commits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.durability.checkpoint import (
    read_checkpoint,
    read_checkpoint_epoch,
    write_checkpoint,
)
from repro.durability.encode import CorruptRecordError
from repro.durability.wal import WriteAheadLog, read_wal
from repro.observability import metrics as _metrics
from repro.relational.database import Database

PathLike = Union[str, Path]

#: The two artifact names inside a durability directory.
WAL_FILENAME = "wal.log"
CHECKPOINT_FILENAME = "checkpoint.db"


@dataclass(frozen=True)
class DurabilityConfig:
    """How a server keeps its database durable (``durability=`` knob).

    ``directory`` is the durability directory (created if missing);
    ``group_commit`` selects batched fsyncs (the default) or the naive
    fsync-per-commit mode; ``checkpoint_every``, when set, makes the server
    write a fresh checkpoint (from a pinned snapshot — the writer never
    stalls) after every N commits, keeping the WAL tail short.

    With ``checkpoint_every`` unset nothing bounds the log: every effective
    commit appends one record (a delta that changes nothing appends none),
    and only an explicit checkpoint
    (:meth:`~repro.serving.SnapshotServer.checkpoint`, or
    :func:`~repro.durability.write_checkpoint` given the ``wal``) truncates
    it to the records past its image.  The log keeps no per-record state in
    memory, so what grows is the file and the recovery time, which replays
    every record past the image.  ``repro serve --wal`` runs this way: its
    log holds every commit of the trace.
    """

    directory: Union[str, Path]
    group_commit: bool = True
    checkpoint_every: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "directory", Path(self.directory))
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be positive, got {self.checkpoint_every}"
            )


@dataclass(frozen=True)
class RecoveryResult:
    """What :func:`recover` rebuilt, and from which artifacts.

    ``database`` is live and mutable at epoch ``epoch``;
    ``checkpoint_epoch`` is the image's commit count, ``records_replayed``
    the WAL tail records applied on top, ``records_skipped`` the records the
    checkpoint already contained, and ``torn_tail_bytes`` the discarded
    trailing bytes (0 for a clean shutdown).
    """

    database: Database = field(repr=False)
    epoch: int
    checkpoint_epoch: int
    records_replayed: int
    records_skipped: int
    torn_tail_bytes: int


def wal_path(directory: PathLike) -> Path:
    """The WAL file inside a durability directory."""
    return Path(directory) / WAL_FILENAME


def checkpoint_path(directory: PathLike) -> Path:
    """The checkpoint file inside a durability directory."""
    return Path(directory) / CHECKPOINT_FILENAME


def durable_epoch(directory: PathLike) -> int:
    """The epoch ``directory``'s artifacts recover to, without rebuilding it.

    Checkpoint epoch plus the WAL tail records past it (the same skip rule
    :func:`recover` applies), read cheaply — the image itself is never
    decoded.  Raises :class:`CorruptRecordError` if the checkpoint is
    missing or corrupt.
    """
    directory = Path(directory)
    epoch = read_checkpoint_epoch(checkpoint_path(directory))
    for record in read_wal(wal_path(directory)).records:
        if record.epoch > epoch:
            epoch = record.epoch
    return epoch


def open_durable(
    database: Database, directory: PathLike, group_commit: bool = True
) -> WriteAheadLog:
    """Make ``database`` durable under ``directory``; returns the attached WAL.

    Fresh directory: writes the initial checkpoint (the baseline image the
    WAL's deltas build on) and an empty log.  Existing directory: verifies
    ``database`` actually *is* the directory's recovered state — its epoch
    must equal :func:`durable_epoch` — then reopens the log and appends.
    The verification is what keeps a careless re-attach honest: appending
    epoch-N records onto a directory already durable through epoch M ≠ N
    would fork the history, and recovery's skip rule would then silently
    drop durably-acked commits.  Raises :class:`CorruptRecordError` on a
    mismatch (recover first, or use a fresh directory) and for a directory
    holding a WAL with records but no checkpoint (its baseline image is
    gone; nothing sound can be appended).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if not checkpoint_path(directory).exists():
        if read_wal(wal_path(directory)).records:
            raise CorruptRecordError(
                f"durability directory {directory} has WAL records but no "
                f"checkpoint: the log's baseline image is missing, so "
                f"attaching would orphan its history"
            )
        write_checkpoint(database.snapshot(), checkpoint_path(directory))
    else:
        existing = durable_epoch(directory)
        if existing != database.epoch:
            raise CorruptRecordError(
                f"durability directory {directory} is durable through epoch "
                f"{existing} but the database being attached is at epoch "
                f"{database.epoch}: pass the database recover() returns for "
                f"this directory, or use a fresh directory — appending from "
                f"a mismatched epoch would silently fork the durable history"
            )
    wal = WriteAheadLog(wal_path(directory), group_commit=group_commit)
    database.attach_wal(wal)
    return wal


def recover(directory: PathLike) -> RecoveryResult:
    """Rebuild the database a crashed process left under ``directory``.

    See the module docstring for the three steps.  Raises
    :class:`~repro.durability.encode.CorruptRecordError` if the directory
    has no readable checkpoint (a WAL without its baseline image cannot
    reproduce the pre-WAL rows; surfacing that beats silently starting
    empty).  The returned database has **no WAL attached** — pass it to
    :func:`open_durable` (or call
    :meth:`~repro.relational.database.Database.attach_wal`) to resume
    durable commits, which keeps ``recover`` itself read-only on the
    artifacts and therefore safe to run any number of times.
    """
    directory = Path(directory)
    if not directory.exists():
        raise CorruptRecordError(f"durability directory {directory} does not exist")
    database, checkpoint_epoch = read_checkpoint(checkpoint_path(directory))
    database._epoch = checkpoint_epoch
    scan = read_wal(wal_path(directory))
    replayed = 0
    skipped = 0
    for record in scan.records:
        if record.epoch <= database.epoch:
            skipped += 1
            continue
        if record.epoch != database.epoch + 1:
            raise CorruptRecordError(
                f"WAL record at epoch {record.epoch} does not extend the "
                f"recovered epoch {database.epoch}: the log is missing a record"
            )
        applied = database.apply_delta(record.modifications)
        if len(applied.effective) != len(record.modifications):
            raise CorruptRecordError(
                f"WAL record at epoch {record.epoch} replayed as a partial "
                f"no-op ({len(applied.effective)} of "
                f"{len(record.modifications)} modifications effective): the "
                f"log does not describe this checkpoint's history"
            )
        replayed += 1
    active = _metrics._ACTIVE
    if active is not None and replayed:
        active.inc("recovery.records.replayed", replayed)
    return RecoveryResult(
        database=database,
        epoch=database.epoch,
        checkpoint_epoch=checkpoint_epoch,
        records_replayed=replayed,
        records_skipped=skipped,
        torn_tail_bytes=scan.torn_tail_bytes,
    )
