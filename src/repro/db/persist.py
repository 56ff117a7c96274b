"""Persistence: save and load a graph database's offline structures.

The paper's offline phase (2-hop cover + base tables + join index) is the
expensive part of the system, so a production deployment computes it once
and reloads it across sessions.  The one on-disk format is the binary
snapshot (:mod:`repro.storage.snapshot`): a single CRC-checked file
holding *every* offline structure as ``array('q')`` columns, loaded via
mmap with zero rebuild into a :class:`~repro.db.database.SnapshotDatabase`,
which copies each run out of the mapping when a query asks for it.  A
file that is not a snapshot (a truncated one, or a foreign one) fails
:meth:`~repro.storage.snapshot.Snapshot.open` with
:class:`~repro.storage.snapshot.SnapshotError`.

The file is written by one crash-atomic writer,
:func:`repro.storage.snapshot.write_atomic`: temp file, ``flush`` +
``fsync``, :func:`os.replace` into place, then fsync the directory entry
— a power cut can neither promote a truncated temp file nor lose the
rename.
"""

from __future__ import annotations

from ..storage.snapshot import Snapshot, write_snapshot
from .database import Database, SnapshotDatabase


def save_database(db: Database, path: str) -> None:
    """Write *db* (either tier) to *path* as a binary snapshot."""
    write_snapshot(db, path)


def load_database(path: str) -> SnapshotDatabase:
    """Map the snapshot at *path* and serve it: no graph, no rebuild,
    nothing decoded until a query reads a run."""
    return SnapshotDatabase(Snapshot.open(path))
