"""Persistence: save and load a graph database's offline structures.

The paper's offline phase (2-hop cover + base tables + join index) is the
expensive part of the system, so a production deployment computes it once
and reloads it across sessions.  The one on-disk format is the binary
snapshot (:mod:`repro.storage.snapshot`): a single CRC-checked file
holding *every* offline structure as ``array('q')`` columns, loaded via
mmap with zero rebuild; codes, subclusters and base tables materialize
lazily on first touch.  A file that is not a snapshot (a truncated one,
or a foreign one) fails :meth:`~repro.storage.snapshot.Snapshot.open`
with :class:`~repro.storage.snapshot.SnapshotError`.

The file is written by one crash-atomic writer,
:func:`repro.storage.snapshot.write_atomic`: temp file, ``flush`` +
``fsync``, :func:`os.replace` into place, then fsync the directory entry
— a power cut can neither promote a truncated temp file nor lose the
rename.
"""

from __future__ import annotations

from ..storage.buffer import DEFAULT_BUFFER_BYTES
from ..storage.snapshot import Snapshot, write_snapshot
from .database import GraphDatabase, SnapshotDatabase


def save_database(db: GraphDatabase, path: str) -> None:
    """Write *db* to *path* as a binary snapshot."""
    write_snapshot(db, path)


def load_database(
    path: str,
    buffer_bytes: int = DEFAULT_BUFFER_BYTES,
) -> SnapshotDatabase:
    """Map the snapshot at *path* and construct the database around it
    (:meth:`GraphDatabase.from_snapshot` — no rebuild, lazy decode)."""
    return GraphDatabase.from_snapshot(Snapshot.open(path), buffer_bytes=buffer_bytes)
