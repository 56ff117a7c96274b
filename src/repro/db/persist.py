"""Persistence: save and load a graph database's offline structures.

The paper's offline phase (2-hop cover + base tables + join index) is the
expensive part of the system, so a production deployment computes it once
and reloads it across sessions.  Two formats coexist:

* **JSON (v1)** — serializes the two inputs that determine everything
  else (the data graph and its 2-hop labeling); :func:`load_database`
  rebuilds the :class:`~repro.db.database.GraphDatabase` (tables, cluster
  index, W-table, catalog) from them deterministically.  Portable,
  diffable, cannot execute code on load — and O(rebuild) to open.
* **Binary snapshot** (:mod:`repro.storage.snapshot`) — a single
  CRC-checked file holding *every* offline structure as ``array('q')``
  columns, loaded via mmap with zero rebuild; codes, subclusters and
  base tables materialize lazily on first touch.

:func:`load_database` dispatches on the file's magic bytes, so callers
(and the CLI) never name the format; :func:`save_database` picks binary
for a ``.snap`` extension or an explicit ``format="snapshot"``.

Both writers use the full crash-atomic sequence: write to a temp file,
``flush`` + ``fsync`` it, :func:`os.replace` into place, then fsync the
directory entry — a power cut can neither promote a truncated temp file
nor lose the rename.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from ..graph.digraph import DiGraph
from ..labeling.twohop import TwoHopLabeling
from ..storage.buffer import DEFAULT_BUFFER_BYTES
from ..storage.snapshot import Snapshot, is_snapshot, write_snapshot
from .database import GraphDatabase

FORMAT_VERSION = 1

SNAPSHOT_EXTENSION = ".snap"


def _labeling_payload(labeling: TwoHopLabeling) -> dict:
    return {
        "in_codes": [sorted(code) for code in labeling.in_codes],
        "out_codes": [sorted(code) for code in labeling.out_codes],
    }


def _write_atomic(path: str, payload: bytes) -> None:
    """Temp file + flush + fsync + rename + directory fsync."""
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as f:
        f.write(payload)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp_path, path)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platforms without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystem refuses directory fsync
        pass
    finally:
        os.close(fd)


def save_database(db: GraphDatabase, path: str, format: Optional[str] = None) -> None:
    """Serialize *db* to *path*.

    ``format`` is ``"json"`` (graph + labeling, v1), ``"snapshot"``
    (binary, full offline state), or ``None`` to infer from the
    extension: ``.snap`` means snapshot, anything else stays JSON — so
    existing callers are unaffected.
    """
    if format is None:
        format = "snapshot" if path.endswith(SNAPSHOT_EXTENSION) else "json"
    if format == "snapshot":
        write_snapshot(db, path)
        return
    if format != "json":
        raise ValueError(f"unknown save format {format!r}; use 'json' or 'snapshot'")
    graph = db.graph
    payload = {
        "format_version": FORMAT_VERSION,
        "graph": {
            "labels": list(graph.labels()),
            "edges": [[u, v] for u, v in graph.edges()],
        },
        "labeling": _labeling_payload(db.labeling),
    }
    _write_atomic(path, json.dumps(payload).encode("utf-8"))


def load_database(
    path: str,
    buffer_bytes: int = DEFAULT_BUFFER_BYTES,
) -> GraphDatabase:
    """Load a database file of either format, detected by magic bytes.

    A binary snapshot maps the file and constructs the database around
    it (:meth:`GraphDatabase.from_snapshot` — no rebuild, lazy decode);
    a JSON file takes the v1 path: reuse the stored labeling verbatim
    and rebuild the (cheap, deterministic) tables and indexes.
    """
    if is_snapshot(path):
        return GraphDatabase.from_snapshot(
            Snapshot.open(path), buffer_bytes=buffer_bytes
        )
    with open(path) as f:
        payload = json.load(f)
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported database file version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    graph = DiGraph()
    graph.add_nodes(payload["graph"]["labels"])
    graph.add_edges((u, v) for u, v in payload["graph"]["edges"])
    labeling = TwoHopLabeling(
        in_codes=[frozenset(code) for code in payload["labeling"]["in_codes"]],
        out_codes=[frozenset(code) for code in payload["labeling"]["out_codes"]],
    )
    return GraphDatabase(graph, labeling=labeling, buffer_bytes=buffer_bytes)
