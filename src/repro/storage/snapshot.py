"""Versioned binary snapshot format with mmap-backed, rebuild-free loading.

The offline phase (2-hop cover, base tables, cluster R-join index,
W-table, catalog) is the expensive part of the system, and the online
phase only reads it.  This module defines the one on-disk database
format: a single file holding every offline structure as ``array('q')``
columns (the representation the run kernels already use), written with
:mod:`struct` / ``array.tobytes`` and read back through :mod:`mmap`:

* loading verifies the header, the section table and every section's
  CRC32, then serves all reads out of the mapping — per-row payloads
  (graph codes, subclusters, W-table center lists) are copied out
  lazily on first probe and memoized by their consumers
  (:class:`~repro.labeling.twohop.TwoHopLabeling`'s array cache,
  :class:`~repro.db.join_index.SnapshotRJoinIndex`'s leaf memo, and the
  engine's cross-query ``CenterCache``);
* nothing is rebuilt: no base-table inserts, no cluster scan, no catalog
  recomputation — those structures materialize on demand.

This project-specific layering rule is enforced by
``lint/mmap-outside-snapshot`` (``tests/test_source_rules.py``):
:mod:`mmap` and :mod:`struct` imports are confined to this module, so
every binary-layout assumption lives in one audited place.

On-disk layout (all integers little-endian, sections 8-byte aligned)::

    header    magic "RGPMSNAP" + u32 version + u32 flags          16 B
    sections  raw bytes, 8-byte aligned
    TOC       per section: 16 B name + u64 offset + u64 length
              + u32 crc32 + u32 reserved                          40 B
    footer    u64 toc_offset + u64 toc_length + u32 prefix_crc
              + u32 section_count + magic                         32 B

``prefix_crc`` is the CRC32 of *everything before the footer* (header,
sections, alignment padding and the TOC), so in combination with the
footer's own self-describing fields — each checked against the file size
and the magic — every byte of the file is covered: a truncated file, a
flipped byte anywhere, an unknown version or a foreign byte order all
raise :class:`SnapshotError` at :meth:`Snapshot.open` — never garbage
query results.  The per-section CRCs in the TOC allow the same check per
section (and localize the damage when it fails).

Run encoding (format version 2, the only layout): every sorted id run
(a node's code, a subcluster, a W-table center list, the sorted edge
source column) is stored as its absolute values, so a run decodes with
one ``array('q', slice)`` copy.  The header's flags word is reserved and
must be zero.

No accessor reachable from outside this module returns a ``memoryview``
or a lazy iterator over one — every result is a materialised array,
tuple, list or dict — so nothing a caller holds can pin the mapping past
:meth:`Snapshot.close`.
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import zlib
from array import array
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

SNAPSHOT_MAGIC = b"RGPMSNAP"
SNAPSHOT_VERSION = 2

_HEADER = struct.Struct("<8sII")
_TOC_ENTRY = struct.Struct("<16sQQII")
_FOOTER = struct.Struct("<QQII8s")

#: subcluster side tags in the ``subdir`` section
SIDE_F = 0
SIDE_T = 1

#: the sections a well-formed snapshot must contain, in file order
SECTION_NAMES = (
    "meta",        # counters: nodes, edges, labels, centers, wpairs, subruns
    "labelnames",  # NUL-joined UTF-8 label dictionary (id = position)
    "nodelabels",  # per-node label id                                  [n]
    "edges",       # sorted src column + dst column                    [2E]
    "inoff",       # CSR offsets into inval, in elements              [n+1]
    "inval",       # per-node in-code, sorted
    "outoff",      # CSR offsets into outval                          [n+1]
    "outval",      # per-node out-code, sorted
    "wdir",        # W-table directory: (x_id, y_id) per pair          [2P]
    "woff",        # CSR offsets into wval                            [P+1]
    "wval",        # per-pair center list, sorted
    "centers",     # sorted center ids                                  [C]
    "suboff",      # per-center row offsets into subdir               [C+1]
    "subdir",      # (side, label_id, value_offset, count) per run     [4R]
    "subval",      # subcluster node runs, sorted
    "extents",     # catalog: extent size per label id                  [L]
    "catpairs",    # catalog: (x, y, pair_estimate, centers, volume)   [5K]
)

_META_FIELDS = 6


class SnapshotError(Exception):
    """The file is not a readable snapshot (corrupt, truncated, foreign)."""


def _require_little_endian() -> None:
    if sys.byteorder != "little":  # pragma: no cover - exotic platforms
        raise SnapshotError(
            "binary snapshots are little-endian; this platform is "
            f"{sys.byteorder}-endian"
        )


# ----------------------------------------------------------------------
# encoding helpers
# ----------------------------------------------------------------------
def _encode_runs(runs: Sequence[Sequence[int]]) -> Tuple[array, array]:
    """CSR-encode sorted id runs: (element offsets [len+1], values)."""
    offsets = array("q", [0])
    values = array("q")
    for run in runs:
        values.extend(run)
        offsets.append(len(values))
    return offsets, values


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
class _SnapshotWriter:
    """Accumulates named sections and writes the final single file."""

    def __init__(self) -> None:
        self._sections: List[Tuple[str, bytes]] = []

    def add(self, name: str, payload: bytes) -> None:
        if len(name.encode("ascii")) > 16:
            raise ValueError(f"section name {name!r} exceeds 16 bytes")
        self._sections.append((name, payload))

    def add_array(self, name: str, values: array) -> None:
        self.add(name, values.tobytes())

    def tobytes(self) -> bytes:
        out = bytearray(
            _HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, 0)  # flags: reserved
        )
        toc = bytearray()
        for name, payload in self._sections:
            if pad := (-len(out)) % 8:
                out += b"\x00" * pad
            toc += _TOC_ENTRY.pack(
                name.encode("ascii").ljust(16, b"\x00"),
                len(out),
                len(payload),
                zlib.crc32(payload),
                0,
            )
            out += payload
        if pad := (-len(out)) % 8:
            out += b"\x00" * pad
        toc_offset = len(out)
        out += toc
        out += _FOOTER.pack(
            toc_offset,
            len(toc),
            zlib.crc32(bytes(out)),  # prefix CRC: every byte before the footer
            len(self._sections),
            SNAPSHOT_MAGIC,
        )
        return bytes(out)


def encode_snapshot(db) -> bytes:
    """Serialize a built :class:`~repro.db.database.GraphDatabase`.

    Reads only the public surfaces (graph, labeling codes, join-index
    leaves, W-table entries, catalog stats), so it works identically on
    an eagerly-built database and on a snapshot-loaded one — which is
    what makes save → load → save byte-stable.
    """
    _require_little_endian()
    graph = db.graph
    labeling = db.labeling
    index = db.join_index
    catalog = db.catalog
    n = graph.node_count

    label_names = sorted(set(graph.labels())) if n else []
    label_ids = {name: i for i, name in enumerate(label_names)}

    writer = _SnapshotWriter()
    writer.add(
        "labelnames", b"\x00".join(name.encode("utf-8") for name in label_names)
    )
    writer.add_array(
        "nodelabels", array("q", (label_ids[graph.label(v)] for v in range(n)))
    )

    edges = sorted(graph.edges())
    edge_values = array("q", (u for u, _ in edges))
    edge_values.extend(v for _, v in edges)
    writer.add_array("edges", edge_values)

    in_off, in_val = _encode_runs([sorted(labeling.in_codes[v]) for v in range(n)])
    out_off, out_val = _encode_runs([sorted(labeling.out_codes[v]) for v in range(n)])
    writer.add_array("inoff", in_off)
    writer.add_array("inval", in_val)
    writer.add_array("outoff", out_off)
    writer.add_array("outval", out_val)

    wdir = array("q")
    wruns: List[Sequence[int]] = []
    for (x_label, y_label), centers in sorted(index.wtable_items()):
        wdir.extend((label_ids[x_label], label_ids[y_label]))
        wruns.append(centers)
    w_off, w_val = _encode_runs(wruns)
    writer.add_array("wdir", wdir)
    writer.add_array("woff", w_off)
    writer.add_array("wval", w_val)

    center_ids = array("q")
    sub_off = array("q", [0])
    sub_dir = array("q")
    sub_runs: List[Sequence[int]] = []
    run_count = 0
    value_offset = 0
    for center, f_sub, t_sub in index.cluster_items():
        center_ids.append(center)
        for side, subclusters in ((SIDE_F, f_sub), (SIDE_T, t_sub)):
            for label in sorted(subclusters):
                nodes = subclusters[label]
                if not nodes:
                    continue
                sub_dir.extend((side, label_ids[label], value_offset, len(nodes)))
                sub_runs.append(nodes)
                value_offset += len(nodes)
                run_count += 1
        sub_off.append(run_count)
    _, sub_val = _encode_runs(sub_runs)
    writer.add_array("centers", center_ids)
    writer.add_array("suboff", sub_off)
    writer.add_array("subdir", sub_dir)
    writer.add_array("subval", sub_val)

    writer.add_array(
        "extents",
        array("q", (catalog.extent_size(name) for name in label_names)),
    )
    cat_pairs = array("q")
    for (x_label, y_label), stats in sorted(catalog.all_pairs().items()):
        cat_pairs.extend(
            (
                label_ids[x_label],
                label_ids[y_label],
                stats.pair_estimate,
                stats.center_count,
                stats.fetch_volume,
            )
        )
    writer.add_array("catpairs", cat_pairs)

    meta = array(
        "q",
        (
            n,
            len(edges),
            len(label_names),
            len(center_ids),
            len(wruns),
            run_count,
        ),
    )
    writer._sections.insert(0, ("meta", meta.tobytes()))
    return writer.tobytes()


def write_snapshot(db, path: str) -> None:
    """Write *db* to *path* with :func:`write_atomic`."""
    write_atomic(path, encode_snapshot(db))


def write_atomic(path: str, payload: bytes) -> None:
    """Replace *path* with *payload* crash-atomically.

    Flush and ``fsync`` a temp file before :func:`os.replace`, then
    ``fsync`` the directory entry, so a power cut can neither promote a
    truncated temp file nor lose the rename itself.  If the write, the
    fsync or the replace raises, the temp file is removed and *path*
    keeps its old bytes.
    """
    tmp_path = f"{path}.tmp"
    try:
        with open(tmp_path, "wb") as f:
            f.write(payload)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
    try:
        fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. platforms without dir fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - not supported on this filesystem
        pass
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------
class Snapshot:
    """One open snapshot file: verified header/TOC, lazily decoded reads.

    :meth:`open` maps the file and checks structure + every section CRC
    up front (one sequential pass over the mapping — cheap compared to a
    rebuild); after that every accessor copies exactly the rows
    asked for out of the mapping.  ``decode_stats`` counts the decodes,
    so tests can pin the laziness contract.
    """

    def __init__(self, path: str, buffer: bytes, view: memoryview,
                 sections: Dict[str, Tuple[int, int]], mapped: Optional[mmap.mmap]):
        self.path = path
        self._buffer = buffer
        self._view = view
        self._sections = sections
        self._mmap = mapped
        self._closed = False
        self.decode_stats: Dict[str, int] = {
            "code_rows": 0, "wtable_pairs": 0, "subcluster_runs": 0,
        }
        meta = self._ints("meta")
        if len(meta) != _META_FIELDS:
            raise SnapshotError(
                f"meta section has {len(meta)} fields, expected {_META_FIELDS}"
            )
        (self.node_count, self.edge_count, self.label_count,
         self.center_count, self.wtable_pair_count, self.subcluster_runs) = meta
        raw_names = bytes(self._raw("labelnames"))
        self.label_names: List[str] = (
            [part.decode("utf-8") for part in raw_names.split(b"\x00")]
            if raw_names else []
        )
        if len(self.label_names) != self.label_count:
            raise SnapshotError(
                f"label dictionary holds {len(self.label_names)} names but "
                f"meta declares {self.label_count}"
            )
        self._check_geometry()

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path: str) -> "Snapshot":
        """Map and verify *path*; raises :class:`SnapshotError` on any
        structural problem, bad CRC, short file or foreign format, and
        lets the :class:`OSError` of a file that cannot be opened at all
        through."""
        _require_little_endian()
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            if size < _HEADER.size + _FOOTER.size:
                raise SnapshotError(
                    f"{path!r} is {size} bytes — too short for a snapshot"
                )
            mapped: Optional[mmap.mmap]
            try:
                mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
                buffer: bytes = mapped  # type: ignore[assignment]
            except (ValueError, OSError):  # pragma: no cover - no-mmap fs
                mapped = None
                f.seek(0)
                buffer = f.read()
        try:
            sections = cls._verify(path, buffer, size)
            return cls(path, buffer, memoryview(buffer), sections, mapped)
        except SnapshotError:
            if mapped is not None:
                mapped.close()
            raise

    @staticmethod
    def _verify(path: str, buffer, size: int) -> Dict[str, Tuple[int, int]]:
        magic, version, flags = _HEADER.unpack_from(buffer, 0)
        if magic != SNAPSHOT_MAGIC:
            raise SnapshotError(f"{path!r} does not start with snapshot magic")
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"{path!r} is snapshot version {version}; this build reads "
                f"version {SNAPSHOT_VERSION}"
            )
        if flags:
            raise SnapshotError(
                f"{path!r} sets unknown header flag bits {flags:#x}; "
                f"version {SNAPSHOT_VERSION} defines none"
            )
        toc_offset, toc_length, prefix_crc, section_count, end_magic = (
            _FOOTER.unpack_from(buffer, size - _FOOTER.size)
        )
        if end_magic != SNAPSHOT_MAGIC:
            raise SnapshotError(f"{path!r} footer magic missing (truncated?)")
        if (
            toc_offset + toc_length + _FOOTER.size != size
            or toc_length != section_count * _TOC_ENTRY.size
        ):
            raise SnapshotError(f"{path!r} section table geometry is corrupt")
        # the prefix CRC covers header, sections, padding and TOC — with
        # the footer's self-checked fields, every byte of the file
        if zlib.crc32(bytes(buffer[:size - _FOOTER.size])) != prefix_crc:
            raise SnapshotError(f"{path!r} fails its whole-file CRC")
        toc = bytes(buffer[toc_offset:toc_offset + toc_length])
        sections: Dict[str, Tuple[int, int]] = {}
        for position in range(section_count):
            raw_name, offset, length, crc, _reserved = _TOC_ENTRY.unpack_from(
                toc, position * _TOC_ENTRY.size
            )
            name = raw_name.rstrip(b"\x00").decode("ascii")
            if offset + length > toc_offset:
                raise SnapshotError(
                    f"{path!r} section {name!r} runs past the section table"
                )
            if zlib.crc32(bytes(buffer[offset:offset + length])) != crc:
                raise SnapshotError(f"{path!r} section {name!r} fails its CRC")
            sections[name] = (offset, length)
        missing = [name for name in SECTION_NAMES if name not in sections]
        if missing:
            raise SnapshotError(f"{path!r} is missing section(s) {missing}")
        return sections

    def _check_geometry(self) -> None:
        """Cross-check declared counts against section sizes."""
        expectations = {
            "nodelabels": self.node_count,
            "edges": 2 * self.edge_count,
            "inoff": self.node_count + 1,
            "outoff": self.node_count + 1,
            "wdir": 2 * self.wtable_pair_count,
            "woff": self.wtable_pair_count + 1,
            "centers": self.center_count,
            "suboff": self.center_count + 1,
            "subdir": 4 * self.subcluster_runs,
            "extents": self.label_count,
        }
        for name, expected in expectations.items():
            actual = len(self._ints(name))
            if actual != expected:
                raise SnapshotError(
                    f"section {name!r} holds {actual} values, expected "
                    f"{expected} from the meta counters"
                )
        if len(self._ints("catpairs")) % 5:
            raise SnapshotError("section 'catpairs' is not rows of 5 values")

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the mapping; idempotent once it has succeeded.

        Further section access on this object raises
        ``SnapshotError("snapshot is closed")``.  If a ``memoryview``
        into the mapping is still alive (no accessor hands one out, so
        this means a storage-layer bug) the mapping cannot be unmapped —
        that raises ``BufferError`` (or
        :class:`repro.analysis.sanitizer.SanitizerError` under
        ``REPRO_SANITIZE=1``).  The mapping is then still open: calling
        ``close()`` again once the view is gone retries the unmap.
        """
        if self._closed and self._mmap is None:
            return
        self._closed = True
        self._view.release()
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError as exc:
                # imported lazily: the analysis layer must not become a
                # load-time dependency of the storage layer
                from ..analysis.sanitizer import SanitizerError, sanitize_enabled

                message = (
                    f"snapshot {self.path!r} closed while zero-copy views "
                    f"into its mapping are still alive: {exc}"
                )
                if sanitize_enabled():
                    raise SanitizerError(message) from exc
                raise BufferError(message) from exc
            self._mmap = None

    def _raw(self, name: str) -> memoryview:
        if self._closed:
            raise SnapshotError("snapshot is closed")
        offset, length = self._sections[name]
        return self._view[offset:offset + length]

    def _ints(self, name: str) -> memoryview:
        """A section as a zero-copy int64 view straight into the mapping."""
        return self._raw(name).cast("q")

    # ------------------------------------------------------------------
    # graph
    # ------------------------------------------------------------------
    def build_graph(self):
        """Reconstruct the :class:`~repro.graph.digraph.DiGraph` eagerly.

        The graph itself stays materialized (labels and extents are read
        constantly and it is O(V+E) small); laziness is reserved for the
        quadratic-ish structures — codes, subclusters, base tables.
        """
        from ..graph.digraph import DiGraph

        names = self.label_names
        edges = self._ints("edges")
        count = self.edge_count
        graph = DiGraph()
        graph.add_nodes(names[i] for i in self._ints("nodelabels"))
        graph.add_edges(zip(edges[:count], edges[count:]))
        return graph

    # ------------------------------------------------------------------
    # 2-hop codes
    # ------------------------------------------------------------------
    def _code_row(self, offsets_name: str, values_name: str, node: int) -> array:
        if not (0 <= node < self.node_count):
            raise IndexError(f"node {node} outside snapshot range")
        offsets = self._ints(offsets_name)
        values = self._ints(values_name)
        self.decode_stats["code_rows"] += 1
        return array("q", values[offsets[node]:offsets[node + 1]])

    def in_code_array(self, node: int) -> array:
        """``in(x)`` as a freshly decoded sorted ``array('q')``."""
        return self._code_row("inoff", "inval", node)

    def out_code_array(self, node: int) -> array:
        """``out(x)`` as a freshly decoded sorted ``array('q')``."""
        return self._code_row("outoff", "outval", node)

    # ------------------------------------------------------------------
    # W-table
    # ------------------------------------------------------------------
    def wtable_pairs(self) -> List[Tuple[str, str]]:
        names = self.label_names
        wdir = self._ints("wdir")
        return [
            (names[wdir[2 * i]], names[wdir[2 * i + 1]])
            for i in range(self.wtable_pair_count)
        ]

    def wtable_sizes(self) -> Dict[Tuple[str, str], int]:
        offsets = self._ints("woff")
        return {
            pair: offsets[i + 1] - offsets[i]
            for i, pair in enumerate(self.wtable_pairs())
        }

    def wtable_centers(self, position: int) -> array:
        """Decode the center list of the *position*-th W-table pair."""
        offsets = self._ints("woff")
        values = self._ints("wval")
        self.decode_stats["wtable_pairs"] += 1
        return array("q", values[offsets[position]:offsets[position + 1]])

    # ------------------------------------------------------------------
    # cluster directory
    # ------------------------------------------------------------------
    def centers(self) -> array:
        """The sorted center-id column, copied out of the mapping."""
        return array("q", self._ints("centers"))

    def center_position(self, center: int) -> int:
        """Index of *center* in the directory, or -1 if absent."""
        centers = self._ints("centers")
        position = bisect_left(centers, center)
        if position < len(centers) and centers[position] == center:
            return position
        return -1

    def subclusters_at(
        self, position: int
    ) -> Tuple[Dict[str, Tuple[int, ...]], Dict[str, Tuple[int, ...]]]:
        """Decode the ``({X: F-subcluster}, {Y: T-subcluster})`` leaf of
        the *position*-th center (both labeled maps, sorted tuples)."""
        sub_off = self._ints("suboff")
        sub_dir = self._ints("subdir")
        sub_val = self._ints("subval")
        names = self.label_names
        f_sub: Dict[str, Tuple[int, ...]] = {}
        t_sub: Dict[str, Tuple[int, ...]] = {}
        for run in range(sub_off[position], sub_off[position + 1]):
            side, label_id, value_offset, count = sub_dir[4 * run:4 * run + 4]
            nodes = tuple(sub_val[value_offset:value_offset + count])
            self.decode_stats["subcluster_runs"] += 1
            (f_sub if side == SIDE_F else t_sub)[names[label_id]] = nodes
        return f_sub, t_sub

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def extent_sizes(self) -> Dict[str, int]:
        extents = self._ints("extents")
        return {name: extents[i] for i, name in enumerate(self.label_names)}

    def catalog_pairs(self) -> Dict[Tuple[str, str], Tuple[int, int, int]]:
        """``{(X, Y): (pair_estimate, center_count, fetch_volume)}``."""
        rows = self._ints("catpairs")
        names = self.label_names
        return {
            (names[rows[i]], names[rows[i + 1]]): (
                rows[i + 2], rows[i + 3], rows[i + 4]
            )
            for i in range(0, len(rows), 5)
        }

    # ------------------------------------------------------------------
    # inspection (CLI `repro stats`)
    # ------------------------------------------------------------------
    def file_size(self) -> int:
        return len(self._buffer)

    def section_table(self) -> List[Tuple[str, int, int]]:
        """``(name, offset, length)`` rows in file order."""
        return sorted(
            ((name, off, length) for name, (off, length) in self._sections.items()),
            key=lambda row: row[1],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Snapshot({self.path!r}, nodes={self.node_count}, "
            f"edges={self.edge_count}, centers={self.center_count})"
        )


__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SECTION_NAMES",
    "Snapshot",
    "SnapshotError",
    "encode_snapshot",
    "write_atomic",
    "write_snapshot",
]
