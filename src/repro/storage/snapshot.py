"""Versioned binary snapshot format with mmap-backed, rebuild-free loading.

The offline phase (2-hop cover, base tables, cluster R-join index,
W-table, catalog) is the expensive part of the system, and the online
phase only reads it.  This module defines the one on-disk database
format: a single file holding every offline structure as ``array('q')``
columns (the representation the run kernels already use), written with
:mod:`struct` / ``array.tobytes`` and read back through :mod:`mmap`:

* loading verifies the header, the section table and every section's
  CRC32 and casts each integer section to an int64 view once; after
  that every read copies exactly the run it asks for out of the mapping
  (one ``array.frombytes`` of the run's byte slice) and keeps nothing —
  the engine's cross-query ``CenterCache`` is the one cache above it;
* nothing is rebuilt: no graph, no base-table inserts, no cluster scan,
  no catalog recomputation.

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
one ``frombytes`` copy of its bytes.  The header's flags word is reserved and
must be zero.

No accessor reachable from outside this module returns a ``memoryview``
or a lazy iterator over one — every result is a materialised array,
tuple, list or dict — so nothing a caller holds can pin the mapping past
:meth:`Snapshot.close`, which releases the snapshot's own section views
before it unmaps.
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
    """Serialize a database of either tier.

    Reads only ``db.offline_structures()`` (graph, labeling codes,
    cluster leaves, W-table entries) and ``db.catalog``, so it works
    identically on an eagerly-built database and on a snapshot-loaded
    one, which decodes them from its file — which is what makes save →
    load → save byte-stable.
    """
    _require_little_endian()
    graph, labeling, cluster_items, wtable_items = db.offline_structures()
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
    for (x_label, y_label), centers in sorted(wtable_items):
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
    for center, f_sub, t_sub in cluster_items:
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
    """One open snapshot file: verified header/TOC, per-call run copies.

    :meth:`open` maps the file and checks structure + every section CRC
    up front (one sequential pass over the mapping — cheap compared to a
    rebuild), then casts each integer section to an int64 view once.
    After that every accessor copies exactly the rows asked for out of
    the mapping — a run with one ``array.frombytes`` of its byte slice —
    and keeps nothing.
    """

    def __init__(self, path: str, buffer: bytes,
                 sections: Dict[str, Tuple[int, int]], mapped: Optional[mmap.mmap]):
        self.path = path
        self._buffer = buffer
        self._view = memoryview(buffer)
        self._sections = sections
        self._mmap = mapped
        self._closed = False
        # per integer section: its bytes and its int64 cast, made once
        self._byte_views: Dict[str, memoryview] = {}
        self._int_views: Dict[str, memoryview] = {}
        try:
            self._cast_columns()
            meta = self._col("meta")
            if len(meta) != _META_FIELDS:
                raise SnapshotError(
                    f"meta section has {len(meta)} fields, expected {_META_FIELDS}"
                )
            (self.node_count, self.edge_count, self.label_count,
             self.center_count, self.wtable_pair_count,
             self.subcluster_runs) = meta.tolist()
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
        except BaseException:
            # a half-built snapshot must not keep its views: open() unmaps
            self._release_views()
            raise

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
            return cls(path, buffer, sections, mapped)
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

    def _cast_columns(self) -> None:
        """Take every integer section's byte view and int64 cast, once."""
        for name in SECTION_NAMES:
            if name == "labelnames":
                continue
            length = self._sections[name][1]
            if length % 8:
                raise SnapshotError(
                    f"section {name!r} is {length} bytes, not whole int64 values"
                )
            self._byte_views[name] = self._raw(name)
            self._int_views[name] = self._ints(name)

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
            actual = len(self._col(name))
            if actual != expected:
                raise SnapshotError(
                    f"section {name!r} holds {actual} values, expected "
                    f"{expected} from the meta counters"
                )
        if len(self._col("catpairs")) % 5:
            raise SnapshotError("section 'catpairs' is not rows of 5 values")

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the section views, then the mapping; idempotent once
        it has succeeded.

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
        self._release_views()
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

    def _release_views(self) -> None:
        for view in (*self._int_views.values(), *self._byte_views.values()):
            view.release()
        self._view.release()

    def _raw(self, name: str) -> memoryview:
        """A fresh byte view of a section (this module only)."""
        if self._closed:
            raise SnapshotError("snapshot is closed")
        offset, length = self._sections[name]
        return self._view[offset:offset + length]

    def _ints(self, name: str) -> memoryview:
        """A fresh int64 view of a section (this module only)."""
        return self._raw(name).cast("q")

    def _col(self, name: str) -> memoryview:
        """An integer section's int64 view, cast at open (this module
        only: accessors hand out copies)."""
        if self._closed:
            raise SnapshotError("snapshot is closed")
        return self._int_views[name]

    def _bytes(self, name: str) -> memoryview:
        """An integer section's byte view, taken at open (this module only)."""
        if self._closed:
            raise SnapshotError("snapshot is closed")
        return self._byte_views[name]

    def _run(self, offsets_name: str, values_name: str, position: int) -> array:
        """The *position*-th CSR run of a column pair, copied out with one
        ``frombytes`` of its byte slice."""
        offsets = self._col(offsets_name)
        run = array("q")
        run.frombytes(
            self._bytes(values_name)[8 * offsets[position]:8 * offsets[position + 1]]
        )
        return run

    # ------------------------------------------------------------------
    # graph (the audit and the writer; no query reads it)
    # ------------------------------------------------------------------
    def build_graph(self):
        """Reconstruct the :class:`~repro.graph.digraph.DiGraph`: O(V+E),
        for the index audit and the writer — the query path never needs
        it (extents come from :meth:`extents`)."""
        from ..graph.digraph import DiGraph

        names = self.label_names
        edges = self._col("edges").tolist()
        count = self.edge_count
        graph = DiGraph()
        graph.add_nodes(names[i] for i in self._col("nodelabels").tolist())
        graph.add_edges(zip(edges[:count], edges[count:]))
        return graph

    def extents(self) -> Dict[str, Tuple[int, ...]]:
        """Every label's nodes, ascending: one pass over the node-label
        column."""
        grouped: List[List[int]] = [[] for _ in self.label_names]
        for node, label_id in enumerate(self._col("nodelabels").tolist()):
            grouped[label_id].append(node)
        return {
            name: tuple(nodes) for name, nodes in zip(self.label_names, grouped)
        }

    # ------------------------------------------------------------------
    # 2-hop codes
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.node_count):
            raise IndexError(f"node {node} outside snapshot range")

    def in_code_array(self, node: int) -> array:
        """``in(x)`` as a freshly copied sorted ``array('q')``."""
        self._check_node(node)
        return self._run("inoff", "inval", node)

    def out_code_array(self, node: int) -> array:
        """``out(x)`` as a freshly copied sorted ``array('q')``."""
        self._check_node(node)
        return self._run("outoff", "outval", node)

    def cover_size(self) -> int:
        """The 2-hop cover size ``|H|`` from the section sizes alone:
        every code holds its own node (``snapshot/code-missing-self``
        checks that), so ``|H| = |inval| + |outval| - 2n``."""
        return (
            len(self._col("inval")) + len(self._col("outval"))
            - 2 * self.node_count
        )

    # ------------------------------------------------------------------
    # W-table
    # ------------------------------------------------------------------
    def wtable_pairs(self) -> List[Tuple[str, str]]:
        names = self.label_names
        wdir = self._col("wdir").tolist()
        return [
            (names[wdir[2 * i]], names[wdir[2 * i + 1]])
            for i in range(self.wtable_pair_count)
        ]

    def wtable_sizes(self) -> Dict[Tuple[str, str], int]:
        offsets = self._col("woff").tolist()
        return {
            pair: offsets[i + 1] - offsets[i]
            for i, pair in enumerate(self.wtable_pairs())
        }

    def wtable_centers(self, position: int) -> array:
        """The center run of the *position*-th W-table pair, copied."""
        return self._run("woff", "wval", position)

    # ------------------------------------------------------------------
    # cluster directory
    # ------------------------------------------------------------------
    def centers(self) -> array:
        """The sorted center-id column, copied out of the mapping."""
        column = array("q")
        column.frombytes(self._bytes("centers"))
        return column

    def center_position(self, center: int) -> int:
        """Index of *center* in the directory, or -1 if absent."""
        centers = self._col("centers")
        position = bisect_left(centers, center)
        if position < len(centers) and centers[position] == center:
            return position
        return -1

    def subcluster_run(self, position: int, side: int, label_id: int) -> Tuple[int, ...]:
        """Copy the *position*-th center's *side* (``SIDE_F``/``SIDE_T``)
        run of label *label_id*, or ``()`` when its leaf has none."""
        sub_off, subdir = self._col("suboff"), self._col("subdir")
        for at in range(4 * sub_off[position], 4 * sub_off[position + 1], 4):
            if subdir[at] == side and subdir[at + 1] == label_id:
                start = subdir[at + 2]
                return tuple(self._col("subval")[start:start + subdir[at + 3]].tolist())
        return ()

    def subclusters_at(
        self, position: int
    ) -> Tuple[Dict[str, Tuple[int, ...]], Dict[str, Tuple[int, ...]]]:
        """Copy the ``({X: F-subcluster}, {Y: T-subcluster})`` leaf of
        the *position*-th center (both labeled maps, sorted tuples)."""
        sub_off = self._col("suboff")
        entries = self._col("subdir")[
            4 * sub_off[position]:4 * sub_off[position + 1]
        ].tolist()
        sub_val = self._col("subval")
        names = self.label_names
        f_sub: Dict[str, Tuple[int, ...]] = {}
        t_sub: Dict[str, Tuple[int, ...]] = {}
        for at in range(0, len(entries), 4):
            side, label_id, value_offset, count = entries[at:at + 4]
            (f_sub if side == SIDE_F else t_sub)[names[label_id]] = tuple(
                sub_val[value_offset:value_offset + count].tolist()
            )
        return f_sub, t_sub

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------
    def extent_sizes(self) -> Dict[str, int]:
        extents = self._col("extents").tolist()
        return {name: extents[i] for i, name in enumerate(self.label_names)}

    def catalog_pairs(self) -> Dict[Tuple[str, str], Tuple[int, int, int]]:
        """``{(X, Y): (pair_estimate, center_count, fetch_volume)}``."""
        rows = self._col("catpairs").tolist()
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
