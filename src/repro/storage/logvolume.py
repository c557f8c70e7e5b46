"""The Log Volume: multiplexed append-only log streams (paper ref [8]).

Section 4.2: *"The PFS uses the Log Volume ... A Log Volume can contain
multiple Log Streams ... Each Log Stream implements a write API that
supports (1) appending a record to the stream, where each such appended
record is assigned a unique monotonic index number, and (2) chopping
(discarding) all the records up to some index number.  The Log Volume
multiplexes multiple log streams onto a single file, and supports
efficient retrieval of records by index number."*

Two backends share the same API:

* :class:`MemoryBackend` — used inside the discrete-event simulation,
  where durability *timing* is modelled by
  :class:`repro.storage.disk.SimDisk` and only contents matter here.
* :class:`FileBackend` — a real single-file implementation with framed,
  CRC-checked records, used by the PFS microbenchmark (real bytes, real
  flushes) and by crash-recovery tests.  Recovery scans the file,
  drops a torn tail, and rebuilds the per-stream index maps.

File frame layout (little-endian)::

    MAGIC(4) stream_id(4) index(8) length(4) crc32(4) payload(length)

Chops are themselves logged as zero-length control frames with the chop
index in the ``index`` field and length ``0xFFFFFFFF`` sentinel — so a
recovered volume knows not to resurrect chopped records.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

from ..util.crashhooks import HOOKS
from ..util.errors import CorruptLogError, RecordNotFoundError

_MAGIC = b"GLV1"
_HEADER = struct.Struct("<4sIqII")  # magic, stream_id, index, length, crc
_CHOP_SENTINEL = 0xFFFFFFFF


class LogStream:
    """One logical stream within a :class:`LogVolume`.

    Indexes are assigned densely from 0 by order of append.  ``chop(i)``
    discards every record with index ``<= i``; reading such an index
    raises :class:`RecordNotFoundError`.
    """

    def __init__(self, volume: "LogVolume", stream_id: int, name: str) -> None:
        self._volume = volume
        self.stream_id = stream_id
        self.name = name
        self.next_index = 0
        self.chopped_below = 0  # smallest readable index

    # -- write ---------------------------------------------------------
    def append(self, record: bytes) -> int:
        """Append ``record``; returns its monotonic index."""
        if HOOKS.enabled:
            # Crash here: the index was never assigned, nothing stored.
            HOOKS.fire("logstream.append.pre", self._volume.owner)
        index = self.next_index
        self.next_index += 1
        self._volume._backend.append(self.stream_id, index, record)
        if HOOKS.enabled:
            # Crash here: stored and indexed, but the caller's own
            # bookkeeping (e.g. PFS last_index) has not seen it.
            HOOKS.fire("logstream.append.post", self._volume.owner)
        return index

    def chop(self, up_to_index: int) -> None:
        """Discard every record with index ``<= up_to_index``."""
        if up_to_index < self.chopped_below - 1:
            return  # already chopped further
        bound = min(up_to_index, self.next_index - 1)
        if bound < self.chopped_below:
            return
        if HOOKS.enabled:
            HOOKS.fire("logstream.chop.pre", self._volume.owner)
        self._volume._backend.chop(self.stream_id, bound)
        self.chopped_below = bound + 1
        if HOOKS.enabled:
            HOOKS.fire("logstream.chop.post", self._volume.owner)

    def crash_truncate(self, durable_next_index: int) -> int:
        """Simulated crash: discard appends with index >= ``durable_next_index``.

        Only meaningful on the memory backend, where the simulation
        tracks durability externally (a :class:`SimDisk`); the file
        backend loses its torn tail for real during recovery instead.
        Returns the number of records discarded.

        The caller's durable horizon can lag the chop point (records
        may be chopped before their covering sync completes), so the
        discard range starts at whichever is higher: indexes below
        ``chopped_below`` were already discarded by the chop and must
        not be double-counted as crash losses.
        """
        dropped = 0
        backend = self._volume._backend
        start = max(durable_next_index, self.chopped_below)
        for index in range(start, self.next_index):
            if isinstance(backend, MemoryBackend):
                backend._records.pop((self.stream_id, index), None)
            dropped += 1
        self.next_index = max(durable_next_index, self.chopped_below)
        return dropped

    # -- read ----------------------------------------------------------
    def read(self, index: int) -> bytes:
        """Return the record at ``index`` (raises if chopped or unwritten)."""
        if index < self.chopped_below:
            raise RecordNotFoundError(
                f"stream {self.name}: index {index} chopped (floor {self.chopped_below})"
            )
        if index >= self.next_index:
            raise RecordNotFoundError(f"stream {self.name}: index {index} not yet written")
        return self._volume._backend.read(self.stream_id, index)

    def read_range(self, first_index: int, last_index: int) -> List[bytes]:
        """Records with indexes in ``[first_index, last_index]``, ascending."""
        return [self.read(i) for i in range(max(first_index, self.chopped_below), last_index + 1)]

    def __len__(self) -> int:
        """Number of live (unchopped) records."""
        return self.next_index - self.chopped_below


class MemoryBackend:
    """In-memory record store (simulation use; no durability semantics)."""

    def __init__(self) -> None:
        self._records: Dict[Tuple[int, int], bytes] = {}
        self.bytes_appended = 0

    def append(self, stream_id: int, index: int, record: bytes) -> None:
        self._records[(stream_id, index)] = record
        self.bytes_appended += len(record)

    def read(self, stream_id: int, index: int) -> bytes:
        try:
            return self._records[(stream_id, index)]
        except KeyError:
            raise RecordNotFoundError(f"stream {stream_id} index {index} missing") from None

    def chop(self, stream_id: int, up_to_index: int) -> None:
        # Lazy: indexes are dense from 0, so walk down from the bound
        # until we hit already-removed entries.
        i = up_to_index
        while i >= 0 and (stream_id, i) in self._records:
            del self._records[(stream_id, i)]
            i -= 1

    def flush(self) -> None:  # durability is a no-op in memory
        pass

    def close(self) -> None:
        pass


class FileBackend:
    """Single-file framed backend with CRC validation and recovery.

    The offset index lives in memory (rebuilt on open by scanning), as
    in log-structured designs.  ``flush`` performs a real
    ``flush + os.fsync`` — the PFS microbenchmark measures these.
    """

    def __init__(self, path: str, fsync: bool = True) -> None:
        self.path = path
        self.fsync = fsync
        self.bytes_appended = 0
        self.flush_count = 0
        #: Bytes discarded by recovery because the tail frame was torn
        #: (short write) or failed its CRC — never an exception.
        self.torn_bytes_truncated = 0
        self._offsets: Dict[Tuple[int, int], Tuple[int, int]] = {}  # (sid, idx) -> (offset, length)
        self._chops: Dict[int, int] = {}  # sid -> chopped-below index
        self._next_index: Dict[int, int] = {}
        self._file = open(path, "a+b")
        self._recover()

    # -- recovery ------------------------------------------------------
    def _recover(self) -> None:
        """Scan the file, rebuild indexes, truncate any torn tail."""
        self._file.seek(0)
        valid_end = 0
        while True:
            header = self._file.read(_HEADER.size)
            if len(header) < _HEADER.size:
                break
            try:
                magic, sid, index, length, crc = _HEADER.unpack(header)
            except struct.error:  # pragma: no cover - defensive
                break
            if magic != _MAGIC:
                break
            if length == _CHOP_SENTINEL:
                self._apply_chop(sid, index)
                valid_end = self._file.tell()
                continue
            payload = self._file.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                break  # torn or corrupt tail: stop here
            self._offsets[(sid, index)] = (valid_end + _HEADER.size, length)
            self._next_index[sid] = max(self._next_index.get(sid, 0), index + 1)
            valid_end = self._file.tell()
        self._file.seek(0, os.SEEK_END)
        self.torn_bytes_truncated += self._file.tell() - valid_end
        self._file.truncate(valid_end)
        self._file.seek(0, os.SEEK_END)
        # Re-apply chops recorded earlier in the scan (a chop frame may
        # precede the records it chops only if compaction reordered the
        # file; applying again is idempotent and safe).
        for sid, below in list(self._chops.items()):
            self._apply_chop(sid, below - 1)

    def _apply_chop(self, sid: int, up_to_index: int) -> None:
        below = up_to_index + 1
        if below <= self._chops.get(sid, 0):
            return
        self._chops[sid] = below
        for key in [k for k in self._offsets if k[0] == sid and k[1] < below]:
            del self._offsets[key]

    # -- API -------------------------------------------------------------
    def append(self, stream_id: int, index: int, record: bytes) -> None:
        header = _HEADER.pack(_MAGIC, stream_id, index, len(record), zlib.crc32(record))
        self._file.write(header + record)
        self._offsets[(stream_id, index)] = (self._file.tell() - len(record), len(record))
        self._next_index[stream_id] = max(self._next_index.get(stream_id, 0), index + 1)
        self.bytes_appended += len(header) + len(record)

    def read(self, stream_id: int, index: int) -> bytes:
        try:
            offset, length = self._offsets[(stream_id, index)]
        except KeyError:
            raise RecordNotFoundError(f"stream {stream_id} index {index} missing") from None
        pos = self._file.tell()
        self._file.flush()
        self._file.seek(offset)
        payload = self._file.read(length)
        self._file.seek(pos)
        if len(payload) != length:
            raise CorruptLogError(f"short read at offset {offset}")
        return payload

    def chop(self, stream_id: int, up_to_index: int) -> None:
        header = _HEADER.pack(_MAGIC, stream_id, up_to_index, _CHOP_SENTINEL, 0)
        self._file.write(header)
        self.bytes_appended += len(header)
        self._apply_chop(stream_id, up_to_index)

    def flush(self) -> None:
        """Durably flush everything appended so far."""
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self.flush_count += 1

    def close(self) -> None:
        self._file.close()

    def recovered_next_index(self, stream_id: int) -> int:
        return self._next_index.get(stream_id, 0)

    def recovered_chopped_below(self, stream_id: int) -> int:
        return self._chops.get(stream_id, 0)


class LogVolume:
    """A set of named log streams multiplexed onto one backend."""

    def __init__(self, backend: Optional[object] = None) -> None:
        self._backend = backend if backend is not None else MemoryBackend()
        self._streams: Dict[str, LogStream] = {}
        self._next_stream_id = 0
        #: Broker whose crash voids un-synced appends (set by
        #: ``Broker._own_storage``); tags this volume's crash points.
        self.owner: Optional[str] = None

    @classmethod
    def in_memory(cls) -> "LogVolume":
        return cls(MemoryBackend())

    @classmethod
    def at_path(cls, path: str, fsync: bool = True) -> "LogVolume":
        """Open (or recover) a file-backed volume at ``path``."""
        backend = FileBackend(path, fsync=fsync)
        volume = cls(backend)
        return volume

    def stream(self, name: str) -> LogStream:
        """Get or create the stream called ``name``.

        Streams are numbered by creation order, so a recovered volume
        must create its streams in the same order it originally did
        (brokers create one stream per pubend, sorted by pubend name).
        """
        if name in self._streams:
            return self._streams[name]
        sid = self._next_stream_id
        self._next_stream_id += 1
        stream = LogStream(self, sid, name)
        backend = self._backend
        if isinstance(backend, FileBackend):
            stream.next_index = backend.recovered_next_index(sid)
            stream.chopped_below = backend.recovered_chopped_below(sid)
        self._streams[name] = stream
        return stream

    def streams(self) -> Iterator[LogStream]:
        return iter(self._streams.values())

    @property
    def bytes_appended(self) -> int:
        """Physical payload bytes appended across all streams.

        The PFS's own ``bytes_written`` is deliberately *logical*
        (footnote-2 accounting, representation-independent); this
        counter is where a columnar batch's smaller physical footprint
        — shared column slices, one backpointer table per batch —
        actually shows up.
        """
        return self._backend.bytes_appended  # type: ignore[attr-defined]

    def flush(self) -> None:
        self._backend.flush()  # type: ignore[attr-defined]

    def close(self) -> None:
        self._backend.close()  # type: ignore[attr-defined]
