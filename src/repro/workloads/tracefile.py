"""Canonical on-disk workload traces: record, stream, seek, replay.

The format is line-oriented text (diffable, versionable, exactly one
canonical byte encoding per logical trace):

* header line: ``#REPRO-WORKLOAD v1 {meta}`` where ``{meta}`` is the
  canonical JSON (sorted keys, no spaces) of :class:`TraceMeta`;
* an ``#EPOCH k`` marker before every ``epoch_requests`` records —
  the resume/seek granularity (:meth:`TraceReader.seek_epoch`);
* one record per line, ``<address>,<R|W>``, LF-terminated.

Canonicality is the regression surface: re-encoding a parsed trace must
reproduce the file byte-for-byte (:func:`canonical_bytes`, checked by
``python -m repro.workloads replay --check`` and the golden fixture), so
any format drift fails loudly instead of silently forking replays.

:class:`TraceReplay` is the in-memory side and the one replay path for
recorded traffic: a :class:`~repro.workloads.generators.Workload` that
replays every record with wrap-around for the serving layer, and a
:class:`~repro.traces.base.WriteTrace` that replays the write records
for the batch engines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (IO, Any, Dict, Iterator, List, Optional, Tuple, Union)

import numpy as np

from ..errors import ConfigurationError
from ..traces.base import WriteTrace
from .generators import Workload

MAGIC = "#REPRO-WORKLOAD"
VERSION = 1
EPOCH_MARK = "#EPOCH"

PathLike = Union[str, Path]


@dataclass(frozen=True)
class TraceMeta:
    """Self-description of a stored trace (the header's JSON payload)."""

    name: str
    virtual_blocks: int
    requests: int
    epoch_requests: int
    write_ratio: float
    #: Free-form provenance (seed, generator kind, ...), kept canonical
    #: by the sorted-key encoding.
    extra: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.virtual_blocks < 1:
            raise ConfigurationError("virtual_blocks must be positive")
        if self.requests < 1:
            raise ConfigurationError("requests must be positive")
        if self.epoch_requests < 1:
            raise ConfigurationError("epoch_requests must be positive")
        if not 0.0 <= self.write_ratio <= 1.0:
            raise ConfigurationError("write_ratio must be in [0, 1]")
        for key in self.extra:
            if key in ("name", "virtual_blocks", "requests",
                       "epoch_requests", "write_ratio"):
                raise ConfigurationError(
                    f"extra key {key!r} shadows a meta field")

    @property
    def epochs(self) -> int:
        """Number of epoch groups the records fall into."""
        return -(-self.requests // self.epoch_requests)

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name, "virtual_blocks": self.virtual_blocks,
            "requests": self.requests,
            "epoch_requests": self.epoch_requests,
            "write_ratio": self.write_ratio}
        data.update(self.extra)
        return data

    def encode(self) -> str:
        """The canonical header line (no trailing newline)."""
        payload = json.dumps(self.as_dict(), sort_keys=True,
                             separators=(",", ":"))
        return f"{MAGIC} v{VERSION} {payload}"

    @classmethod
    def decode(cls, line: str) -> "TraceMeta":
        parts = line.rstrip("\n").split(" ", 2)
        if len(parts) != 3 or parts[0] != MAGIC:
            raise ConfigurationError("not a workload trace (bad header)")
        if parts[1] != f"v{VERSION}":
            raise ConfigurationError(
                f"unsupported trace version {parts[1]!r}")
        try:
            data = json.loads(parts[2])
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"corrupt trace header: {exc}") from exc
        known = ("name", "virtual_blocks", "requests", "epoch_requests",
                 "write_ratio")
        missing = [key for key in known if key not in data]
        if missing:
            raise ConfigurationError(
                f"trace header missing fields: {missing}")
        extra = {key: value for key, value in data.items()
                 if key not in known}
        return cls(name=data["name"],
                   virtual_blocks=int(data["virtual_blocks"]),
                   requests=int(data["requests"]),
                   epoch_requests=int(data["epoch_requests"]),
                   write_ratio=float(data["write_ratio"]),
                   extra=extra)


def _checked_records(records: np.ndarray,
                     virtual_blocks: int) -> np.ndarray:
    records = np.asarray(records, dtype=np.int64)
    if records.ndim != 2 or records.shape[1] != 2 or len(records) == 0:
        raise ConfigurationError(
            "records must be a non-empty (n, 2) array")
    if records[:, 0].min() < 0 \
            or int(records[:, 0].max()) >= virtual_blocks:
        raise ConfigurationError(
            "address exceeds the declared virtual space")
    flags = records[:, 1]
    if ((flags != 0) & (flags != 1)).any():
        raise ConfigurationError("write flags must be 0 or 1")
    return records


def canonical_bytes(meta: TraceMeta, records: np.ndarray) -> bytes:
    """The one true byte encoding of ``(meta, records)``."""
    records = _checked_records(records, meta.virtual_blocks)
    if len(records) != meta.requests:
        raise ConfigurationError(
            f"meta declares {meta.requests} requests, "
            f"got {len(records)} records")
    lines: List[str] = [meta.encode()]
    for epoch in range(meta.epochs):
        lines.append(f"{EPOCH_MARK} {epoch}")
        start = epoch * meta.epoch_requests
        for address, flag in records[start:start + meta.epoch_requests]:
            lines.append(f"{int(address)},{'W' if flag else 'R'}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_records(path: PathLike, records: np.ndarray,
                  meta: TraceMeta) -> None:
    """Store records under *meta* in the canonical encoding."""
    payload = canonical_bytes(meta, records)
    with open(path, "wb") as handle:
        handle.write(payload)


def record_workload(path: PathLike, workload: Workload, requests: int,
                    epoch_requests: int = 1024,
                    extra: Optional[Dict[str, Any]] = None) -> TraceMeta:
    """Freeze the next *requests* of *workload* to disk; returns the meta.

    The recorded file replays the generator byte-identically: the
    round-trip property ``replay(record(w)) == w`` is what the property
    suite pins.
    """
    records = workload.take(requests)
    flags = records[:, 1]
    ratio = float(flags.mean()) if len(flags) else 0.0
    meta = TraceMeta(name=workload.name,
                     virtual_blocks=workload.virtual_blocks,
                     requests=requests, epoch_requests=epoch_requests,
                     write_ratio=ratio,
                     extra=dict(extra) if extra else {})
    write_records(path, records, meta)
    return meta


def read_meta(path: PathLike) -> TraceMeta:
    """Parse just the header of a stored trace."""
    with open(path, "r", encoding="utf-8", newline="\n") as handle:
        return TraceMeta.decode(handle.readline())


def _parse_record(line: str, lineno: int) -> Tuple[int, bool]:
    body = line.rstrip("\n")
    head, sep, kind = body.partition(",")
    if not sep or kind not in ("R", "W"):
        raise ConfigurationError(
            f"line {lineno}: malformed record {body!r}")
    try:
        address = int(head)
    except ValueError as exc:
        raise ConfigurationError(
            f"line {lineno}: malformed address {head!r}") from exc
    return address, kind == "W"


class TraceReader:
    """Streaming cursor over a stored trace, seekable to epoch starts.

    The reader never loads the file whole: ``records()`` yields from the
    current position, and :meth:`seek_epoch` jumps to an ``#EPOCH``
    marker, building a byte-offset index lazily as markers are passed.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = Path(path)
        self._handle: IO[str] = open(self.path, "r", encoding="utf-8",
                                     newline="\n")
        try:
            self.meta = TraceMeta.decode(self._handle.readline())
            self._lineno = 1
            #: Byte offsets of the line *after* each seen ``#EPOCH k``.
            self._epoch_offsets: Dict[int, int] = {}
            self._scan_to_epoch(0)
        except BaseException:
            self._handle.close()
            raise

    # --------------------------------------------------------- lifecycle

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ----------------------------------------------------------- seeking

    def _scan_to_epoch(self, epoch: int) -> None:
        """Advance from the current position until *epoch*'s marker."""
        while True:
            offset = self._handle.tell()
            line = self._handle.readline()
            if not line:
                raise ConfigurationError(
                    f"{self.path}: epoch {epoch} past end of trace")
            self._lineno += 1
            if line.startswith(EPOCH_MARK):
                seen = int(line.split()[1])
                self._epoch_offsets[seen] = self._handle.tell()
                if seen != len(self._epoch_offsets) - 1:
                    raise ConfigurationError(
                        f"{self.path}: epoch markers out of order "
                        f"at byte {offset}")
                if seen == epoch:
                    return

    def seek_epoch(self, epoch: int) -> None:
        """Position the cursor at the first record of *epoch*."""
        if not 0 <= epoch < self.meta.epochs:
            raise ConfigurationError(
                f"epoch {epoch} out of range [0, {self.meta.epochs})")
        if epoch in self._epoch_offsets:
            self._handle.seek(self._epoch_offsets[epoch])
            return
        # Resume the scan from the furthest marker already indexed.
        furthest = max(self._epoch_offsets)
        self._handle.seek(self._epoch_offsets[furthest])
        self._scan_to_epoch(epoch)

    # ----------------------------------------------------------- reading

    def records(self) -> Iterator[Tuple[int, bool]]:
        """Yield ``(address, is_write)`` from the cursor to end of file."""
        while True:
            line = self._handle.readline()
            if not line:
                return
            self._lineno += 1
            if line.startswith(EPOCH_MARK):
                self._epoch_offsets.setdefault(int(line.split()[1]),
                                               self._handle.tell())
                continue
            yield _parse_record(line, self._lineno)

    def read_all(self) -> np.ndarray:
        """Every record from epoch 0 as an ``(n, 2)`` int64 array."""
        self.seek_epoch(0)
        rows = np.fromiter(
            (value for record in self.records() for value in record),
            dtype=np.int64)
        records = rows.reshape(-1, 2)
        if len(records) != self.meta.requests:
            raise ConfigurationError(
                f"{self.path}: header declares {self.meta.requests} "
                f"records, found {len(records)}")
        return _checked_records(records, self.meta.virtual_blocks)


def check_canonical(path: PathLike) -> bool:
    """True when the file is byte-identical to its canonical re-encoding."""
    with TraceReader(path) as reader:
        expected = canonical_bytes(reader.meta, reader.read_all())
    return Path(path).read_bytes() == expected


class TraceReplay(Workload, WriteTrace):
    """Replays stored records with wrap-around (the paper replays its
    Pin traces "multiple times to produce the required wear-out effect").

    Two independent cursors walk the records: the request cursor
    (:meth:`take`, :meth:`next_request`) visits every record, the write
    cursor (:meth:`next_write`, :meth:`batch_counts`) only the writes.
    """

    def __init__(self, records: np.ndarray, meta: TraceMeta) -> None:
        super().__init__(meta.virtual_blocks, name=meta.name)
        self.records = _checked_records(records, meta.virtual_blocks)
        self.meta = meta
        self._cursor = 0
        self._writes: Optional[np.ndarray] = None
        self._write_cursor = 0

    @classmethod
    def load(cls, path: PathLike) -> "TraceReplay":
        """Load a stored trace whole for replay."""
        with TraceReader(path) as reader:
            return cls(reader.read_all(), reader.meta)

    def reset(self) -> None:
        self._cursor = 0
        self._write_cursor = 0

    def take(self, count: int) -> np.ndarray:
        if count < 0:
            raise ConfigurationError("count must be >= 0")
        rows: List[np.ndarray] = []
        remaining = count
        while remaining > 0:
            size = min(remaining, len(self.records) - self._cursor)
            rows.append(self.records[self._cursor:self._cursor + size])
            self._cursor = (self._cursor + size) % len(self.records)
            remaining -= size
        if not rows:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(rows, axis=0)

    def next_request(self) -> Tuple[int, bool]:
        """Next record, read in place (the same stream as :meth:`take`)."""
        address, is_write = self.records[self._cursor]
        self._cursor = (self._cursor + 1) % len(self.records)
        return int(address), bool(is_write)

    def write_addresses(self) -> np.ndarray:
        """The write-record addresses, in file order."""
        return self.records[self.records[:, 1] == 1, 0]

    def _write_walk(self) -> np.ndarray:
        """The write addresses the write cursor walks (never empty)."""
        if self._writes is None:
            writes = self.write_addresses()
            if len(writes) == 0:
                raise ConfigurationError(
                    f"trace {self.name!r} contains no writes")
            self._writes = writes
        return self._writes

    def next_write(self) -> int:
        writes = self._write_walk()
        value = int(writes[self._write_cursor])
        self._write_cursor = (self._write_cursor + 1) % len(writes)
        return value

    def batch_counts(self, batch: int) -> np.ndarray:
        writes = self._write_walk()
        counts = np.zeros(self.virtual_blocks, dtype=np.int64)
        remaining = batch
        while remaining > 0:
            take = min(remaining, len(writes) - self._write_cursor)
            chunk = writes[self._write_cursor:self._write_cursor + take]
            counts += np.bincount(chunk, minlength=self.virtual_blocks)
            self._write_cursor = (self._write_cursor + take) % len(writes)
            remaining -= take
        return counts

    def restricted_to(self, virtual_blocks: int) -> "TraceReplay":
        """Fold the records onto a smaller virtual space.

        Addresses wrap modulo the smaller space, which keeps the stream's
        temporal structure while every record stays in range.
        """
        if virtual_blocks >= self.virtual_blocks:
            return self
        folded = self.records.copy()
        folded[:, 0] %= virtual_blocks
        meta = replace(self.meta, name=f"{self.name}-folded",
                       virtual_blocks=virtual_blocks)
        return TraceReplay(folded, meta)

    def write_distribution(self) -> "np.ndarray":
        """Empirical per-block write counts (the batch engines' view)."""
        return np.bincount(self._write_walk(),
                           minlength=self.virtual_blocks)


__all__ = [
    "MAGIC", "VERSION", "EPOCH_MARK", "TraceMeta", "canonical_bytes",
    "write_records", "record_workload", "read_meta", "TraceReader",
    "TraceReplay", "check_canonical",
]
