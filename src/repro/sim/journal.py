"""Crash-safe write-ahead trace journaling.

A :class:`Journal` is an append-only JSONL file that makes a long
simulation survivable: every record is framed with a sequence number and a
CRC32 over its canonical payload, each write is flushed, and readers stop
at the first record that fails framing — a torn tail from a mid-write
crash is *detected and truncated*, never silently parsed.

Record stream of one run::

    meta        run header: scheduler name, machine, feature flags,
                churn schedule (capacity faults included) and supervisor
                spec (both plain data)
    checkpoint  the first is the full Simulator.checkpoint() document;
                every later one (each ``checkpoint_every`` steps) is a
                ``checkpoint-delta``: the live state in full plus the
                history appended since the previous checkpoint record,
                so its size is O(live jobs), not O(run history)
    submit      one online arrival (job snapshot + opaque meta)
    cancel      one withdrawn pending job
    step        per-step record: {"t": ..., "digest": ...} where the
                digest is a CRC of the engine's post-step state
    end         final digest + makespan (a journal without one is a crash)

Every record except ``step`` is fsync'd: those are the records that make
a promise (here ``meta``, ``checkpoint``, ``submit``, ``cancel`` and
``end``; the service's routing table writes its ``meta``, ``assign``,
``failover`` and ``revive`` records through the same class).  A ``step``
record is written and flushed, and the next fsync makes it durable too,
since fsync covers the whole file.  A submission is therefore on disk
before it is acknowledged, and a power cut loses at most the
unacknowledged steps since the last fsync, which recovery re-executes.

Recovery (:meth:`repro.sim.engine.Simulator.recover`) replays the journal:
fold the checkpoint-delta records onto the last full checkpoint, restore
it, re-execute forward comparing each step's digest against the journaled
one (divergence raises :class:`~repro.errors.JournalError` — the run is
*verified* bit-for-bit, not assumed), truncate any torn tail, and keep
appending to the same file so a resumed run leaves one continuous journal.
"""

from __future__ import annotations

import json
import logging
import os
import time
import zlib
from typing import Any

from repro.errors import JournalError

__all__ = ["Journal", "JournalRecord", "read_journal", "state_digest"]

#: version 3 writes every checkpoint record after the first as a
#: checkpoint-delta, and its step digests cover a history CRC instead of
#: the history maps; a version-2 journal's records read differently
JOURNAL_VERSION = 3

logger = logging.getLogger("repro.sim.journal")


def _frame_crc(seq: int, rtype: str, data: Any) -> int:
    payload = json.dumps(
        [seq, rtype, data], sort_keys=True, separators=(",", ":")
    )
    return zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF


class JournalRecord:
    """One parsed journal record (``seq``, ``type``, ``data``)."""

    __slots__ = ("seq", "type", "data")

    def __init__(self, seq: int, rtype: str, data: Any) -> None:
        self.seq = seq
        self.type = rtype
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JournalRecord(seq={self.seq}, type={self.type!r})"


class Journal:
    """Append-only, CRC-framed JSONL journal writer.

    Parameters
    ----------
    path:
        Journal file.  Created on first append; reopened in append mode
        when resuming (see ``start_seq``).
    checkpoint_every:
        The engine writes a checkpoint record every this many steps
        (>= 1): the first a full document, the rest deltas.  Smaller
        values bound replay work after a crash at the cost of journal
        size.
    fsync:
        Fsync after every record except ``step`` (default); ``step``
        records become durable with the next fsync'd one.  Disable only
        for runs whose journal is merely diagnostic — a non-fsync'd
        journal can lose an arbitrary suffix on power failure.
    start_seq:
        Sequence number of the last already-present record (resume).
    """

    def __init__(
        self,
        path: str,
        *,
        checkpoint_every: int = 25,
        fsync: bool = True,
        start_seq: int = 0,
    ) -> None:
        if checkpoint_every < 1:
            raise JournalError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.path = str(path)
        self.checkpoint_every = int(checkpoint_every)
        self._fsync = bool(fsync)
        self._seq = int(start_seq)
        self._fh = None
        #: wall-clock seconds the most recent durable append took
        #: (write + fsync)
        self.last_append_s = 0.0
        #: EWMA of durable-append latency — the service's journal-health
        #: signal (step records are not sampled: they skip the fsync)
        self.append_latency_s = 0.0

    # ------------------------------------------------------------------
    def append(self, rtype: str, data: Any) -> int:
        """Write one framed record; returns its sequence number.

        The payload is encoded once: the frame CRC covers
        ``[seq,"type",<payload>]``, byte-identical to what
        :func:`_frame_crc` recomputes on read, and the line embeds the
        same payload text.
        """
        if self._fh is None:
            self._fh = open(self.path, "ab")
        self._seq += 1
        seq = self._seq
        payload = json.dumps(
            data, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        head = json.dumps(rtype).encode("utf-8")
        crc = zlib.crc32(payload + b"]", zlib.crc32(b"[%d,%s," % (seq, head)))
        started = time.perf_counter()
        self._fh.write(
            b'{"seq":%d,"type":%s,"crc":%d,"data":' % (seq, head, crc)
            + payload
            + b"}\n"
        )
        self._fh.flush()
        if rtype == "step":  # rides on the next fsync
            return seq
        if self._fsync:
            os.fsync(self._fh.fileno())
        self.last_append_s = time.perf_counter() - started
        # EWMA with a short memory: a stalling disk is visible within a
        # handful of appends, one slow outlier decays quickly.
        self.append_latency_s = (
            0.8 * self.append_latency_s + 0.2 * self.last_append_s
        )
        return seq

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":  # pragma: no cover - convenience
        return self

    def __exit__(self, *exc) -> None:  # pragma: no cover - convenience
        self.close()


def _parse_line(line: bytes, expected_seq: int) -> JournalRecord | None:
    """One framed record, or None if the line fails any framing check."""
    try:
        doc = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(doc, dict):
        return None
    try:
        seq = int(doc["seq"])
        rtype = str(doc["type"])
        crc = int(doc["crc"])
        data = doc["data"]
    except (KeyError, TypeError, ValueError):
        return None
    if seq != expected_seq or crc != _frame_crc(seq, rtype, data):
        return None
    return JournalRecord(seq, rtype, data)


def _self_framed(line: bytes) -> bool:
    """Does ``line`` parse as a record whose CRC matches its *own*
    framing (any sequence number)?  Distinguishes intact records after a
    corruption from the random junk of a torn tail."""
    try:
        doc = json.loads(line.decode("utf-8"))
        return isinstance(doc, dict) and int(doc["crc"]) == _frame_crc(
            int(doc["seq"]), str(doc["type"]), doc["data"]
        )
    except (KeyError, TypeError, ValueError, UnicodeDecodeError):
        return False


def read_journal(
    path: str, *, truncate: bool = False
) -> tuple[list[JournalRecord], int, bool]:
    """Read the valid prefix of a journal.

    Returns ``(records, valid_bytes, clean)``: every record up to (not
    including) the first framing failure, the byte length of that valid
    prefix, and whether the file ended cleanly (no torn/corrupt tail).
    With ``truncate=True`` a torn tail is physically cut off, leaving the
    file ready for appending.

    A framing failure in the *trailing* record — the signature of a
    crash mid-``fsync`` — is tolerated with a logged warning, and the
    valid prefix ends at the last good record.  A framing failure
    *followed by intact records* is not a torn write: it means data in
    the middle of the journal is corrupt or missing, silently resuming
    from the last record before it would drop acknowledged history, so
    it raises :class:`~repro.errors.JournalError` naming the position.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path!r}: {exc}") from exc

    records: list[JournalRecord] = []
    valid_bytes = 0
    clean = True
    pos = 0
    while pos < len(raw):
        nl = raw.find(b"\n", pos)
        if nl < 0:  # torn final record: no newline made it to disk
            clean = False
            break
        rec = _parse_line(raw[pos:nl], expected_seq=len(records) + 1)
        if rec is None:  # corrupt frame: everything after needs a look
            clean = False
            break
        records.append(rec)
        pos = nl + 1
        valid_bytes = pos
    if not clean:
        # Mid-file corruption check: any intact, self-framed record
        # after the bad frame means this is not a torn tail.
        tail = raw[valid_bytes:]
        bad_end = tail.find(b"\n")
        rest = tail[bad_end + 1 :] if bad_end >= 0 else b""
        intact_after = sum(
            1 for line in rest.split(b"\n") if line and _self_framed(line)
        )
        if intact_after:
            raise JournalError(
                f"{path!r}: corrupt or missing record at seq "
                f"{len(records) + 1} (byte {valid_bytes}) is followed by "
                f"{intact_after} intact record(s) — mid-journal "
                "corruption, not a torn tail; refusing to silently drop "
                "acknowledged history"
            )
        logger.warning(
            "journal %s: torn trailing record at seq %d (byte %d) — "
            "tolerated; recovering from the last good record",
            path,
            len(records) + 1,
            valid_bytes,
        )
    if not clean and truncate:
        with open(path, "r+b") as fh:
            fh.truncate(valid_bytes)
    return records, valid_bytes, clean


def state_digest(payload: Any) -> int:
    """CRC32 of the canonical JSON encoding of ``payload``.

    Used both for per-step engine digests and for spot-checking payload
    equality in diagnostics; ``json.dumps(sort_keys=True)`` makes it
    independent of dict insertion order and ``PYTHONHASHSEED``.
    """
    return (
        zlib.crc32(
            json.dumps(
                payload, sort_keys=True, separators=(",", ":"), default=int
            ).encode("utf-8")
        )
        & 0xFFFFFFFF
    )
