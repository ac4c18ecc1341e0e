"""Append-only data feeds for the streaming refresh subsystem.

The paper's system is just-in-time: "past labeled data with timestamps"
keeps arriving while user sessions are live, and the models must be
re-forecast against it.  A :class:`DataFeed` is the arrival side of that
loop — a pollable source of new labeled rows.  Two sources are provided:

:class:`IteratorFeed`
    Wraps any iterable of :class:`~repro.data.dataset.TemporalDataset`
    batches — scripted streams in tests, benchmarks and demos.
:class:`CsvFeed`
    Tails an append-only CSV file in the :mod:`repro.data.io` format.
    Each poll parses only the bytes appended since the previous poll, so
    an external producer can keep ``cat``-ing labeled rows onto the file
    while the refresh orchestrator polls it.  A partially written final line
    (producer mid-``write``) is left in the file for the next poll
    rather than half-parsed.

Feeds return ``None`` from :meth:`DataFeed.poll` when nothing new is
available; :attr:`DataFeed.exhausted` distinguishes "quiet right now"
(a file that may grow) from "finished forever" (a consumed iterator), so
schedulers know when a streaming run can terminate.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from repro.data.dataset import TemporalDataset
from repro.data.io import column_map, parse_data_rows
from repro.data.schema import DatasetSchema
from repro.exceptions import ValidationError

__all__ = ["CsvFeed", "DataFeed", "IteratorFeed"]


class DataFeed:
    """Pollable source of newly arrived labeled rows."""

    def poll(self) -> TemporalDataset | None:
        """Rows that arrived since the last poll, or ``None`` if none."""
        raise NotImplementedError

    @property
    def exhausted(self) -> bool:
        """Whether the feed can ever produce rows again.  File-backed
        feeds stay ``False`` forever (the file may grow); finite scripted
        feeds flip to ``True`` once consumed."""
        return False

    @property
    def checkpoint(self) -> int | None:
        """Durable resume cursor for this feed, or ``None`` if the feed
        cannot resume (scripted iterators).  For :class:`CsvFeed` this
        is the byte :attr:`~CsvFeed.offset`; consumers (the refresh
        orchestrator) persist it atomically with the state
        the polled rows were merged into, and pass it back as
        ``start_offset`` after a restart."""
        return None


class IteratorFeed(DataFeed):
    """Feed over a finite iterable of pre-built dataset batches.

    An empty batch (or ``None`` entry) models a poll interval in which
    no data arrived — the scheduler sees ``None`` and keeps waiting.
    """

    def __init__(self, batches):
        self._iterator = iter(batches)
        self._exhausted = False

    def poll(self) -> TemporalDataset | None:
        if self._exhausted:
            return None
        try:
            batch = next(self._iterator)
        except StopIteration:
            self._exhausted = True
            return None
        if batch is None or len(batch) == 0:
            return None
        return batch

    @property
    def exhausted(self) -> bool:
        return self._exhausted


class CsvFeed(DataFeed):
    """Tail an append-only CSV file of labeled, timestamped rows.

    The file uses the :func:`repro.data.io.save_csv` layout: a header
    naming every schema feature plus ``label`` and ``timestamp`` columns
    (in any order), then one row per sample.  The feed remembers its
    byte offset; each poll reads and parses only complete newly appended
    lines.  The file not existing yet simply means no data so far.

    ``start_offset`` resumes a previous feed position (see
    :attr:`offset`) — a restarted orchestrator passes its checkpointed offset
    so already-ingested rows are not re-read and double-merged into the
    training history.  The header is re-parsed from the file at
    construction in that case.
    """

    def __init__(
        self, path: str | Path, schema: DatasetSchema, start_offset: int = 0
    ):
        self.path = Path(path)
        self.schema = schema
        self._offset = 0
        self._columns: dict[str, int] | None = None
        self._line_no = 0
        if start_offset:
            if not self.path.exists():
                raise ValidationError(
                    f"cannot resume feed at offset {start_offset}:"
                    f" {self.path} does not exist"
                )
            if self.path.stat().st_size < start_offset:
                raise ValidationError(
                    f"{self.path} is smaller than the resume offset"
                    f" {start_offset}; the feed file was truncated or"
                    " replaced — remove the checkpoint to re-ingest"
                )
            with self.path.open("rb") as handle:
                header_line = handle.readline()
                # count the consumed lines once so malformed-row errors
                # after a resume still report real file line numbers
                consumed = handle.read(int(start_offset) - len(header_line))
            self._parse_header(header_line.decode("utf-8").rstrip("\r\n"))
            self._offset = int(start_offset)
            self._line_no = 1 + consumed.count(b"\n")

    @property
    def offset(self) -> int:
        """Byte position up to which the file has been consumed —
        checkpoint this (after the polled rows were durably ingested)
        and pass it back as ``start_offset`` to resume."""
        return self._offset

    @property
    def checkpoint(self) -> int:
        return self._offset

    def _parse_header(self, line: str) -> None:
        header = next(csv.reader([line]))
        self._columns = column_map(header, self.schema, self.path)

    def poll(self) -> TemporalDataset | None:
        if not self.path.exists():
            return None
        with self.path.open("rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
        if not chunk:
            return None
        # consume only complete lines; a trailing partial line stays in
        # the file for the next poll (the producer is mid-append)
        complete, newline, _rest = chunk.rpartition(b"\n")
        if not newline:
            return None
        complete += b"\n"
        self._offset += len(complete)
        lines = complete.decode("utf-8").splitlines()
        if self._columns is None:
            self._parse_header(lines[0])
            self._line_no = 1
            lines = lines[1:]
        def numbered():
            for row in csv.reader(io.StringIO("\n".join(lines))):
                self._line_no += 1
                yield self._line_no, row

        rows_X, rows_y, rows_t = parse_data_rows(
            numbered(), self._columns, self.schema, self.path
        )
        if not rows_X:
            return None
        return TemporalDataset(
            np.array(rows_X), np.array(rows_y), np.array(rows_t), self.schema
        )
