"""Append-only JSONL files: atomic appends, tolerant loads.

The cross-run history store (:mod:`repro.obs.history`) and the run
journal (:mod:`repro.core.journal`) keep their records this way; each
maps its own record type onto the plain dicts handled here.

* **Atomic appends.** A record is serialized to one ``\\n``-terminated
  line and written with a single ``os.write`` on an ``O_APPEND`` file
  descriptor, so concurrent appenders never interleave bytes within
  each other's lines and a crashed writer can truncate at most its own
  final line.
* **Corruption tolerance.** Loads skip anything they cannot use — a
  truncated final line from a killed writer, garbage bytes, JSON that
  is not an object, records with a newer ``schema`` than the reader's —
  and keep every line that parses. The file never needs repair.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, Iterator


def append_record(path: pathlib.Path, record: Dict[str, Any]) -> None:
    """Append ``record`` as one JSON line with a single write."""
    line = json.dumps(record, sort_keys=True) + "\n"
    if _needs_leading_newline(path):
        # A killed writer left a partial line with no terminator; seal
        # it off so this record starts on a fresh line. Still a single
        # write: the healthy path always leaves the file \n-terminated.
        line = "\n" + line
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, line.encode("utf-8"))
    finally:
        os.close(fd)


def _needs_leading_newline(path: pathlib.Path) -> bool:
    try:
        with path.open("rb") as handle:
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) != b"\n"
    except OSError:  # missing or empty file
        return False


def read_records(path: pathlib.Path, schema: int) -> Iterator[Dict[str, Any]]:
    """Every JSON-object line of ``path`` a ``schema`` reader may use.

    Lines with a ``schema`` newer than ``schema`` were written by a
    newer repro and are skipped rather than guessed at. A missing or
    unreadable file yields nothing.
    """
    try:
        text = path.read_text()
    except OSError:
        return
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            continue  # truncated or garbage line: keep the rest
        if not isinstance(data, dict):
            continue
        if data.get("schema", schema) > schema:
            continue
        yield data
