"""On-disk cache for curve computations.

Entries are CSV CurveTables keyed by a stable hash of the operation name and
every numeric parameter (resolutions included), so identical
requests are served from disk and the files double as golden outputs.
Writes go through a temporary file plus atomic replace: concurrent readers
are safe, writers are expected to arrive one at a time.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

from .tables import CurveTable, format_number

__all__ = ["CurveCache", "cache_key"]


def cache_key(op_name: str, **params) -> str:
    parts = [op_name]
    for key in sorted(params):
        val = params[key]
        if isinstance(val, (list, tuple)):
            rendered = ",".join(format_number(v) for v in val)
        elif val is None:
            rendered = "none"
        else:
            rendered = format_number(val) if isinstance(val, float) else str(val)
        parts.append(f"{key}={rendered}")
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
    return f"{op_name}-{digest[:24]}"


class CurveCache:
    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.csv"

    def get(self, key: str) -> CurveTable | None:
        path = self._path(key)
        if not path.exists():
            self.misses += 1
            return None
        self.hits += 1
        return CurveTable.from_csv(path.read_text(encoding="utf-8"))

    def put(self, key: str, table: CurveTable) -> None:
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(table.to_csv())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
