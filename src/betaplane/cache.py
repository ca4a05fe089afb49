"""On-disk cache of eigenvalue curve points.

An entry is a one-row CSV CurveTable (the curve's arguments, ``lambda1`` and
``error_estimate``, resolution metadata) keyed by a stable hash of the curve
name and every argument, so identical requests are served from disk and the
files double as golden outputs.  A read takes the last row's last two cells;
an entry that does not end in two numbers is a miss, recomputed and rewritten.
Writes go through a temporary file plus atomic replace: concurrent readers
are safe, writers are expected to arrive one at a time.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path

from .errors import ValidationError
from .tables import CurveTable, format_number

__all__ = ["CurveCache", "cache_key"]


def cache_key(op_name: str, **params) -> str:
    parts = [op_name]
    for key in sorted(params):
        val = params[key]
        parts.append(f"{key}={format_number(val) if isinstance(val, float) else val}")
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
    return f"{op_name}-{digest[:24]}"


class CurveCache:
    def __init__(self, directory):
        self.directory = Path(directory)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ValidationError(
                f"cache directory {str(directory)!r} cannot be created: {exc.strerror}"
            ) from None
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.csv"

    def get(self, key: str) -> tuple[float, float] | None:
        """(value, error) from the entry's last row, or None if it is absent or damaged."""
        try:
            cells = self._path(key).read_text(encoding="utf-8").splitlines()[-1].split(",")
            hit = float(cells[-2]), float(cells[-1])
        except (OSError, IndexError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return hit

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

    def lookup(self, name: str, args: dict, resolution, compute) -> tuple[float, float]:
        """(value, error) at ``args`` (column order), read back, or else compute()'s, written."""
        key = cache_key(name, resolution=resolution, **args)
        hit = self.get(key)
        if hit is not None:
            return hit
        value, err = compute()
        table = CurveTable(
            name=name,
            columns=[*args, "lambda1", "error_estimate"],
            metadata={"resolution": resolution},
        )
        table.add_row(*args.values(), value, err)
        self.put(key, table)
        return value, err
