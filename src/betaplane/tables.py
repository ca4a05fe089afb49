"""Tabular results with provenance metadata and deterministic serialization.

CSV output: UTF-8, LF line endings, ``#``-prefixed metadata lines above the
header, all floats rendered with %.17g so files are byte-reproducible and
round-trip exactly.  Tables are written, never parsed back: a cache entry
(``cache.CurveCache``) is a one-row table whose reader takes only its last
two cells.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

__all__ = ["CurveTable", "format_number"]


def format_number(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, str):
        return x
    if isinstance(x, (int,)):
        return str(x)
    return "%.17g" % float(x)


@dataclass
class CurveTable:
    """Rows of numeric results plus the provenance needed to reproduce them."""

    name: str
    columns: list
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add_row(self, *values):
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(tuple(values))

    def column(self, name):
        j = self.columns.index(name)
        return [row[j] for row in self.rows]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# table: {self.name}\n")
        for key in sorted(self.metadata):
            buf.write(f"# {key}: {_meta_str(self.metadata[key])}\n")
        buf.write(",".join(self.columns) + "\n")
        for row in self.rows:
            buf.write(",".join(format_number(v) for v in row) + "\n")
        return buf.getvalue()

    def to_json(self) -> str:
        payload = {
            "table": self.name,
            "metadata": {k: self.metadata[k] for k in sorted(self.metadata)},
            "columns": list(self.columns),
            # json writes each float (np.float64 too) in its shortest
            # round-trip form: the same doubles as the %.17g CSV cells
            "rows": self.rows,
        }
        return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def _meta_str(value) -> str:
    if isinstance(value, float):
        return format_number(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_meta_str(v) for v in value) + "]"
    return str(value)

