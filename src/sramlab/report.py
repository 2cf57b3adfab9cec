"""The two output formats: report entries, printed as `name value unit
[verdict]` lines, and column CSV files: a header row, one row per point
with each float as its repr (so it reads back bit for bit) and each
integer as itself, then any `# note` lines, every line ending in CRLF."""

from __future__ import annotations

import contextlib
import csv
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ReportEntry:
    name: str
    value: float | int | str
    unit: str = ""
    verdict: str | None = None  # "pass" / "fail" or None when not a check

    def render(self) -> str:
        if isinstance(self.value, float):
            text = format(self.value, ".9g")
        else:
            text = str(self.value)
        parts = [self.name, text]
        if self.unit:
            parts.append(self.unit)
        if self.verdict is not None:
            parts.append(self.verdict)
        return " ".join(parts)


@dataclass
class AnalysisReport:
    """Ordered name/value/unit entries plus free-form header lines.

    Rendering is deterministic: identical inputs produce byte-identical text.
    """

    header: list[str] = field(default_factory=list)
    entries: list[ReportEntry] = field(default_factory=list)

    def add(
        self,
        name: str,
        value: float | int | str,
        unit: str = "",
        verdict: str | None = None,
    ) -> float | int | str:
        self.entries.append(ReportEntry(name, value, unit, verdict))
        return value

    def get(self, name: str) -> ReportEntry:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise KeyError(name)

    def __contains__(self, name: str) -> bool:
        return any(entry.name == name for entry in self.entries)

    def render(self) -> str:
        lines = [f"# {line}" for line in self.header]
        lines.extend(entry.render() for entry in self.entries)
        return "\n".join(lines) + "\n"


def _opened(dest, mode: str):
    """dest opened in mode for CSV and closed after, if it is a path, or
    dest itself, an open stream, left open."""
    if isinstance(dest, (str, os.PathLike)):
        return open(dest, mode, newline="")
    return contextlib.nullcontext(dest)


def write_columns(dest, header: Sequence[str], columns: Sequence, notes: Sequence[str] = ()) -> None:
    """Write equal-length columns under header to dest, a path or an open
    stream, followed by one `# note` line per note; notes end in CRLF, as
    the csv module ends rows."""
    with _opened(dest, "w") as out:
        writer = csv.writer(out)
        writer.writerow(header)
        # csv writes a Python float as its repr and an int as itself.
        writer.writerows(zip(*(np.asarray(col).tolist() for col in columns)))
        out.writelines(f"# {note}\r\n" for note in notes)


def read_columns(src) -> tuple[list[str], np.ndarray, list[str]]:
    """The header, the data rows as a float array (rows, columns), and the
    trailing notes of the column file src, a path or an open stream.  A
    file without a data row, or with a cell that is not a number, raises
    ValueError."""
    with _opened(src, "r") as stream:
        lines = stream.read().splitlines()
    end = len(lines)
    while end and lines[end - 1].startswith("# "):
        end -= 1
    rows = list(csv.reader(lines[:end]))
    if len(rows) < 2:
        raise ValueError("needs a header row and at least one data row")
    notes = [line[2:] for line in lines[end:]]
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]]), notes
