"""Uniform result records for analyses and the command-line layer."""

from __future__ import annotations

from dataclasses import dataclass, field


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
