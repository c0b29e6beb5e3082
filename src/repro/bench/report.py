"""Result tables for the benchmark harness.

Every experiment produces a :class:`ResultTable`: named columns plus rows of
values, printable in a fixed-width layout so the benchmark output can be read
next to the corresponding table or figure in the paper, or as markdown via
``python -m repro.bench all --markdown``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ResultTable:
    """A small formatted table of experiment results."""

    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        """Append a row; the number of values must match the columns."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        """Attach a free-form note shown under the table."""
        self.notes.append(note)

    # -- formatting -------------------------------------------------------------

    @staticmethod
    def _format_value(value) -> str:
        if isinstance(value, float):
            if value >= 100:
                return f"{value:.1f}"
            if value >= 1:
                return f"{value:.2f}"
            return f"{value:.4f}"
        return str(value)

    def to_text(self) -> str:
        """Render the table as fixed-width text."""
        formatted = [[self._format_value(v) for v in row] for row in self.rows]
        widths = [len(name) for name in self.columns]
        for row in formatted:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(name.ljust(widths[i]) for i, name in enumerate(self.columns))
        lines.append(header)
        lines.append("-" * len(header))
        for row in formatted:
            lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """Render the table as GitHub-flavoured markdown."""
        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append(
                "| " + " | ".join(self._format_value(v) for v in row) + " |"
            )
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines)

    def print(self) -> None:
        """Print the text rendering (used by the benchmark harness)."""
        print()
        print(self.to_text())
        print()
