"""Run output: :class:`RunReport`, :func:`format_reports` (the aligned text
table) and :func:`write_csv` (the deterministic CSV)."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from tafssl.config import PROTOCOL_FIELDS

__all__ = ["CSV_COLUMNS", "RunReport", "format_reports", "write_csv"]


@dataclass(frozen=True)
class RunReport:
    """One method over one episode batch.  ``per_episode`` holds each
    episode's fraction of correct queries, in episode order; ``accuracy``
    is their mean and ``ci95`` the 0.95 normal-approximation half-width
    1.96 * std / sqrt(episodes), both in percent, with the population std,
    so a single episode reports a zero-width interval."""

    method: str
    mode: str
    per_episode: tuple[float, ...]
    seconds_per_episode: float
    metadata: dict = field(default_factory=dict)

    @property
    def episodes(self) -> int:
        return len(self.per_episode)

    @property
    def accuracy(self) -> float:
        return float(np.asarray(self.per_episode).mean()) * 100.0

    @property
    def ci95(self) -> float:
        return float(1.96 * np.asarray(self.per_episode).std(ddof=0) / np.sqrt(self.episodes) * 100.0)


def format_reports(table: list[tuple[int | None, list[RunReport]]], sweep: str | None = None) -> str:
    """Human-readable aligned table; one row per (sweep value, method),
    then a line naming each report that counted warnings, if any did."""
    rows = [("sweep", "value", "method", "mode", "episodes", "accuracy", "ci95", "s/episode")]
    for value, reports in table:
        for rep in reports:
            rows.append(
                (
                    sweep or "-",
                    "-" if value is None else str(value),
                    rep.method,
                    rep.mode,
                    str(rep.episodes),
                    f"{rep.accuracy:.2f}",
                    f"±{rep.ci95:.2f}",
                    f"{rep.seconds_per_episode:.4f}",
                )
            )
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    if sweep == "dim":
        best: dict = {}  # method -> (accuracy, dim), ties to the larger dim
        for value, reports in table:
            for rep in reports:
                best[rep.method] = max(best.get(rep.method, (rep.accuracy, value)), (rep.accuracy, value))
        if best:
            lines.append(f"best dim by accuracy: {', '.join(f'{m} {v} ({a:.2f}%)' for m, (a, v) in best.items())}")
    # The episode loop records every warning, so this line is where they show.
    warned = [
        f"{rep.method}{'' if value is None else f' ({sweep} {value})'} {rep.metadata['warnings']}"
        for value, reports in table
        for rep in reports
        if rep.metadata.get("warnings")
    ]
    if warned:
        lines.append(f"warnings: {', '.join(warned)}")
    return "\n".join(lines)


CSV_COLUMNS = ["sweep", "value", "method", "mode", *PROTOCOL_FIELDS, "episodes", "seed", "dim", "accuracy", "ci95"]


def write_csv(path, table: list[tuple[int | None, list[RunReport]]], sweep: str | None = None) -> None:
    """Machine-readable results.  Contains only deterministic fields, so two
    runs with the same config and seed produce byte-identical files
    regardless of the worker count.  ``None`` (no sweep, no value, no
    subspace) is written as an empty field."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for value, reports in table:
            for rep in reports:
                row = {
                    **rep.metadata,
                    "sweep": sweep,
                    "value": value,
                    "method": rep.method,
                    "mode": rep.mode,
                    "episodes": rep.episodes,
                    "accuracy": f"{rep.accuracy:.6f}",
                    "ci95": f"{rep.ci95:.6f}",
                }
                writer.writerow([row[column] for column in CSV_COLUMNS])
