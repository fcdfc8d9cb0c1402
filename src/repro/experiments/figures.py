"""Figure-ready data series extracted from experiment results.

Each helper returns plain rows/series matching what one paper figure
plots; the benchmarks print them as the reproduction record.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.engine import EvolutionResult
from repro.core.history import EvolutionHistory


@dataclass(frozen=True)
class DispersionData:
    """The (IL, DR) clouds of one dispersion figure (initial vs final)."""

    initial: list[tuple[float, float]]
    final: list[tuple[float, float]]

    def initial_mean_imbalance(self) -> float:
        """Mean |IL - DR| of the initial cloud."""
        if not self.initial:
            return 0.0
        return sum(abs(il - dr) for il, dr in self.initial) / len(self.initial)

    def final_mean_imbalance(self) -> float:
        """Mean |IL - DR| of the final cloud."""
        if not self.final:
            return 0.0
        return sum(abs(il - dr) for il, dr in self.final) / len(self.final)


def dispersion_data(result: EvolutionResult) -> DispersionData:
    """Initial/final (IL, DR) clouds — one dispersion figure."""
    return DispersionData(
        initial=result.initial_dispersion(),
        final=result.final_dispersion(),
    )


def evolution_rows(history: EvolutionHistory, stride: int = 1) -> list[list[object]]:
    """(generation, max, mean, min) rows — one evolution figure.

    ``stride`` subsamples long histories for printable tables.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    rows = []
    for record in history.records[::stride]:
        rows.append([record.generation, record.max_score, record.mean_score, record.min_score])
    if history.records and (len(history.records) - 1) % stride != 0:
        last = history.records[-1]
        rows.append([last.generation, last.max_score, last.mean_score, last.min_score])
    return rows


def improvement_rows(history: EvolutionHistory) -> list[list[object]]:
    """(series, initial, final, % improvement) rows — the in-text numbers."""
    rows = []
    for series in ("max", "mean", "min"):
        initial, final, percent = history.improvement(series)
        rows.append([series, initial, final, percent])
    return rows
