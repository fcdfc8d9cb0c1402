"""One-call experiment runner shared by the paper's three experiments.

An :class:`ExperimentConfig` nails down everything a paper run needs —
dataset, score function, GA parameters, run length, seeds, and the
robustness truncation of experiment 3 — and :func:`run_experiment`
executes it, returning an :class:`ExperimentResult` that carries the
evolution result plus the figure-ready series.

Run lengths default to a laptop-scale budget; set the environment
variable ``REPRO_FULL=1`` (or pass ``generations`` explicitly) for
longer, closer-to-paper runs.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.core.engine import EngineCheckpoint, EvolutionaryProtector, EvolutionResult
from repro.core.individual import Individual
from repro.datasets.registry import load_dataset, protected_attributes
from repro.exceptions import ExperimentError
from repro.experiments.population_builder import build_initial_population
from repro.metrics.evaluation import ProtectionEvaluator, ScoreCache
from repro.metrics.score import score_function_by_name


def default_generations(fallback: int = 300) -> int:
    """Generation budget: ``fallback`` normally, 5x under ``REPRO_FULL=1``."""
    if os.environ.get("REPRO_FULL", "") == "1":
        return fallback * 5
    return fallback


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of one paper run."""

    dataset: str
    score: str = "max"
    generations: int = 300
    seed: int = 42
    population_seed: int = 0
    drop_best_fraction: float = 0.0
    mutation_probability: float = 0.5
    leader_fraction: float = 0.1
    selection_strategy: str = "proportional"

    def __post_init__(self) -> None:
        if not 0 <= self.drop_best_fraction < 1:
            raise ExperimentError(
                f"drop_best_fraction must be in [0, 1), got {self.drop_best_fraction}"
            )


@dataclass(frozen=True)
class ExperimentResult:
    """A finished run plus the context needed to report it."""

    config: ExperimentConfig
    result: EvolutionResult
    evaluator: ProtectionEvaluator
    dropped: list[Individual] = field(default_factory=list)

    @property
    def history(self):
        return self.result.history

    def summary_rows(self) -> list[list[object]]:
        """max/mean/min initial -> final rows, the paper's in-text numbers."""
        rows = []
        for series in ("max", "mean", "min"):
            initial, final, percent = self.history.improvement(series)
            rows.append([series, initial, final, percent])
        return rows


def drop_best(
    individuals: list[Individual], fraction: float
) -> tuple[list[Individual], list[Individual]]:
    """Remove the best ``fraction`` of individuals by score (experiment 3).

    Returns ``(kept, dropped)``.  At least two individuals are always
    kept so the GA remains runnable.
    """
    if not 0 <= fraction < 1:
        raise ExperimentError(f"fraction must be in [0, 1), got {fraction}")
    if fraction == 0:
        return list(individuals), []
    ordered = sorted(individuals, key=lambda ind: ind.score)
    n_drop = min(int(round(len(ordered) * fraction)), max(0, len(ordered) - 2))
    return ordered[n_drop:], ordered[:n_drop]


def run_experiment(
    config: ExperimentConfig,
    evaluation_cache: ScoreCache | None = None,
    checkpoint_every: int = 0,
    on_checkpoint: Callable[[EngineCheckpoint], None] | None = None,
    resume_from: EngineCheckpoint | None = None,
) -> ExperimentResult:
    """Execute one configured paper run end to end.

    ``evaluation_cache`` is handed to the evaluator as its persistent
    score store, so repeated runs skip already-scored candidates.
    ``checkpoint_every`` / ``on_checkpoint`` forward to the engine's
    checkpoint hook, and ``resume_from`` continues a checkpointed run
    instead of building and scoring a fresh initial population (the
    individuals dropped by ``drop_best_fraction`` are not part of a
    checkpoint, so a resumed result reports none).
    """
    original = load_dataset(config.dataset)
    attributes = protected_attributes(config.dataset)
    evaluator = ProtectionEvaluator(
        original,
        attributes,
        score_function=score_function_by_name(config.score),
        persistent_cache=evaluation_cache,
    )
    engine = EvolutionaryProtector(
        evaluator,
        mutation_probability=config.mutation_probability,
        leader_fraction=config.leader_fraction,
        selection_strategy=config.selection_strategy,
        seed=config.seed,
    )
    if resume_from is not None:
        result = engine.resume(
            resume_from,
            stopping=config.generations,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
        )
        return ExperimentResult(config=config, result=result, evaluator=evaluator)
    protections = build_initial_population(
        original, dataset_name=config.dataset, seed=config.population_seed
    )
    individuals = engine.evaluate_initial(protections)
    kept, dropped = drop_best(individuals, config.drop_best_fraction)
    result = engine.run(
        kept,
        stopping=config.generations,
        checkpoint_every=checkpoint_every,
        on_checkpoint=on_checkpoint,
    )
    return ExperimentResult(config=config, result=result, evaluator=evaluator, dropped=dropped)
