"""The evolutionary protection engine — paper Algorithm 1.

:class:`EvolutionaryProtector` runs the paper's steady-state GA over a
population of protected files:

1. evaluate the initial population;
2. each generation, flip a fair coin between mutation and crossover
   (both rates 0.5, the paper's heuristic choice);
3. **mutation**: select one individual fitness-proportionally, mutate a
   single gene, and keep the better of parent and offspring (elitism);
4. **crossover**: select one parent uniformly from the ``Nb``-best
   leader group and one fitness-proportionally from the whole
   population, apply 2-point category crossover, and let each offspring
   compete with its parent (deterministic crowding);
5. stop per the configured rule and return the final population with the
   full per-generation history.

The engine is deterministic given its seed, and all fitness work goes
through a single :class:`~repro.metrics.evaluation.ProtectionEvaluator`
whose memoization it shares across generations.
"""

from __future__ import annotations

import copy
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.history import EvolutionHistory, GenerationRecord
from repro.core.individual import Individual
from repro.core.operators import crossover, mutate
from repro.core.population import Population
from repro.core.replacement import deterministic_crowding, elitist_survivor
from repro.core.selection import STRATEGIES, select_index, select_leader
from repro.core.stopping import MaxGenerations, StoppingRule
from repro.data.dataset import CategoricalDataset
from repro.data.validation import require_population
from repro.exceptions import EvolutionError
from repro.metrics.evaluation import ProtectionEvaluator
from repro.obs import emit_event, get_registry
from repro.obs.trace import span as trace_span
from repro.utils.rng import as_generator


@dataclass(frozen=True)
class EvolutionResult:
    """Everything a run produced: endpoint populations and the history."""

    initial: list[Individual]
    population: Population
    history: EvolutionHistory

    @property
    def best(self) -> Individual:
        """Best individual of the final population."""
        return self.population.best()

    def initial_dispersion(self) -> list[tuple[float, float]]:
        """(IL, DR) cloud of the initial population (dispersion figures)."""
        return [(ind.information_loss, ind.disclosure_risk) for ind in self.initial]

    def final_dispersion(self) -> list[tuple[float, float]]:
        """(IL, DR) cloud of the final population (dispersion figures)."""
        return self.population.dispersion()


@dataclass(frozen=True)
class EngineCheckpoint:
    """Complete mid-run engine state, sufficient to continue the run.

    Captures the population, the initial snapshot, the history so far,
    the generation counter, and the RNG bit-generator state.  Resuming
    from a checkpoint with :meth:`EvolutionaryProtector.resume` replays
    the exact stochastic stream the uninterrupted run would have drawn,
    so an interrupted-and-resumed run is bit-identical to a straight one.
    Serialization to disk lives in :mod:`repro.service.checkpoint`.
    """

    generation: int
    initial: list[Individual]
    individuals: list[Individual]
    records: list[GenerationRecord]
    rng_state: dict


class EvolutionaryProtector:
    """Paper Algorithm 1 with the paper's operators, selection and replacement.

    Parameters
    ----------
    evaluator:
        Bound fitness stack (original file, attributes, measures, score).
    mutation_probability:
        Probability that a generation applies mutation rather than
        crossover; the paper fixes 0.5.
    leader_fraction:
        Size of the crossover leader group ``Nb`` as a fraction of the
        population (at least 1 individual).
    selection_strategy:
        Parent-selection strategy (see :mod:`repro.core.selection`).
    crowding_pairing:
        ``"index"`` (paper) or ``"distance"`` (classical deterministic
        crowding).
    seed:
        Run seed; fixes every stochastic decision of the run.
    """

    def __init__(
        self,
        evaluator: ProtectionEvaluator,
        mutation_probability: float = 0.5,
        leader_fraction: float = 0.1,
        selection_strategy: str = "proportional",
        crowding_pairing: str = "index",
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if not 0 <= mutation_probability <= 1:
            raise EvolutionError(
                f"mutation_probability must be in [0, 1], got {mutation_probability}"
            )
        if not 0 < leader_fraction <= 1:
            raise EvolutionError(f"leader_fraction must be in (0, 1], got {leader_fraction}")
        if selection_strategy not in STRATEGIES:
            raise EvolutionError(
                f"unknown selection strategy {selection_strategy!r}; choose from {STRATEGIES}"
            )
        if crowding_pairing not in ("index", "distance"):
            raise EvolutionError(
                f"crowding_pairing must be 'index' or 'distance', got {crowding_pairing!r}"
            )
        self.evaluator = evaluator
        self.mutation_probability = float(mutation_probability)
        self.leader_fraction = float(leader_fraction)
        self.selection_strategy = selection_strategy
        self.crowding_pairing = crowding_pairing
        self._rng = as_generator(seed)

    # -- public API -------------------------------------------------------

    def evaluate_initial(self, protections: Sequence[CategoricalDataset]) -> list[Individual]:
        """Score an initial population of protected files.

        One evaluation batch: the whole population goes through
        :meth:`~repro.metrics.evaluation.ProtectionEvaluator.evaluate_many`,
        so duplicates are collapsed, caches are consulted in bulk, and
        the fresh remainder is vectorized.
        """
        require_population(self.evaluator.original, protections)
        evaluations = self.evaluator.evaluate_many(protections)
        return [
            Individual(dataset=p, evaluation=evaluation, origin="initial")
            for p, evaluation in zip(protections, evaluations)
        ]

    def run(
        self,
        initial: Sequence[CategoricalDataset] | Sequence[Individual],
        stopping: StoppingRule | int = 200,
        on_generation: Callable[[GenerationRecord], None] | None = None,
        checkpoint_every: int = 0,
        on_checkpoint: Callable[[EngineCheckpoint], None] | None = None,
        migration_every: int = 0,
        on_migration: Callable[[Population, int, Callable[[], EngineCheckpoint]], None] | None = None,
    ) -> EvolutionResult:
        """Run the GA until ``stopping`` fires; returns the full result.

        ``initial`` may be raw protected files (scored here) or already
        scored :class:`Individual` objects.  ``stopping`` may be a rule
        or an int shorthand for :class:`MaxGenerations`.  When
        ``checkpoint_every`` is positive, ``on_checkpoint`` receives an
        :class:`EngineCheckpoint` after every that-many generations (and
        once more when the run ends), enabling interrupt-safe restarts.
        When ``migration_every`` is positive, ``on_migration`` fires
        after every that-many generations with the live population, the
        generation number, and a zero-argument capture callable that
        snapshots the full engine state — the island-model exchange hook
        (see :mod:`repro.service.islands`).  The hook may mutate the
        population in place (elite injection); it must not draw from the
        run RNG, so seeded runs stay bit-identical with or without it.
        """
        individuals = self._coerce_initial(initial)
        if len(individuals) < 2:
            raise EvolutionError("the GA needs a population of at least 2 protections")
        population = Population(individuals)
        return self._loop(
            population=population,
            initial_snapshot=population.snapshot(),
            history=EvolutionHistory(),
            generation=0,
            stopping=stopping,
            on_generation=on_generation,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
            migration_every=migration_every,
            on_migration=on_migration,
        )

    def resume(
        self,
        checkpoint: EngineCheckpoint,
        stopping: StoppingRule | int = 200,
        on_generation: Callable[[GenerationRecord], None] | None = None,
        checkpoint_every: int = 0,
        on_checkpoint: Callable[[EngineCheckpoint], None] | None = None,
        migration_every: int = 0,
        on_migration: Callable[[Population, int, Callable[[], EngineCheckpoint]], None] | None = None,
    ) -> EvolutionResult:
        """Continue a checkpointed run exactly where it left off.

        Restores the population, the history, the generation counter and
        the RNG stream, then keeps stepping until ``stopping`` fires
        (count-based rules see the restored history, so e.g.
        ``MaxGenerations(200)`` means 200 generations *total*).  Given
        the same evaluator configuration, resume is bit-identical to
        never having stopped.  ``migration_every`` / ``on_migration``
        behave exactly as in :meth:`run`; a hook boundary the checkpoint
        already passed does not re-fire.
        """
        if not checkpoint.individuals:
            raise EvolutionError("checkpoint holds an empty population")
        self._rng.bit_generator.state = copy.deepcopy(checkpoint.rng_state)
        return self._loop(
            population=Population(checkpoint.individuals),
            initial_snapshot=list(checkpoint.initial),
            history=EvolutionHistory(list(checkpoint.records)),
            generation=checkpoint.generation,
            stopping=stopping,
            on_generation=on_generation,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
            migration_every=migration_every,
            on_migration=on_migration,
        )

    # -- internals ----------------------------------------------------------

    def _loop(
        self,
        population: Population,
        initial_snapshot: list[Individual],
        history: EvolutionHistory,
        generation: int,
        stopping: StoppingRule | int,
        on_generation: Callable[[GenerationRecord], None] | None,
        checkpoint_every: int,
        on_checkpoint: Callable[[EngineCheckpoint], None] | None,
        migration_every: int = 0,
        on_migration: Callable[[Population, int, Callable[[], EngineCheckpoint]], None] | None = None,
    ) -> EvolutionResult:
        if isinstance(stopping, int):
            stopping = MaxGenerations(stopping)
        if checkpoint_every < 0:
            raise EvolutionError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
        if migration_every < 0:
            raise EvolutionError(f"migration_every must be >= 0, got {migration_every}")
        emit = on_checkpoint if checkpoint_every else None
        migrate = on_migration if migration_every else None
        stepped = False
        while not stopping.should_stop(history):
            generation += 1
            # Pure observer: the span reads clocks only when a traced
            # job is active, and never touches the run's RNG streams.
            with trace_span("repro.engine.generation",
                            generation=generation) as span:
                record = self._step(population, generation)
                span.set(operator=record.operator,
                         evaluations=record.evaluations,
                         accepted=record.accepted)
            history.append(record)
            stepped = True
            if on_generation is not None:
                on_generation(record)
            if migrate is not None and generation % migration_every == 0:
                # The hook runs before the checkpoint emit so a
                # checkpoint at an exchange boundary captures the
                # post-injection population (resume-consistent).
                migrate(
                    population,
                    generation,
                    lambda: self._capture(population, initial_snapshot, history, generation),
                )
            if emit is not None and generation % checkpoint_every == 0:
                emit(self._capture(population, initial_snapshot, history, generation))
        if emit is not None and stepped and generation % checkpoint_every != 0:
            # Final partial interval, so a completed run's last checkpoint
            # always matches its returned result.
            emit(self._capture(population, initial_snapshot, history, generation))
        return EvolutionResult(initial=initial_snapshot, population=population, history=history)

    def _capture(
        self,
        population: Population,
        initial_snapshot: list[Individual],
        history: EvolutionHistory,
        generation: int,
    ) -> EngineCheckpoint:
        return EngineCheckpoint(
            generation=generation,
            initial=list(initial_snapshot),
            individuals=population.snapshot(),
            records=list(history.records),
            rng_state=copy.deepcopy(self._rng.bit_generator.state),
        )

    def _coerce_initial(
        self, initial: Sequence[CategoricalDataset] | Sequence[Individual]
    ) -> list[Individual]:
        if not initial:
            raise EvolutionError("initial population must not be empty")
        if isinstance(initial[0], Individual):
            return list(initial)  # type: ignore[arg-type]
        return self.evaluate_initial(initial)  # type: ignore[arg-type]

    def _leader_count(self, population: Population) -> int:
        return max(1, int(round(self.leader_fraction * len(population))))

    def _step(self, population: Population, generation: int) -> GenerationRecord:
        start = time.perf_counter()
        use_mutation = self._rng.random() < self.mutation_probability
        fitness_seconds = 0.0
        evaluations = 0
        accepted = False

        if use_mutation:
            operator = "mutation"
            parent_index = select_index(population, self.selection_strategy, self._rng)
            parent = population[parent_index]
            child_dataset = mutate(
                parent.dataset,
                self.evaluator.attributes,
                seed=self._rng,
                name=f"gen{generation}:mut({parent.dataset.name})",
            )
            t0 = time.perf_counter()
            # The mutation evaluation point emits a (singleton) batch:
            # evaluation is pure, so the RNG stream is untouched either way.
            (child_eval,) = self.evaluator.evaluate_many([child_dataset])
            fitness_seconds += time.perf_counter() - t0
            evaluations += 1
            child = Individual(child_dataset, child_eval, origin="mutation", birth_generation=generation)
            survivor = elitist_survivor(parent, child)
            if survivor is child:
                population.replace(parent_index, child)
                accepted = True
        else:
            operator = "crossover"
            leader_index = select_leader(population, self._leader_count(population), self._rng)
            mate_index = select_index(population, self.selection_strategy, self._rng)
            parents = (population[leader_index], population[mate_index])
            child_a_data, child_b_data = crossover(
                parents[0].dataset,
                parents[1].dataset,
                self.evaluator.attributes,
                seed=self._rng,
                names=(
                    f"gen{generation}:crossA",
                    f"gen{generation}:crossB",
                ),
            )
            t0 = time.perf_counter()
            # Both crossover offspring are one evaluation batch: shared
            # intermediates (and a pooled EM fit) are computed once.
            eval_a, eval_b = self.evaluator.evaluate_many([child_a_data, child_b_data])
            fitness_seconds += time.perf_counter() - t0
            evaluations += 2
            children = (
                Individual(child_a_data, eval_a, origin="crossover", birth_generation=generation),
                Individual(child_b_data, eval_b, origin="crossover", birth_generation=generation),
            )
            survivors = deterministic_crowding(parents, children, self.crowding_pairing)
            for slot, index in enumerate((leader_index, mate_index)):
                if survivors[slot] is children[slot]:
                    population.replace(index, children[slot])
                    accepted = True

        max_score, mean_score, min_score = population.score_summary()
        total_seconds = time.perf_counter() - start
        registry = get_registry()
        if registry.enabled:
            # Pure observation of already-computed values: no clock reads
            # beyond the ones the record itself needs, and no RNG access,
            # so seeded runs stay bit-identical with telemetry on or off.
            registry.observe("repro_engine_generation_seconds", total_seconds,
                             operator=operator)
            registry.inc("repro_engine_evaluations_total", evaluations,
                         operator=operator)
            emit_event(
                "generation",
                generation=generation,
                operator=operator,
                best=min_score,
                mean=mean_score,
                evaluations=evaluations,
                fitness_seconds=round(fitness_seconds, 6),
                total_seconds=round(total_seconds, 6),
                accepted=accepted,
            )
        return GenerationRecord(
            generation=generation,
            operator=operator,
            max_score=max_score,
            mean_score=mean_score,
            min_score=min_score,
            evaluations=evaluations,
            fitness_seconds=fitness_seconds,
            other_seconds=max(0.0, total_seconds - fitness_seconds),
            accepted=accepted,
        )
