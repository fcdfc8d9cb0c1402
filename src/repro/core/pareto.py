"""Pareto-front multi-objective optimization (paper future-work extension).

The paper scalarizes (IL, DR) into one score and notes in its
conclusions that other aggregations are worth exploring.  The natural
end point of that line is to drop scalarization entirely and optimize
the two objectives as a Pareto problem: a protection dominates another
when it is no worse on both IL and DR and strictly better on one.

This module supplies the standard machinery — fast non-dominated sorting
and crowding distance (the NSGA-II components) — plus
:class:`ParetoEvolutionaryProtector`, a steady-state engine that reuses
the paper's operators and selection flavour but replaces elitist
replacement with dominance-based acceptance: an offspring enters the
population by replacing the most crowded individual of the worst front
whenever it is not dominated by its parent.

The result of a run is the full Pareto front of protections, from which
an agency can pick its preferred IL/DR trade-off after the fact.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.individual import Individual
from repro.core.operators import crossover, mutate
from repro.data.dataset import CategoricalDataset
from repro.data.validation import require_population
from repro.exceptions import EvolutionError
from repro.metrics.evaluation import ProtectionEvaluator
from repro.obs import emit_event, get_registry
from repro.utils.rng import as_generator


def dominates(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Pareto dominance for minimization: a no worse everywhere, better somewhere."""
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def non_dominated_sort(objectives: np.ndarray) -> list[np.ndarray]:
    """Fast non-dominated sorting; returns fronts as index arrays.

    ``objectives`` is an ``(n, m)`` matrix, minimized component-wise.
    Front 0 is the Pareto-optimal set; each later front is optimal once
    earlier fronts are removed.
    """
    points = np.asarray(objectives, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise EvolutionError("objectives must be a non-empty (n, m) matrix")
    n = points.shape[0]
    # dominated[i, j] = i dominates j.
    no_worse = (points[:, None, :] <= points[None, :, :]).all(axis=2)
    strictly_better = (points[:, None, :] < points[None, :, :]).any(axis=2)
    domination = no_worse & strictly_better
    dominated_count = domination.sum(axis=0)

    fronts: list[np.ndarray] = []
    remaining = np.ones(n, dtype=bool)
    counts = dominated_count.astype(np.int64).copy()
    while remaining.any():
        current = np.where(remaining & (counts == 0))[0]
        if current.size == 0:
            # Numerically impossible unless there is a cycle (there cannot
            # be); guard against infinite loops regardless.
            current = np.where(remaining)[0]
        fronts.append(current)
        remaining[current] = False
        counts -= domination[current].sum(axis=0)
    return fronts


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance of each point within one front.

    Boundary points get infinite distance; interior points get the sum of
    normalized neighbour gaps per objective.  Larger = less crowded.
    """
    points = np.asarray(objectives, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise EvolutionError("objectives must be a non-empty (n, m) matrix")
    n, m = points.shape
    distance = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for objective in range(m):
        order = np.argsort(points[:, objective], kind="stable")
        lo = points[order[0], objective]
        hi = points[order[-1], objective]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        span = hi - lo
        if span <= 0:
            continue
        gaps = (points[order[2:], objective] - points[order[:-2], objective]) / span
        distance[order[1:-1]] += gaps
    return distance


@dataclass(frozen=True)
class ParetoResult:
    """Outcome of a Pareto run: final population and its first front."""

    population: list[Individual]
    front: list[Individual]
    generations: int
    front_sizes: list[int]

    def front_objectives(self) -> list[tuple[float, float]]:
        """(IL, DR) pairs of the Pareto front, sorted by IL."""
        pairs = [(ind.information_loss, ind.disclosure_risk) for ind in self.front]
        return sorted(pairs)


class ParetoEvolutionaryProtector:
    """Steady-state Pareto GA over protections, reusing the paper's operators.

    Each generation mutates or crosses (probability ``mutation_probability``)
    parents drawn randomly, preferring the first front; offspring are
    accepted if they are not dominated by their parent, replacing the
    most crowded member of the last front.
    """

    def __init__(
        self,
        evaluator: ProtectionEvaluator,
        mutation_probability: float = 0.5,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if not 0 <= mutation_probability <= 1:
            raise EvolutionError(
                f"mutation_probability must be in [0, 1], got {mutation_probability}"
            )
        self.evaluator = evaluator
        self.mutation_probability = float(mutation_probability)
        self._rng = as_generator(seed)

    def _objectives(self, population: Sequence[Individual]) -> np.ndarray:
        return np.array(
            [(ind.information_loss, ind.disclosure_risk) for ind in population],
            dtype=np.float64,
        )

    def _select_parent_index(self, fronts: list[np.ndarray]) -> int:
        # Prefer the first front with probability 1/2, else uniform overall.
        if self._rng.random() < 0.5:
            front = fronts[0]
            return int(front[self._rng.integers(front.size)])
        total = sum(front.size for front in fronts)
        return int(self._rng.integers(total))

    def _replacement_index(self, population: Sequence[Individual]) -> int:
        objectives = self._objectives(population)
        fronts = non_dominated_sort(objectives)
        last = fronts[-1]
        distances = crowding_distance(objectives[last])
        return int(last[int(np.argmin(distances))])

    def run(
        self,
        initial: Sequence[CategoricalDataset],
        generations: int = 200,
    ) -> ParetoResult:
        """Evolve ``initial`` for ``generations`` steady-state steps."""
        if generations < 1:
            raise EvolutionError(f"generations must be >= 1, got {generations}")
        require_population(self.evaluator.original, initial)
        if len(initial) < 2:
            raise EvolutionError("the Pareto GA needs at least 2 protections")
        # One evaluation batch for the whole initial population: dedup
        # and bulk cache rounds apply (batch[i] == scalar bit-for-bit by
        # the compute_many contract, so results are unchanged).
        initial_evaluations = self.evaluator.evaluate_many(list(initial))
        population = [
            Individual(dataset=d, evaluation=evaluation, origin="initial")
            for d, evaluation in zip(initial, initial_evaluations)
        ]
        front_sizes: list[int] = []
        registry = get_registry()

        for generation in range(1, generations + 1):
            objectives = self._objectives(population)
            fronts = non_dominated_sort(objectives)
            front_sizes.append(int(fronts[0].size))
            if registry.enabled:
                registry.set_gauge("repro_pareto_front_size", front_sizes[-1])
                emit_event("pareto_generation", generation=generation,
                           front_size=front_sizes[-1])

            parent_index = self._select_parent_index(fronts)
            parent = population[parent_index]
            attributes = self.evaluator.attributes

            # Offspring are evaluated as one batch per generation (a
            # singleton for mutation, the sibling pair for crossover):
            # shared intermediates are computed once and caches are
            # consulted in bulk.  Evaluation is pure, so the RNG stream
            # — and therefore the run — is bit-identical to the old
            # scalar calls.
            if self._rng.random() < self.mutation_probability:
                child_data = mutate(parent.dataset, attributes, seed=self._rng,
                                    name=f"pareto:gen{generation}:mut")
                (child_eval,) = self.evaluator.evaluate_many([child_data])
                children = [
                    Individual(child_data, child_eval,
                               origin="mutation", birth_generation=generation)
                ]
            else:
                mate_index = self._select_parent_index(fronts)
                mate = population[mate_index]
                data_a, data_b = crossover(
                    parent.dataset, mate.dataset, attributes, seed=self._rng,
                    names=(f"pareto:gen{generation}:xA", f"pareto:gen{generation}:xB"),
                )
                eval_a, eval_b = self.evaluator.evaluate_many([data_a, data_b])
                children = [
                    Individual(data, evaluation,
                               origin="crossover", birth_generation=generation)
                    for data, evaluation in zip((data_a, data_b), (eval_a, eval_b))
                ]

            for child in children:
                parent_objs = (parent.information_loss, parent.disclosure_risk)
                child_objs = (child.information_loss, child.disclosure_risk)
                if dominates(parent_objs, child_objs):
                    continue  # strictly worse offspring die
                population[self._replacement_index(population)] = child

        final_objectives = self._objectives(population)
        final_fronts = non_dominated_sort(final_objectives)
        front = [population[int(i)] for i in final_fronts[0]]
        return ParetoResult(
            population=list(population),
            front=front,
            generations=generations,
            front_sizes=front_sizes,
        )
