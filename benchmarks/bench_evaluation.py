"""Fitness-pipeline benchmark — scalar loop vs batch.

The batch-first refactor's tentpole claim: evaluating a fresh (uncached)
population through ``ProtectionEvaluator.evaluate_many`` is several
times faster than the scalar ``evaluate`` loop, because the batch path
computes shared intermediates once (original-side linkage index, rank
tables, stacked code tensors) and pools the Fellegi–Sunter EM across
the whole batch.  This bench measures fresh-population throughput at
2–3 dataset sizes on two paths:

* ``serial`` — the scalar reference: ``[evaluator.evaluate(p) ...]``;
* ``batch``  — ``evaluate_many`` in-process (vectorized kernels).

Both paths must return byte-identical scores (asserted), and the batch
path must beat serial by ``>= 3x`` at the largest size (the acceptance
headline).

Sizes default to (300, 600, 1066) Flare records; set
``REPRO_BENCH_EVAL_SIZES=120`` (comma-separated) for the CI smoke run —
at toy sizes only the exactness assertions are enforced, not the
speedup floor.
"""

from __future__ import annotations

import os
import time

from conftest import emit, record_result

from repro.data import CategoricalDataset
from repro.datasets import load_flare, protected_attributes
from repro.experiments.population_builder import build_initial_population
from repro.linkage.compressed import clear_pair_memo
from repro.metrics import ProtectionEvaluator

#: The speedup floor asserted at the largest benched size.
SPEEDUP_FLOOR = 3.0
#: Sizes below this only check exactness (CI smoke at toy scale).
FLOOR_MIN_SIZE = 1000


def _sizes() -> list[int]:
    override = os.environ.get("REPRO_BENCH_EVAL_SIZES", "")
    if override:
        return [int(s) for s in override.split(",") if s.strip()]
    return [300, 600, 1066]


def _population(size: int) -> tuple[CategoricalDataset, list[CategoricalDataset]]:
    full = load_flare()
    original = CategoricalDataset(full.codes[:size], full.schema,
                                  name=f"flare-{size}")
    return original, build_initial_population(original, dataset_name="flare", seed=0)


def _fresh_evaluator(original: CategoricalDataset) -> ProtectionEvaluator:
    return ProtectionEvaluator(original, protected_attributes("flare"))


def test_bench_batch_evaluation_beats_serial():
    attrs_rows = []
    largest_speedup = 0.0
    largest_size = 0
    for size in _sizes():
        original, population = _population(size)

        # Each timed leg starts with a cold pair memo, or the serial leg
        # would pre-build the very pairs the batch leg is timed on.
        clear_pair_memo()
        evaluator = _fresh_evaluator(original)
        start = time.perf_counter()
        serial_scores = [evaluator.evaluate(p) for p in population]
        serial_s = time.perf_counter() - start

        clear_pair_memo()
        evaluator = _fresh_evaluator(original)
        start = time.perf_counter()
        batch_scores = evaluator.evaluate_many(population)
        batch_s = time.perf_counter() - start

        # Whatever the path, the scores are byte-identical.
        assert batch_scores == serial_scores

        speedup = serial_s / batch_s if batch_s else float("inf")
        record_result("evaluation", f"serial-n{size}", serial_s)
        record_result("evaluation", f"batch-n{size}", batch_s, ratio=speedup)
        if size >= largest_size:
            largest_size, largest_speedup = size, speedup
        rate = len(population) / batch_s
        attrs_rows.append(
            f"n={size:5d}  pop={len(population):4d}  "
            f"serial={serial_s:6.2f}s  batch={batch_s:6.2f}s  "
            f"batch-speedup={speedup:4.1f}x  "
            f"({rate:5.0f} cand/s batched)"
        )

    emit("fresh-population evaluation: serial vs batch", "\n".join(attrs_rows))
    if largest_size >= FLOOR_MIN_SIZE:
        assert largest_speedup >= SPEEDUP_FLOOR, (
            f"batch path only {largest_speedup:.1f}x at n={largest_size}; "
            f"the refactor's floor is {SPEEDUP_FLOOR}x"
        )


if __name__ == "__main__":  # pragma: no cover - manual runs
    test_bench_batch_evaluation_beats_serial()
