"""M1 — measure micro-benchmarks.

Fitness evaluation is the paper's acknowledged bottleneck; these benches
time every IL and DR measure individually, plus the full evaluator, the
compressed-vs-reference linkage speedup that makes the reproduction
laptop-fast, and the warm-index legs: one initial population's linkage
on an :class:`~repro.linkage.compressed.OriginalIndex` whose tuple
columns are already stored, so every grid is a gather (the cold legs
above build a fresh index per pair and broadcast every column).
"""

from __future__ import annotations

from functools import cache

import pytest

from repro.datasets import load_adult, load_dataset, protected_attributes
from repro.experiments.population_builder import build_initial_population
from repro.linkage import (
    distance_based_record_linkage,
    probabilistic_record_linkage,
    rank_swapping_record_linkage,
)
from repro.linkage.compressed import CompressedPair, OriginalIndex
from repro.methods import Pram
from repro.metrics import (
    ContingencyTableLoss,
    DistanceBasedLoss,
    DistanceLinkageRisk,
    EntropyBasedLoss,
    IntervalDisclosure,
    ProbabilisticLinkageRisk,
    ProtectionEvaluator,
    RankSwappingLinkageRisk,
)

ORIGINAL = load_adult()
ATTRS = protected_attributes("adult")
MASKED = Pram(theta=0.3).protect(ORIGINAL, ATTRS, seed=1)

IL_MEASURES = [ContingencyTableLoss, DistanceBasedLoss, EntropyBasedLoss]
DR_MEASURES = [IntervalDisclosure, DistanceLinkageRisk, ProbabilisticLinkageRisk, RankSwappingLinkageRisk]


@pytest.mark.parametrize("measure_cls", IL_MEASURES + DR_MEASURES, ids=lambda c: c.measure_name)
def test_measure_throughput(benchmark, measure_cls):
    measure = measure_cls(ORIGINAL, ATTRS)
    value = benchmark(measure.compute, MASKED)
    assert 0.0 <= value <= 100.0


def test_full_evaluation_throughput(benchmark):
    evaluator = ProtectionEvaluator(ORIGINAL, ATTRS, cache_size=0)
    score = benchmark(evaluator.evaluate, MASKED)
    assert 0.0 <= score.score <= 100.0


def test_cached_evaluation_throughput(benchmark):
    evaluator = ProtectionEvaluator(ORIGINAL, ATTRS)
    evaluator.evaluate(MASKED)  # warm the cache
    score = benchmark(evaluator.evaluate, MASKED)
    assert evaluator.cache_hits > 0
    assert 0.0 <= score.score <= 100.0


@pytest.mark.parametrize(
    "path,fn",
    [
        ("reference_n2", lambda: distance_based_record_linkage(ORIGINAL, MASKED, ATTRS)),
        ("compressed", lambda: CompressedPair(ORIGINAL, MASKED, ATTRS).distance_linkage()),
    ],
)
def test_dbrl_reference_vs_compressed(benchmark, path, fn):
    value = benchmark(fn)
    assert 0.0 <= value <= 100.0


@pytest.mark.parametrize(
    "path,fn",
    [
        ("reference_n2", lambda: probabilistic_record_linkage(ORIGINAL, MASKED, ATTRS)),
        ("compressed", lambda: CompressedPair(ORIGINAL, MASKED, ATTRS).probabilistic_linkage()),
    ],
)
def test_prl_reference_vs_compressed(benchmark, path, fn):
    value = benchmark(fn)
    assert 0.0 <= value <= 100.0


@pytest.mark.parametrize(
    "path,fn",
    [
        ("reference_n2", lambda: rank_swapping_record_linkage(ORIGINAL, MASKED, ATTRS)),
        ("compressed", lambda: CompressedPair(ORIGINAL, MASKED, ATTRS).rank_linkage()),
    ],
)
def test_rsrl_reference_vs_compressed(benchmark, path, fn):
    value = benchmark(fn)
    assert 0.0 <= value <= 100.0


@cache
def _warm_population(name: str):
    original = load_dataset(name)
    attributes = protected_attributes(name)
    population = build_initial_population(original, dataset_name=name, seed=7)
    index = OriginalIndex(original, attributes)
    pairs = [CompressedPair(original, masked, attributes, index=index) for masked in population]
    for pair in pairs:  # store every column the population touches
        pair.distance_linkage()
        pair.pattern_counts()
        pair.rank_linkage()
    return original, attributes, population, index


@pytest.mark.parametrize("dataset", ["housing", "adult"])
@pytest.mark.parametrize("attack", ["dbrl", "prl", "rsrl"])
def test_warm_index_population_linkage(benchmark, dataset, attack):
    original, attributes, population, index = _warm_population(dataset)
    run = {
        "dbrl": CompressedPair.distance_linkage,
        "prl": CompressedPair.probabilistic_linkage,
        "rsrl": CompressedPair.rank_linkage,
    }[attack]

    def score_population():
        return [
            run(CompressedPair(original, masked, attributes, index=index))
            for masked in population
        ]

    values = benchmark(score_population)
    assert all(0.0 <= value <= 100.0 for value in values)
