"""M1 — protection-method micro-benchmarks.

Times one protect() call per method family on the Adult dataset (1000
records, 3 protected attributes), the workload of the initial-population
builder, then whole paper populations: Housing (all three protected
attributes ordinal, so microaggregation takes the median path) and Flare
(all nominal: the mode path).
"""

from __future__ import annotations

import pytest

from repro.datasets import load_adult, load_dataset, protected_attributes
from repro.experiments import PAPER_MIXES, build_initial_population
from repro.methods import (
    BottomCoding,
    GlobalRecoding,
    InvariantPram,
    LocalSuppression,
    Microaggregation,
    Pram,
    ProtectionPipeline,
    RankSwapping,
    TopCoding,
)

ORIGINAL = load_adult()
ATTRS = protected_attributes("adult")

METHODS = [
    ("microaggregation_k3", Microaggregation(k=3)),
    ("microaggregation_joint", Microaggregation(k=3, strategy="joint", sort_attributes=ATTRS)),
    ("rank_swapping_p5", RankSwapping(p=5)),
    ("pram_theta02", Pram(theta=0.2)),
    ("invariant_pram_theta02", InvariantPram(theta=0.2)),
    ("top_coding", TopCoding(fraction=0.2)),
    ("bottom_coding", BottomCoding(fraction=0.2)),
    ("global_recoding_l2", GlobalRecoding(level=2)),
    ("local_suppression", LocalSuppression(fraction=0.1)),
    ("pipeline_recode_pram", ProtectionPipeline([GlobalRecoding(level=1), Pram(theta=0.1)])),
]


@pytest.mark.parametrize("label,method", METHODS, ids=[m[0] for m in METHODS])
def test_method_throughput(benchmark, label, method):
    masked = benchmark(method.protect, ORIGINAL, ATTRS, 7)
    ORIGINAL.require_compatible(masked)


@pytest.mark.parametrize("name", ["housing", "flare"])
def test_build_initial_population(benchmark, name):
    original = load_dataset(name)
    population = benchmark(build_initial_population, original, dataset_name=name, seed=7)
    assert len(population) == PAPER_MIXES[name].total
