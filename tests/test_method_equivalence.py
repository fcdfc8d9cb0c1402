"""The grouped microaggregation pass and the bisect rank swap, bit for bit.

Both kernels must return the codes of the loops they replaced
(:mod:`method_reference`) and leave the generator in the same state, so
every seed stream drawn after a protection — the rest of the population,
then the GA itself — is unchanged.  The first battery runs the paper's
full method suites; the rest pins the edges of the group partition and
of the swap window.
"""

from __future__ import annotations

import numpy as np
import pytest
from method_reference import ReferenceMicroaggregation, ReferenceRankSwapping, assert_same_protection

from repro.data import CategoricalDataset, CategoricalDomain, DatasetSchema
from repro.datasets import load_dataset, protected_attributes
from repro.experiments.population_builder import PAPER_MIXES, build_method_suite
from repro.methods import Microaggregation, RankSwapping

POPULATION_SEEDS = (0, 7, 11)


def reference_of(method):
    """The loop-based twin of ``method``; other methods are their own twin."""
    if isinstance(method, Microaggregation):
        return ReferenceMicroaggregation(
            k=method.k, strategy=method.strategy, sort_attributes=method.sort_attributes
        )
    if isinstance(method, RankSwapping):
        return ReferenceRankSwapping(p=method.p)
    return method


def make_dataset(columns, sizes, ordinal):
    schema = DatasetSchema([
        CategoricalDomain(f"A{i}", [f"c{j}" for j in range(size)], ordinal=flag)
        for i, (size, flag) in enumerate(zip(sizes, ordinal))
    ])
    codes = np.column_stack([np.asarray(c, dtype=np.int64) for c in columns])
    return CategoricalDataset(codes, schema)


@pytest.mark.parametrize("name", sorted(PAPER_MIXES))
def test_paper_suites_match_reference(name):
    original = load_dataset(name)
    attributes = protected_attributes(name)
    for seed in POPULATION_SEEDS:
        # One generator per side, shared across the suite as the
        # population builder shares it, so a drift in draw order would
        # surface in every later method too.
        fast_rng = np.random.default_rng(seed)
        slow_rng = np.random.default_rng(seed)
        for index, method in enumerate(build_method_suite(attributes, PAPER_MIXES[name])):
            label = f"{name}#{index:03d}:{method.describe()}"
            fast = method.protect(original, attributes, seed=fast_rng, name=label)
            slow = reference_of(method).protect(original, attributes, seed=slow_rng, name=label)
            assert fast.name == slow.name
            np.testing.assert_array_equal(fast.codes, slow.codes, err_msg=label)
            assert fast_rng.bit_generator.state == slow_rng.bit_generator.state, label


class TestMicroaggregationEdges:
    @pytest.mark.parametrize("ordinal", [True, False])
    @pytest.mark.parametrize("n,k", [
        (1, 2),    # a single record
        (3, 5),    # n < k: one group
        (5, 5),    # n == k
        (7, 4),    # k <= n < 2k: the last group is the only group
        (12, 3),   # n an exact multiple of k
        (13, 3),   # remainder absorbed by the last group
        (40, 9),
    ])
    def test_group_partition_edges(self, n, k, ordinal):
        rng = np.random.default_rng(n * 100 + k)
        dataset = make_dataset([rng.integers(0, 5, n), rng.integers(0, 3, n)], [5, 3], [ordinal, not ordinal])
        for strategy, sort_attributes in (("univariate", None), ("joint", ("A0", "A1")), ("joint", ("A1", "A0"))):
            method = Microaggregation(k=k, strategy=strategy, sort_attributes=sort_attributes)
            assert_same_protection(method, reference_of(method), dataset, ["A0", "A1"], 0)

    def test_even_k_between_two_middle_codes(self):
        # Sorted: [0 1 3 4] [5 5 6 6] [6 6 6 8].  The first two groups'
        # middle codes differ; their aggregates are the floor of the
        # middle codes' mean (2 and 5), the first one a code no member has.
        column = [4, 0, 3, 1, 6, 5, 8, 5, 6, 6, 6, 6]
        dataset = make_dataset([column], [9], [True])
        masked = Microaggregation(k=4).protect(dataset, ["A0"]).column(0)
        assert masked[1] == 2 and masked[5] == 5 and masked[6] == 6
        for strategy, sort_attributes in (("univariate", None), ("joint", ("A0",))):
            method = Microaggregation(k=4, strategy=strategy, sort_attributes=sort_attributes)
            assert_same_protection(method, reference_of(method), dataset, ["A0"], 0)

    def test_nominal_ties_go_to_lowest_code(self):
        # Joint sort by code: [0 0 1 1] [1 1 2 2] [2 3 3 4 4] -- every
        # group tied, so the aggregates are 0, 1 and 3.
        column = [3, 1, 1, 3, 2, 0, 0, 2, 4, 4, 1, 1, 2]
        dataset = make_dataset([column], [5], [False])
        joint = Microaggregation(k=4, strategy="joint", sort_attributes=("A0",))
        masked = joint.protect(dataset, ["A0"]).column(0)
        assert masked[5] == 0 and masked[10] == 1 and masked[8] == 3
        for strategy, sort_attributes in (("univariate", None), ("joint", ("A0",))):
            method = Microaggregation(k=4, strategy=strategy, sort_attributes=sort_attributes)
            assert_same_protection(method, reference_of(method), dataset, ["A0"], 0)

    @pytest.mark.parametrize("ordinal", [True, False])
    def test_domain_of_size_one(self, ordinal):
        dataset = make_dataset([np.zeros(10, dtype=np.int64)], [1], [ordinal])
        method = Microaggregation(k=3)
        assert_same_protection(method, reference_of(method), dataset, ["A0"], 0)

    @pytest.mark.parametrize("ordinal", [True, False])
    def test_domain_far_larger_than_the_column(self, ordinal):
        rng = np.random.default_rng(5)
        dataset = make_dataset([rng.integers(0, 20_000, 300)], [20_000], [ordinal])
        for k in (2, 3):
            method = Microaggregation(k=k)
            assert_same_protection(method, reference_of(method), dataset, ["A0"], 0)


class TestRankSwappingEdges:
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 60])
    @pytest.mark.parametrize("p", [1.0, 7.5, 50.0, 100.0])
    def test_windows_from_one_rank_to_the_whole_column(self, n, p):
        rng = np.random.default_rng(n)
        dataset = make_dataset([rng.integers(0, 4, n), rng.integers(0, 2, n)], [4, 2], [True, False])
        method = RankSwapping(p=p)
        for seed in (0, 1, 2):
            assert_same_protection(method, reference_of(method), dataset, ["A0", "A1"], seed)

    def test_domain_of_size_one(self):
        dataset = make_dataset([np.zeros(25, dtype=np.int64)], [1], [False])
        method = RankSwapping(p=20)
        assert_same_protection(method, reference_of(method), dataset, ["A0"], 3)
