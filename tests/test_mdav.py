"""Unit tests for MDAV multivariate microaggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ProtectionError
from repro.methods import MdavMicroaggregation, Microaggregation
from repro.methods.mdav import _centroid, _pairwise_distance_to

ATTRS = ["EDUCATION", "MARITAL-STATUS", "OCCUPATION"]


class TestHelpers:
    def test_distance_zero_to_self(self):
        codes = np.array([[1, 2], [3, 4]])
        sizes = np.array([5, 5])
        ordinal = np.array([True, False])
        distances = _pairwise_distance_to(codes, codes[0], sizes, ordinal)
        assert distances[0] == 0.0
        assert distances[1] > 0.0

    def test_distance_mixes_ordinal_and_nominal(self):
        codes = np.array([[0, 0], [4, 1]])
        sizes = np.array([5, 2])
        ordinal = np.array([True, False])
        distances = _pairwise_distance_to(codes, codes[0], sizes, ordinal)
        # Ordinal span 4/4 = 1.0, nominal mismatch = 1.0 -> mean 1.0.
        assert distances[1] == pytest.approx(1.0)

    def test_centroid_median_and_mode(self):
        codes = np.array([[0, 1], [2, 1], [9, 0]])
        sizes = np.array([10, 2])
        ordinal = np.array([True, False])
        center = _centroid(codes, ordinal, sizes)
        assert center[0] == 2  # median of 0, 2, 9
        assert center[1] == 1  # mode of 1, 1, 0


class TestMdav:
    def test_k_validation(self):
        with pytest.raises(ProtectionError):
            MdavMicroaggregation(k=1)

    @pytest.mark.parametrize("k", [3.0, 2.5, True, "3"])
    def test_non_integer_k_rejected_at_construction(self, k):
        with pytest.raises(ProtectionError, match="integer k"):
            MdavMicroaggregation(k=k)

    def test_joint_k_anonymity_over_protected_tuple(self, adult):
        from repro.metrics import k_anonymity_level

        masked = MdavMicroaggregation(k=4).protect(adult, ATTRS)
        # MDAV groups records jointly: every published QI tuple covers a
        # whole group, so the tuple-level k is at least 4.
        assert k_anonymity_level(masked, ATTRS) >= 4

    def test_groups_at_least_k_per_attribute(self, adult):
        masked = MdavMicroaggregation(k=5).protect(adult, ATTRS)
        for attribute in ATTRS:
            counts = masked.value_counts(attribute)
            used = counts[counts > 0]
            assert used.min() >= 5

    def test_deterministic(self, adult):
        a = MdavMicroaggregation(k=3).protect(adult, ATTRS)
        b = MdavMicroaggregation(k=3).protect(adult, ATTRS)
        assert a.equals(b)

    def test_differs_from_univariate(self, adult):
        mdav = MdavMicroaggregation(k=4).protect(adult, ATTRS)
        univariate = Microaggregation(k=4).protect(adult, ATTRS)
        assert not mdav.equals(univariate)

    def test_untouched_attributes_identical(self, adult):
        masked = MdavMicroaggregation(k=3).protect(adult, ATTRS)
        for attribute in adult.attribute_names:
            if attribute in ATTRS:
                continue
            assert np.array_equal(masked.column(attribute), adult.column(attribute))

    def test_larger_k_coarser_tuples(self, adult):
        def distinct_tuples(dataset):
            columns = [dataset.schema.index_of(a) for a in ATTRS]
            return np.unique(dataset.codes[:, columns], axis=0).shape[0]

        small = MdavMicroaggregation(k=3).protect(adult, ATTRS)
        large = MdavMicroaggregation(k=20).protect(adult, ATTRS)
        assert distinct_tuples(large) <= distinct_tuples(small)

    def test_small_file_single_group(self, small_adult):
        from repro.data import CategoricalDataset

        tiny = CategoricalDataset(small_adult.codes[:5], small_adult.schema, name="tiny5")
        masked = MdavMicroaggregation(k=4).protect(tiny, ATTRS)
        # 5 records < 2k: one group, one published tuple.
        columns = [tiny.schema.index_of(a) for a in ATTRS]
        assert np.unique(masked.codes[:, columns], axis=0).shape[0] == 1

    def test_registered(self):
        from repro.methods import registry

        assert "mdav" in registry.names()

    def test_protect_column_single_attribute(self, small_adult):
        method = MdavMicroaggregation(k=4)
        masked = method.protect(small_adult, ["EDUCATION"])
        counts = masked.value_counts("EDUCATION")
        assert counts[counts > 0].min() >= 4
