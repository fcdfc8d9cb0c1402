"""Unit tests for categorical microaggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ProtectionError
from repro.methods import Microaggregation
from repro.methods.microaggregation import _aggregate, _full_groups


class TestGroupBoundaries:
    def test_exact_multiple(self):
        # [0, 3) [3, 6), then the last group [6, 9).
        assert _full_groups(9, 3) == 2

    def test_remainder_absorbed_by_last_group(self):
        # [0, 3) [3, 6), then the last group [6, 10).
        assert _full_groups(10, 3) == 2

    def test_fewer_records_than_k(self):
        assert _full_groups(2, 5) == 0

    def test_every_record_covered_once(self):
        for k in range(2, 10):
            for n in range(1, 60):
                last = n - _full_groups(n, k) * k
                if n < k:
                    assert last == n
                else:
                    assert k <= last < 2 * k


class TestAggregate:
    def test_ordinal_median(self):
        assert _aggregate(np.array([1, 2, 9]), ordinal=True) == 2

    def test_nominal_mode(self):
        assert _aggregate(np.array([3, 3, 1, 2]), ordinal=False) == 3

    def test_nominal_mode_tie_lowest_code(self):
        assert _aggregate(np.array([2, 1, 1, 2]), ordinal=False) == 1


class TestMicroaggregation:
    def test_k_validation(self):
        with pytest.raises(ProtectionError):
            Microaggregation(k=1)

    @pytest.mark.parametrize("k", [3.0, 2.5, True, "3"])
    def test_non_integer_k_rejected_at_construction(self, k):
        with pytest.raises(ProtectionError, match="integer k"):
            Microaggregation(k=k)

    def test_numpy_integer_k_accepted(self, adult):
        method = Microaggregation(k=np.int64(3))
        assert type(method.k) is int and method.describe() == "microagg(k=3,univariate)"
        np.testing.assert_array_equal(
            method.protect(adult, ["EDUCATION"]).codes, Microaggregation(k=3).protect(adult, ["EDUCATION"]).codes
        )

    def test_strategy_validation(self):
        with pytest.raises(ProtectionError):
            Microaggregation(strategy="cosmic")

    def test_groups_have_at_least_k_identical_values(self, adult):
        attrs = ("EDUCATION", "MARITAL-STATUS", "OCCUPATION")
        masked = Microaggregation(k=5).protect(adult, attrs)
        for attribute in attrs:
            counts = masked.value_counts(attribute)
            used = counts[counts > 0]
            # Every published category must cover at least k records
            # (groups may merge onto the same aggregate, only growing them).
            assert used.min() >= 5

    def test_larger_k_coarser(self, adult):
        attrs = ("EDUCATION",)
        small_k = Microaggregation(k=2).protect(adult, attrs)
        large_k = Microaggregation(k=50).protect(adult, attrs)
        distinct_small = (small_k.value_counts("EDUCATION") > 0).sum()
        distinct_large = (large_k.value_counts("EDUCATION") > 0).sum()
        assert distinct_large <= distinct_small

    def test_untouched_attributes_identical(self, adult):
        masked = Microaggregation(k=3).protect(adult, ("EDUCATION",))
        for attribute in adult.attribute_names:
            if attribute == "EDUCATION":
                continue
            assert np.array_equal(masked.column(attribute), adult.column(attribute))

    def test_deterministic(self, adult):
        attrs = ("EDUCATION", "OCCUPATION")
        a = Microaggregation(k=4).protect(adult, attrs)
        b = Microaggregation(k=4).protect(adult, attrs)
        assert a.equals(b)

    def test_joint_needs_sort_attributes(self, adult):
        method = Microaggregation(k=3, strategy="joint")
        with pytest.raises(ProtectionError, match="sort_attributes"):
            method.protect(adult, ("EDUCATION",))

    def test_joint_strategy_runs(self, adult):
        attrs = ("EDUCATION", "MARITAL-STATUS")
        method = Microaggregation(k=3, strategy="joint", sort_attributes=attrs)
        masked = method.protect(adult, attrs)
        assert masked.n_records == adult.n_records
        assert adult.cells_changed(masked) > 0

    def test_joint_and_univariate_differ(self, adult):
        attrs = ("EDUCATION", "MARITAL-STATUS", "OCCUPATION")
        univariate = Microaggregation(k=5).protect(adult, attrs)
        joint = Microaggregation(k=5, strategy="joint", sort_attributes=attrs).protect(adult, attrs)
        assert not univariate.equals(joint)

    def test_describe(self):
        assert Microaggregation(k=3).describe() == "microagg(k=3,univariate)"
