"""Reference kernels: the per-group and window-scan loops, kept verbatim.

:mod:`repro.methods.microaggregation` and :mod:`repro.methods.rank_swapping`
compute their codes with a grouped numpy pass and a bisect walk.  The
classes here override ``protect_column`` with the straightforward loops
those kernels replaced, so tests can assert that the fast kernels return
the same codes and leave the generator in the same state.  The helpers
are copied too, so a change to the library's helpers cannot move the
reference along with it.  Test-only: nothing under ``src/`` imports this.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.methods.microaggregation import Microaggregation
from repro.methods.rank_swapping import RankSwapping


def _group_boundaries(n_records: int, k: int) -> list[tuple[int, int]]:
    if n_records < k:
        return [(0, n_records)]
    boundaries = []
    start = 0
    while n_records - start >= 2 * k:
        boundaries.append((start, start + k))
        start += k
    boundaries.append((start, n_records))
    return boundaries


def _aggregate(codes: np.ndarray, ordinal: bool) -> int:
    if ordinal:
        return int(np.median(codes))
    counts = np.bincount(codes)
    return int(np.argmax(counts))


class ReferenceMicroaggregation(Microaggregation):
    """Microaggregation that aggregates one group at a time."""

    def protect_column(self, dataset: CategoricalDataset, column: int, rng: np.random.Generator) -> np.ndarray:
        domain = dataset.schema.domain(column)
        order = self._sort_order(dataset, column)
        values = dataset.column(column)
        masked = values.copy()
        sorted_values = values[order]
        for start, stop in _group_boundaries(dataset.n_records, self.k):
            aggregate = _aggregate(sorted_values[start:stop], domain.ordinal)
            masked[order[start:stop]] = aggregate
        return masked


class ReferenceRankSwapping(RankSwapping):
    """Rank swapping that scans the whole window for every record."""

    def protect_column(self, dataset: CategoricalDataset, column: int, rng: np.random.Generator) -> np.ndarray:
        values = dataset.column(column)
        n = values.shape[0]
        window = max(1, int(round(n * self.p / 100.0)))

        # Rank order with random tie-breaking so equal categories are not
        # always paired with themselves.
        tiebreak = rng.permutation(n)
        order = np.lexsort((tiebreak, values))

        swapped_sorted = values[order].copy()
        taken = np.zeros(n, dtype=bool)
        for i in range(n):
            if taken[i]:
                continue
            high = min(n - 1, i + window)
            candidates = [j for j in range(i + 1, high + 1) if not taken[j]]
            if not candidates:
                taken[i] = True
                continue
            j = candidates[int(rng.integers(len(candidates)))]
            swapped_sorted[i], swapped_sorted[j] = swapped_sorted[j], swapped_sorted[i]
            taken[i] = True
            taken[j] = True

        masked = np.empty(n, dtype=np.int64)
        masked[order] = swapped_sorted
        return masked


def assert_same_protection(method, reference, dataset, attributes, seed):
    """Protect with both; compare codes, names and the generator left behind."""
    fast_rng = np.random.default_rng(seed)
    slow_rng = np.random.default_rng(seed)
    fast = method.protect(dataset, attributes, seed=fast_rng)
    slow = reference.protect(dataset, attributes, seed=slow_rng)
    np.testing.assert_array_equal(fast.codes, slow.codes)
    assert fast.name == slow.name
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
