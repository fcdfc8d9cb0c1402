"""Rank swapping (Moore, 1996) adapted to categorical attributes.

Rank swapping sorts the values of one attribute, then swaps each value
with another value whose *rank* lies within a window of ``p`` percent of
the number of records.  Because swapping only permutes existing values,
the attribute's marginal distribution is preserved exactly — the
signature property of the method, and the one our property-based tests
pin down.

For nominal attributes the rank order is category-code order with random
tie-breaking; for ordinal attributes it is value order (also with random
tie-breaking inside equal values), matching how categorical rank swapping
is applied in the SDC literature (paper references [14] and [17]).

The swap walk visits ranks in order; an unpaired rank ``i`` draws its
partner uniformly among the still-unpaired ranks in ``(i, i + window]``.
Rather than scanning the window, the walk keeps a sorted list of the
ranks ahead of ``i`` already taken as partners: one ``bisect`` counts the
free ranks in the window, and a short bisect fixed point finds the
``r``-th of them.  The draws are unchanged — one ``permutation(n)`` for
the tie-break, then one ``integers(n_free)`` per unpaired rank with free
ranks ahead, in rank order — so every seed gives the same codes and
leaves the generator in the same state as the plain window scan.  The
pairs are applied with a single fancy index at the end.
"""

from __future__ import annotations

from bisect import bisect_right, insort

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.exceptions import ProtectionError
from repro.methods.base import ProtectionMethod, registry


class RankSwapping(ProtectionMethod):
    """Swap each value with a partner at most ``p``% of records away in rank.

    Parameters
    ----------
    p:
        Window half-width as a percentage of the record count
        (``0 < p <= 100``).  The paper's populations sweep ``p`` from 1
        to 11.
    """

    method_name = "rank_swapping"

    def __init__(self, p: float = 5.0) -> None:
        if not 0 < p <= 100:
            raise ProtectionError(f"rank swapping needs 0 < p <= 100, got {p}")
        self.p = float(p)

    def describe(self) -> str:
        return f"rankswap(p={self.p:g})"

    def protect_column(self, dataset: CategoricalDataset, column: int, rng: np.random.Generator) -> np.ndarray:
        values = dataset.column(column)
        n = values.shape[0]
        window = max(1, int(round(n * self.p / 100.0)))

        # Rank order with random tie-breaking so equal categories are not
        # always paired with themselves.
        tiebreak = rng.permutation(n)
        order = np.lexsort((tiebreak, values))

        # Sorted: the ranks not yet visited that earlier ranks took as partners.
        ahead: list[int] = []
        partner = list(range(n))
        for i in range(n):
            if ahead and ahead[0] == i:
                del ahead[0]
                continue
            high = min(n - 1, i + window)
            n_free = high - i - bisect_right(ahead, high)
            if not n_free:
                continue
            # The r-th free rank after i is the least j with
            # j == i + 1 + r + (taken ranks <= j).
            offset = i + 1 + int(rng.integers(n_free))
            j = offset
            skipped = bisect_right(ahead, j)
            while offset + skipped != j:
                j = offset + skipped
                skipped = bisect_right(ahead, j, skipped)
            insort(ahead, j)
            partner[i] = j
            partner[j] = i

        masked = np.empty(n, dtype=np.int64)
        masked[order] = values[order[partner]]
        return masked


registry.register(RankSwapping)
