"""Median-based microaggregation for categorical variables (Torra, 2004).

Microaggregation partitions the records into small groups of at least
``k`` similar records and replaces every value in a group by the group's
aggregate.  For categorical data (paper reference [7]) the aggregate is
the **median** category for ordinal attributes and the **mode** (most
frequent category, ties to the lowest code) for nominal attributes, and
similarity is value order for ordinal attributes / frequency order for
nominal ones.

Two partition strategies reproduce the many microaggregation variants of
the paper's initial populations:

* ``"univariate"`` — each protected attribute is sorted and partitioned
  independently (classical individual-ranking microaggregation);
* ``"joint"`` — records are sorted once by the tuple of all protected
  attributes (a fixed projection of the multivariate space) and the same
  partition masks every protected attribute, giving stronger but lossier
  protection.

Every group but the last has exactly ``k`` members, so a column is
aggregated in one grouped pass: the first ``n_full * k`` sorted values
reshape to an ``(n_full, k)`` matrix, and each row is sorted.  Ordinal
medians are the middle column (the floor of the two middle codes' mean
for even ``k``, which is ``int(np.median(group))`` for non-negative
codes).  Nominal modes are the longest run of equal codes in each row;
of equally long runs the first, lowest code wins, as in
:func:`_aggregate`.  The pass holds O(n) values whatever the domain size.
Only the last group, of ``k`` to ``2k - 1`` records, goes through
:func:`_aggregate`.
"""

from __future__ import annotations

from numbers import Integral

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.exceptions import ProtectionError
from repro.methods.base import ProtectionMethod, registry


def _full_groups(n_records: int, k: int) -> int:
    """How many groups of exactly ``k`` records precede the last group.

    The records, in sort order, form contiguous groups of exactly ``k``
    except the last, which absorbs the remainder and so holds ``k`` to
    ``2k - 1`` records (the standard fixed-size microaggregation
    heuristic: a remainder smaller than ``k`` may not form its own
    group).  With fewer than ``k`` records there is only the last group.
    """
    return max(n_records // k - 1, 0)


def _aggregate(codes: np.ndarray, ordinal: bool) -> int:
    """Group aggregate: median code if ordinal, modal code otherwise."""
    if ordinal:
        return int(np.median(codes))
    counts = np.bincount(codes)
    return int(np.argmax(counts))


def _row_modes(groups: np.ndarray) -> np.ndarray:
    """Modal code of each row of a row-sorted matrix, ties to the lowest code.

    Equal codes are adjacent in a sorted row, so its mode is its longest
    run; ``lexsort`` is stable, so of equally long runs the first (lowest
    code) ranks first.
    """
    new_run = np.ones(groups.shape, dtype=bool)
    new_run[:, 1:] = groups[:, 1:] != groups[:, :-1]
    starts = np.flatnonzero(new_run)
    lengths = np.diff(np.r_[starts, groups.size])
    run_rows = starts // groups.shape[1]
    ranked = np.lexsort((-lengths, run_rows))
    firsts = ranked[np.r_[True, run_rows[ranked[1:]] != run_rows[ranked[:-1]]]]
    return groups.ravel()[starts[firsts]]


class Microaggregation(ProtectionMethod):
    """Categorical microaggregation with minimum group size ``k``.

    Parameters
    ----------
    k:
        Minimum group size (>= 2); larger ``k`` means stronger masking.
    strategy:
        ``"univariate"`` or ``"joint"`` (see module docstring).
    sort_attributes:
        Only used by ``"joint"``: the attributes defining the sort order.
        Defaults to the attributes being protected, in protect() order.
    """

    method_name = "microaggregation"

    def __init__(self, k: int = 3, strategy: str = "univariate", sort_attributes: tuple[str, ...] | None = None) -> None:
        if isinstance(k, bool) or not isinstance(k, Integral):
            raise ProtectionError(f"microaggregation needs an integer k, got {k!r}")
        if k < 2:
            raise ProtectionError(f"microaggregation needs k >= 2, got {k}")
        if strategy not in ("univariate", "joint"):
            raise ProtectionError(f"unknown strategy {strategy!r}")
        self.k = int(k)
        self.strategy = strategy
        self.sort_attributes = sort_attributes
        self._joint_order_cache: tuple[bytes, np.ndarray] | None = None

    def describe(self) -> str:
        return f"microagg(k={self.k},{self.strategy})"

    def _sort_order(self, dataset: CategoricalDataset, column: int) -> np.ndarray:
        """Record ordering that defines which records are 'similar'."""
        domain = dataset.schema.domain(column)
        if self.strategy == "univariate":
            values = dataset.column(column)
            if domain.ordinal:
                key = values
            else:
                # Nominal: order categories by frequency so that records
                # with similarly common values end up adjacent.
                counts = dataset.value_counts(column)
                key = counts[values] * (domain.size + 1) + values
            return np.argsort(key, kind="stable")
        # Joint: one shared ordering by the tuple of sort attributes.
        fingerprint = dataset.fingerprint()
        if self._joint_order_cache is not None and self._joint_order_cache[0] == fingerprint:
            return self._joint_order_cache[1]
        attrs = self.sort_attributes
        if attrs is None:
            raise ProtectionError("joint microaggregation needs sort_attributes")
        key_columns = [dataset.column(name) for name in reversed(attrs)]
        order = np.lexsort(tuple(key_columns))
        self._joint_order_cache = (fingerprint, order)
        return order

    def protect_column(self, dataset: CategoricalDataset, column: int, rng: np.random.Generator) -> np.ndarray:
        domain = dataset.schema.domain(column)
        order = self._sort_order(dataset, column)
        values = dataset.column(column)
        masked = values.copy()
        sorted_values = values[order]
        k = self.k
        n_full = _full_groups(dataset.n_records, k)
        split = n_full * k
        if n_full:
            groups = np.sort(sorted_values[:split].reshape(n_full, k), axis=1)
            if not domain.ordinal:
                aggregates = _row_modes(groups)
            elif k % 2:
                aggregates = groups[:, k // 2]
            else:
                aggregates = (groups[:, k // 2 - 1] + groups[:, k // 2]) // 2
            masked[order[:split]] = np.repeat(aggregates, k)
        masked[order[split:]] = _aggregate(sorted_values[split:], domain.ordinal)
        return masked


registry.register(Microaggregation)
