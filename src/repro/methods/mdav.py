"""MDAV microaggregation for categorical records.

:class:`~repro.methods.microaggregation.Microaggregation` partitions by
sorting — fast, but one-dimensional.  MDAV (Maximum Distance to Average
Vector) is the canonical multivariate microaggregation heuristic used by
sdcMicro and the SDC literature: repeatedly find the record farthest
from the current centroid, build a group of its ``k`` nearest
neighbours, do the same around the record farthest from *that* one, and
continue until fewer than ``2k`` records remain.

Adapted to categorical data:

* the record distance is the mean categorical distance over the
  protected attributes (0/1 nominal, normalized code difference
  ordinal — the same metric the linkage substrate uses);
* the "average vector" is the component-wise median/mode record;
* each group publishes its aggregate (median for ordinal, mode for
  nominal attributes), so every published tuple covers at least ``k``
  records across the protected attributes *jointly*.
"""

from __future__ import annotations

from collections.abc import Sequence
from numbers import Integral

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.data.validation import require_attributes
from repro.exceptions import ProtectionError
from repro.methods.base import ProtectionMethod, registry
from repro.methods.microaggregation import _aggregate
from repro.utils.rng import as_generator


def _pairwise_distance_to(
    codes: np.ndarray, target: np.ndarray, sizes: np.ndarray, ordinal: np.ndarray
) -> np.ndarray:
    """Mean categorical distance of every row of ``codes`` to ``target``."""
    diffs = np.abs(codes - target[None, :]).astype(np.float64)
    nominal_distance = (diffs > 0).astype(np.float64)
    spans = np.maximum(sizes - 1, 1).astype(np.float64)
    ordinal_distance = diffs / spans[None, :]
    per_attribute = np.where(ordinal[None, :], ordinal_distance, nominal_distance)
    return per_attribute.mean(axis=1)


def _centroid(codes: np.ndarray, ordinal: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Component-wise aggregate record: median (ordinal) / mode (nominal)."""
    center = np.empty(codes.shape[1], dtype=np.int64)
    for column in range(codes.shape[1]):
        values = codes[:, column]
        if ordinal[column]:
            center[column] = int(np.median(values))
        else:
            center[column] = int(np.argmax(np.bincount(values, minlength=sizes[column])))
    return center


class MdavMicroaggregation(ProtectionMethod):
    """Multivariate MDAV microaggregation over the protected attributes.

    Unlike the base class's column-at-a-time contract, MDAV groups
    *records* using all protected attributes jointly, so
    :meth:`protect` is overridden wholesale; :meth:`protect_column`
    delegates to a single-attribute grouping for interface completeness.
    """

    method_name = "mdav"

    def __init__(self, k: int = 3) -> None:
        if isinstance(k, bool) or not isinstance(k, Integral):
            raise ProtectionError(f"MDAV needs an integer k, got {k!r}")
        if k < 2:
            raise ProtectionError(f"MDAV needs k >= 2, got {k}")
        self.k = int(k)

    def describe(self) -> str:
        return f"mdav(k={self.k})"

    def _partition(
        self, codes: np.ndarray, sizes: np.ndarray, ordinal: np.ndarray
    ) -> list[np.ndarray]:
        """MDAV grouping; returns index arrays, each of size >= k."""
        n = codes.shape[0]
        remaining = np.arange(n)
        groups: list[np.ndarray] = []
        while remaining.size >= 3 * self.k:
            sub = codes[remaining]
            center = _centroid(sub, ordinal, sizes)
            to_center = _pairwise_distance_to(sub, center, sizes, ordinal)
            farthest = int(np.argmax(to_center))
            # Group 1: k nearest to the farthest record r.
            to_r = _pairwise_distance_to(sub, sub[farthest], sizes, ordinal)
            group1_local = np.argsort(to_r, kind="stable")[: self.k]
            # Record s: farthest from r among the rest.
            opposite = int(np.argmax(to_r))
            to_s = _pairwise_distance_to(sub, sub[opposite], sizes, ordinal)
            mask = np.ones(remaining.size, dtype=bool)
            mask[group1_local] = False
            candidates = np.where(mask)[0]
            order = candidates[np.argsort(to_s[candidates], kind="stable")]
            group2_local = order[: self.k]
            groups.append(remaining[group1_local])
            groups.append(remaining[group2_local])
            keep = np.ones(remaining.size, dtype=bool)
            keep[group1_local] = False
            keep[group2_local] = False
            remaining = remaining[keep]
        if remaining.size >= 2 * self.k:
            sub = codes[remaining]
            center = _centroid(sub, ordinal, sizes)
            to_center = _pairwise_distance_to(sub, center, sizes, ordinal)
            farthest = int(np.argmax(to_center))
            to_r = _pairwise_distance_to(sub, sub[farthest], sizes, ordinal)
            group_local = np.argsort(to_r, kind="stable")[: self.k]
            groups.append(remaining[group_local])
            keep = np.ones(remaining.size, dtype=bool)
            keep[group_local] = False
            remaining = remaining[keep]
        if remaining.size:
            groups.append(remaining)
        return groups

    def protect(
        self,
        original: CategoricalDataset,
        attributes: Sequence[str],
        seed: int | np.random.Generator | None = None,
        name: str | None = None,
    ) -> CategoricalDataset:
        if not attributes:
            raise ProtectionError("protect() needs at least one attribute")
        columns = require_attributes(original, attributes)
        as_generator(seed)  # accepted for interface symmetry; MDAV is deterministic
        sizes = np.array([original.schema.domain(c).size for c in columns])
        ordinal = np.array([original.schema.domain(c).ordinal for c in columns])
        sub_codes = original.codes[:, columns]

        masked = original.codes_copy()
        for group in self._partition(sub_codes, sizes, ordinal):
            for slot, column in enumerate(columns):
                masked[group, column] = _aggregate(sub_codes[group, slot], bool(ordinal[slot]))
        label = name if name is not None else f"{original.name}:{self.describe()}"
        return original.with_codes(masked, name=label)

    def protect_column(self, dataset: CategoricalDataset, column: int, rng: np.random.Generator) -> np.ndarray:
        attr = dataset.schema.domain(column).name
        return self.protect(dataset, [attr], seed=rng).column(column).copy()


registry.register(MdavMicroaggregation)
