"""Disclosure-risk measures backed by the record-linkage substrate.

Bound-measure adapters over :mod:`repro.linkage`: distance-based record
linkage (DBRL), probabilistic record linkage (PRL) and rank-swapping
record linkage (RSRL).  Each reports the percentage of records an
intruder re-identifies, with fractional credit on linkage ties (see
:func:`repro.linkage.dbrl.fractional_correct_links`).

All three route through the tuple-compressed fast path of
:mod:`repro.linkage.compressed`, which is exactly equivalent to the
reference ``n^2`` implementations (asserted by the test suite) but
several times faster — fitness evaluation is the paper's acknowledged
bottleneck.  Each masked tuple's distance, pattern and rank-score
column is computed once per original and stored on the shared
:class:`~repro.linkage.compressed.OriginalIndex`, so after the first
candidates a measure's cost is gathering its grid and the per-record
tie pass (plus PRL's EM fit), not building the grid.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.exceptions import MetricError
from repro.linkage.compressed import get_compressed_pair
from repro.linkage.prl import fit_fellegi_sunter_many
from repro.metrics.base import DisclosureRiskMeasure


class DistanceLinkageRisk(DisclosureRiskMeasure):
    """Percentage of records re-identified by nearest-record linkage."""

    measure_name = "dbrl"

    def _compute(self, masked: CategoricalDataset) -> float:
        return get_compressed_pair(self.original, masked, self.attributes).distance_linkage()


class ProbabilisticLinkageRisk(DisclosureRiskMeasure):
    """Percentage of records re-identified by Fellegi–Sunter linkage."""

    measure_name = "prl"

    def _compute(self, masked: CategoricalDataset) -> float:
        return get_compressed_pair(self.original, masked, self.attributes).probabilistic_linkage()

    def _compute_many(self, batch: Sequence[CategoricalDataset]) -> np.ndarray:
        """Batched PRL: one EM fit call for the whole candidate batch.

        The EM loop dominates evaluation time (hundreds of iterations
        over ``2^a`` patterns per candidate).  :func:`fit_fellegi_sunter_many`
        fits the GA's small batches candidate by candidate on Python
        floats and large ones on numpy columns, running one update rule
        both ways, so every candidate's weights — and therefore its
        result — are bit for bit those of the scalar fit.
        """
        pairs = [
            get_compressed_pair(self.original, masked, self.attributes)
            for masked in batch
        ]
        counts = np.stack([pair.pattern_counts() for pair in pairs])
        model = fit_fellegi_sunter_many(counts, len(self.attributes))
        return np.array(
            [
                pair.probabilistic_linkage_from_weights(model.pattern_weights[index])
                for index, pair in enumerate(pairs)
            ],
            dtype=np.float64,
        )


class RankSwappingLinkageRisk(DisclosureRiskMeasure):
    """Percentage of records re-identified by rank-window linkage."""

    measure_name = "rsrl"

    def __init__(
        self,
        original: CategoricalDataset,
        attributes: Sequence[str],
        window: float = 0.1,
    ) -> None:
        super().__init__(original, attributes)
        if not 0 < window <= 1:
            raise MetricError(f"rank window must be in (0, 1], got {window}")
        self.window = float(window)

    def _compute(self, masked: CategoricalDataset) -> float:
        pair = get_compressed_pair(self.original, masked, self.attributes)
        return pair.rank_linkage(window=self.window)
