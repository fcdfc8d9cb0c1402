"""Tuple-compressed record linkage.

All three linkage attacks compare records only through their
quasi-identifier *value tuples*: the distance, agreement pattern and
rank compatibility of a pair ``(i, j)`` depend solely on the category
tuples of original record ``i`` and masked record ``j``.  With three
protected attributes, a 1000-record file typically holds just a few
hundred distinct tuples, so linkage over the ``u_o x u_m`` distinct-tuple
grid plus per-record lookups is several times cheaper than the naive
``n x n`` pair sweep — and produces *identical* results, which the test
suite asserts against the reference implementations in
:mod:`repro.linkage.dbrl` / :mod:`~repro.linkage.prl` /
:mod:`~repro.linkage.rsrl`.

The paper singles out fitness evaluation as the dominant cost of the
whole approach (its §3.2 timing paragraph and §4 "major drawback"), so
this module is the reproduction's main answer to that bottleneck; the
measures in :mod:`repro.metrics.linkage_risk` route through it.

Two layers of sharing keep repeated evaluations cheap:

* an :class:`OriginalIndex` holds everything that depends only on the
  original file and the attribute set — the distinct original tuples,
  the per-record inverse, per-tuple record counts, and the rank-position
  tables — computed once per (original, attributes) and reused by every
  candidate of a run (the GA scores thousands against one original);
* a bounded, thread-local memo keyed by the (original, masked,
  attributes) fingerprints lets the three linkage measures of one
  evaluation — and all candidates of one evaluation batch — share their
  :class:`CompressedPair` objects.  Thread-locality makes the memo safe
  under the service's thread job backend (concurrent jobs in one
  process) without any locking.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.data.validation import require_attributes, require_masked_pair
from repro.exceptions import LinkageError
from repro.linkage.distance import rank_positions
from repro.linkage.prl import fit_fellegi_sunter


def _encode_tuples(codes: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Mixed-radix encoding of each row's category tuple into one int64."""
    n_cells = 1
    for size in sizes:
        n_cells *= int(size)
    if n_cells > 2**62:
        raise LinkageError("attribute domains too large for tuple encoding")
    flat = np.zeros(codes.shape[0], dtype=np.int64)
    for column in range(codes.shape[1]):
        flat = flat * sizes[column] + codes[:, column]
    return flat


def _decode_tuples(keys: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`_encode_tuples`: int64 keys back to code tuples."""
    out = np.empty((keys.shape[0], len(sizes)), dtype=np.int64)
    remaining = keys.copy()
    for column in range(len(sizes) - 1, -1, -1):
        out[:, column] = remaining % sizes[column]
        remaining //= sizes[column]
    return out


class OriginalIndex:
    """Original-side linkage geometry of one (original, attributes) binding.

    Everything here depends only on the original file: the distinct
    quasi-identifier tuples, each record's tuple index, how many records
    carry each tuple, and the rank-position table of every attribute.
    The GA evaluates thousands of candidates against one original, so
    computing this once per run instead of once per candidate removes a
    per-evaluation ``np.unique`` over the original plus one
    ``rank_positions`` pass per attribute per candidate.
    """

    def __init__(self, original: CategoricalDataset, attributes: Sequence[str]) -> None:
        columns = require_attributes(original, attributes)
        if not columns:
            raise LinkageError("linkage needs at least one attribute")
        self.original = original
        self.attributes = tuple(attributes)
        self.columns = tuple(columns)
        self.domains = [original.schema.domain(c) for c in columns]
        self.sizes = [d.size for d in self.domains]
        keys_original = _encode_tuples(original.codes[:, columns], self.sizes)
        unique_keys_o, self.inverse_original = np.unique(keys_original, return_inverse=True)
        self.unique_original = _decode_tuples(unique_keys_o, self.sizes)
        #: Records per distinct original tuple (PRL's pattern weighting).
        self.counts_original = np.bincount(self.inverse_original).astype(np.float64)
        #: Rank-position table per attribute, in ``columns`` order.
        self.rank_tables = [rank_positions(original, d.name) for d in self.domains]


#: Bound on cached original indexes; distinct originals per process are
#: few (one per dataset under evaluation), so this is a leak guard.
_INDEX_CAPACITY = 8
_INDEX_LOCK = threading.Lock()
_INDEX_MEMO: OrderedDict[tuple, OriginalIndex] = OrderedDict()


def get_original_index(
    original: CategoricalDataset, attributes: Sequence[str]
) -> OriginalIndex:
    """The shared, memoized :class:`OriginalIndex` for this binding."""
    key = (original.fingerprint(), tuple(attributes))
    with _INDEX_LOCK:
        index = _INDEX_MEMO.get(key)
        if index is not None:
            _INDEX_MEMO.move_to_end(key)
            return index
    index = OriginalIndex(original, attributes)
    with _INDEX_LOCK:
        _INDEX_MEMO[key] = index
        while len(_INDEX_MEMO) > _INDEX_CAPACITY:
            _INDEX_MEMO.popitem(last=False)
    return index


class CompressedPair:
    """Distinct-tuple view of an (original, masked) file pair.

    Attributes
    ----------
    unique_original / unique_masked:
        ``(u, a)`` matrices of the distinct quasi-identifier tuples.
    inverse_original / inverse_masked:
        Per-record index into the distinct-tuple matrices.
    counts_masked:
        Number of masked records carrying each distinct masked tuple.
    """

    def __init__(
        self,
        original: CategoricalDataset,
        masked: CategoricalDataset,
        attributes: Sequence[str],
        index: OriginalIndex | None = None,
    ) -> None:
        require_masked_pair(original, masked)
        if index is None:
            index = OriginalIndex(original, attributes)
        self.index = index
        self.original = original
        self.masked = masked
        self.attributes = tuple(attributes)
        self.columns = index.columns
        self.domains = index.domains
        sizes = index.sizes

        self.inverse_original = index.inverse_original
        self.unique_original = index.unique_original

        keys_masked = _encode_tuples(masked.codes[:, list(self.columns)], sizes)
        unique_keys_m, self.inverse_masked, counts = np.unique(
            keys_masked, return_inverse=True, return_counts=True
        )
        self.counts_masked = counts.astype(np.float64)
        self.unique_masked = _decode_tuples(unique_keys_m, sizes)

    @property
    def n_records(self) -> int:
        return self.original.n_records

    # -- grids over distinct tuples --------------------------------------

    def distance_grid(self) -> np.ndarray:
        """Mean categorical distance between distinct tuple pairs, (u_o, u_m)."""
        total = np.zeros((self.unique_original.shape[0], self.unique_masked.shape[0]))
        for slot, domain in enumerate(self.domains):
            x = self.unique_original[:, slot][:, None]
            y = self.unique_masked[:, slot][None, :]
            if domain.ordinal and domain.size > 1:
                total += np.abs(x - y) / (domain.size - 1)
            else:
                total += (x != y).astype(np.float64)
        total /= len(self.domains)
        return total

    def pattern_grid(self) -> np.ndarray:
        """Agreement-pattern index between distinct tuple pairs, (u_o, u_m).

        Cached on the pair because the PRL path needs it twice
        (aggregating the pattern counts, then scoring under the fitted
        weights); the second consumer releases it — see
        :meth:`probabilistic_linkage_from_weights` — so pairs parked in
        the memo don't pin an O(u_o * u_m) grid each.
        """
        cached = getattr(self, "_pattern_grid", None)
        if cached is not None:
            return cached
        patterns = np.zeros(
            (self.unique_original.shape[0], self.unique_masked.shape[0]), dtype=np.int64
        )
        for bit in range(len(self.domains)):
            agree = self.unique_original[:, bit][:, None] == self.unique_masked[:, bit][None, :]
            patterns |= agree.astype(np.int64) << bit
        self._pattern_grid = patterns
        return patterns

    def rank_score_grid(self, window: float) -> np.ndarray:
        """Rank-compatible attribute count between distinct tuple pairs."""
        if not 0 < window <= 1:
            raise LinkageError(f"window must be in (0, 1], got {window}")
        scores = np.zeros(
            (self.unique_original.shape[0], self.unique_masked.shape[0]), dtype=np.int64
        )
        for slot in range(len(self.domains)):
            positions = self.index.rank_tables[slot]
            x = positions[self.unique_original[:, slot]][:, None]
            y = positions[self.unique_masked[:, slot]][None, :]
            scores += (np.abs(x - y) <= window).astype(np.int64)
        return scores

    # -- fractional-credit linkage over a grid ----------------------------

    def fractional_correct(self, grid: np.ndarray, best_is_max: bool) -> float:
        """Expected correct links for a per-tuple score grid.

        Mirrors :func:`repro.linkage.dbrl.fractional_correct_links` on the
        compressed representation: for each original record, the tie set
        size is the number of masked *records* (not tuples) achieving the
        row optimum, and the record scores ``1/ties`` if its own masked
        tuple is in the tie set.
        """
        best = grid.max(axis=1) if best_is_max else grid.min(axis=1)
        at_best = grid == best[:, None]
        tie_counts = at_best @ self.counts_masked
        hits = at_best[self.inverse_original, self.inverse_masked]
        credits = hits / tie_counts[self.inverse_original]
        return float(credits.sum())

    # -- the three attacks -------------------------------------------------

    def distance_linkage(self) -> float:
        """DBRL re-identification percentage (identical to the n^2 path)."""
        correct = self.fractional_correct(self.distance_grid(), best_is_max=False)
        return 100.0 * correct / self.n_records

    def pattern_counts(self) -> np.ndarray:
        """Aggregated agreement-pattern counts over all record pairs."""
        patterns = self.pattern_grid()
        weights = np.outer(self.index.counts_original, self.counts_masked)
        return np.bincount(
            patterns.ravel(), weights=weights.ravel(), minlength=2 ** len(self.domains)
        )

    def probabilistic_linkage(self) -> float:
        """PRL re-identification percentage (identical to the n^2 path)."""
        model = fit_fellegi_sunter(self.pattern_counts(), len(self.domains))
        return self.probabilistic_linkage_from_weights(model.pattern_weights)

    def probabilistic_linkage_from_weights(self, pattern_weights: np.ndarray) -> float:
        """PRL percentage under an already-fitted weight table.

        The batch evaluator fits one EM over the whole candidate batch
        (see :func:`repro.linkage.prl.fit_fellegi_sunter_many`) and then
        scores each pair with its own weight row through here.  This is
        the pattern grid's last consumer in an evaluation, so the cached
        grid is released — a pair living on in the memo keeps only its
        small distinct-tuple matrices.
        """
        grid = pattern_weights[self.pattern_grid()]
        self._pattern_grid = None
        correct = self.fractional_correct(grid, best_is_max=True)
        return 100.0 * correct / self.n_records

    def rank_linkage(self, window: float = 0.1) -> float:
        """RSRL re-identification percentage (identical to the n^2 path)."""
        grid = self.rank_score_grid(window).astype(np.float64)
        correct = self.fractional_correct(grid, best_is_max=True)
        return 100.0 * correct / self.n_records


#: Per-thread pair memo bound — large enough that one evaluation batch's
#: candidates survive all three linkage measures' passes over the batch.
_PAIR_CAPACITY = 256
_PAIR_MEMO = threading.local()


def clear_pair_memo() -> None:
    """Drop this thread's pair memo (benchmark/test hook for cold timings)."""
    if getattr(_PAIR_MEMO, "pairs", None) is not None:
        _PAIR_MEMO.pairs = OrderedDict()


def get_compressed_pair(
    original: CategoricalDataset,
    masked: CategoricalDataset,
    attributes: Sequence[str],
) -> CompressedPair:
    """Bounded thread-local memo so measures share :class:`CompressedPair` objects.

    Within one candidate evaluation the three linkage measures hit the
    same pair; within one evaluation batch each measure's pass over the
    candidates re-hits the pairs the first measure built.  Thread-local
    storage keeps the memo coherent under the service's thread job
    backend without locking (each worker thread runs its own job, so
    sharing across threads would buy nothing).
    """
    memo: OrderedDict[tuple, CompressedPair] | None
    memo = getattr(_PAIR_MEMO, "pairs", None)
    if memo is None:
        memo = _PAIR_MEMO.pairs = OrderedDict()
    key = (original.fingerprint(), masked.fingerprint(), tuple(attributes))
    pair = memo.get(key)
    if pair is not None:
        memo.move_to_end(key)
        return pair
    pair = CompressedPair(
        original, masked, attributes, index=get_original_index(original, attributes)
    )
    memo[key] = pair
    while len(memo) > _PAIR_CAPACITY:
        memo.popitem(last=False)
    return pair
