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

Three layers of sharing keep repeated evaluations cheap:

* an :class:`OriginalIndex` holds everything that depends only on the
  original file and the attribute set — the distinct original tuples,
  the per-record inverse, per-tuple record counts, and the rank-position
  tables — computed once per (original, attributes) and reused by every
  candidate of a run (the GA scores thousands against one original);
* the index also keeps one *tuple column* per masked tuple it has seen:
  that tuple's distance, agreement pattern and rank score (per RSRL
  window) against every distinct original tuple, and the pattern counts
  those patterns add up to.  A grid column depends only on the original
  and one masked tuple, and the tuple spaces are small (180 to 4200
  tuples for the paper's four datasets), so a candidate's grids become
  gathers of stored columns.  A column is filled the first time its key
  is seen, by the same per-attribute broadcast run over the missing
  tuples only, so every element equals the full-grid arithmetic bit for
  bit.  Fills run under the index's lock and storage grows in blocks
  that never move, so the index is safe to share between the thread job
  backend's concurrent jobs.  Stored bytes per index are capped by
  :data:`_COLUMN_BYTES`; past the cap, columns are computed the same way
  and not kept;
* a bounded, thread-local memo keyed by the (original, masked,
  attributes) fingerprints lets the three linkage measures of one
  evaluation — and all candidates of one evaluation batch — share their
  :class:`CompressedPair` objects.  Thread-locality makes the memo safe
  under the thread job backend without any locking.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from collections.abc import Callable, Sequence
from functools import partial

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


#: Bound on cached original indexes; distinct originals per process are
#: few (one per dataset under evaluation), so this is a leak guard.
_INDEX_CAPACITY = 8
#: Bound on the tuple-column bytes one index stores.  It covers the
#: paper's largest tuple space (Housing: 4200 tuples against 705
#: original tuples, ~38 MB with three RSRL windows), so the bound only
#: bites on wider attribute sets, whose tuple spaces can reach 2^62.
_COLUMN_BYTES = 64 * 2**20
#: Columns per storage block.  A block is allocated whole and never
#: reallocated, so a gather keeps reading valid memory while another
#: thread fills new columns.
_BLOCK_COLUMNS = 256


class _ColumnTable:
    """One kind of tuple column, stored per masked tuple key.

    ``fill(keys)`` computes the ``(len(keys), width)`` columns of those
    keys.  Readers look keys up in an immutable snapshot ``(sorted keys,
    their slots, blocks)``, which a store replaces whole only after the
    new columns are written, so lookups and gathers take no lock.  Slot
    ``s`` lives in row ``s % _BLOCK_COLUMNS`` of block
    ``s // _BLOCK_COLUMNS``.
    """

    def __init__(
        self, fill: Callable[[np.ndarray], np.ndarray], width: int, dtype, space: int
    ) -> None:
        self.fill = fill
        self.width = width
        self.dtype = np.dtype(dtype)
        self.column_bytes = width * self.dtype.itemsize
        #: Tuples in the key space: no table stores more columns than this.
        self.space = space
        self.stored = 0
        self._last_rows = 0
        self._snapshot: tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]] = (
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), ()
        )

    def slots(self, keys: np.ndarray) -> np.ndarray:
        """Storage slot of each key, -1 where no column is stored."""
        known, slots, _ = self._snapshot
        if known.size == 0:
            return np.full(keys.shape[0], -1, dtype=np.int64)
        position = np.minimum(np.searchsorted(known, keys), known.size - 1)
        return np.where(known[position] == keys, slots[position], -1)

    def read(self, slots: np.ndarray, out: np.ndarray) -> None:
        """Copy the stored columns of ``slots >= 0`` into those rows of ``out``."""
        blocks = self._snapshot[2]
        # Floor division sends slot -1 to block -1, which matches no block.
        block_of, row = np.divmod(slots, _BLOCK_COLUMNS)
        for number, block in enumerate(blocks):
            take = np.flatnonzero(block_of == number)
            if take.size:
                out[take] = block[row[take]]

    def store(self, keys: np.ndarray, columns: np.ndarray, budget: int) -> int:
        """Keep as many of ``columns`` as ``budget`` bytes of new blocks allow.

        Caller holds the index lock.  Returns the bytes allocated.
        """
        known, slots, blocks = self._snapshot
        blocks = list(blocks)
        placed = []
        spent = start = 0
        while start < keys.shape[0]:
            if not blocks or self._last_rows == blocks[-1].shape[0]:
                rows = min(
                    _BLOCK_COLUMNS, self.space - self.stored, (budget - spent) // self.column_bytes
                )
                if rows <= 0:
                    break
                blocks.append(np.empty((rows, self.width), dtype=self.dtype))
                spent += rows * self.column_bytes
                self._last_rows = 0
            block = blocks[-1]
            take = min(keys.shape[0] - start, block.shape[0] - self._last_rows)
            block[self._last_rows:self._last_rows + take] = columns[start:start + take]
            first = (len(blocks) - 1) * _BLOCK_COLUMNS + self._last_rows
            placed.append(np.arange(first, first + take, dtype=np.int64))
            self._last_rows += take
            self.stored += take
            start += take
        if start:
            merged = np.concatenate([known, keys[:start]])
            order = np.argsort(merged, kind="stable")
            self._snapshot = (
                merged[order], np.concatenate([slots, *placed])[order], tuple(blocks)
            )
        return spent


class OriginalIndex:
    """Original-side linkage geometry of one (original, attributes) binding.

    Everything here depends only on the original file: the distinct
    quasi-identifier tuples, each record's tuple index, how many records
    carry each tuple, the rank-position table of every attribute, and
    the tuple columns of every masked tuple seen so far (see the module
    docstring).  The GA evaluates thousands of candidates against one
    original, so computing this once per run instead of once per
    candidate removes a per-evaluation ``np.unique`` over the original,
    one ``rank_positions`` pass per attribute, and the per-attribute
    broadcast of every grid column already seen.
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

        n_original = self.unique_original.shape[0]
        n_attributes = len(self.domains)
        self._space = space = math.prod(self.sizes)
        self._lock = threading.Lock()
        #: Bytes of column storage allocated, at most :data:`_COLUMN_BYTES`.
        self.stored_bytes = 0
        #: Distance column per masked tuple (DBRL).
        self.distances = _ColumnTable(self._distance_columns, n_original, np.float64, space)
        #: Agreement-pattern column per masked tuple (PRL scoring).
        self.patterns = _ColumnTable(
            self._pattern_columns, n_original, np.min_scalar_type(2**n_attributes - 1), space
        )
        #: ``H[key, p] = sum_o c_o [pattern(o, key) = p]`` (PRL's EM input).
        self.pattern_counts = _ColumnTable(
            self._pattern_count_rows, 2**n_attributes, np.float64, space
        )
        self._rank_scores: dict[float, _ColumnTable] = {}

    # -- column kernels: the full-grid broadcasts, over some keys only ----

    def _distance_columns(self, keys: np.ndarray) -> np.ndarray:
        masked = _decode_tuples(keys, self.sizes)
        total = np.zeros((self.unique_original.shape[0], keys.shape[0]))
        for slot, domain in enumerate(self.domains):
            x = self.unique_original[:, slot][:, None]
            y = masked[:, slot][None, :]
            if domain.ordinal and domain.size > 1:
                total += np.abs(x - y) / (domain.size - 1)
            else:
                total += (x != y).astype(np.float64)
        total /= len(self.domains)
        return total.T

    def _pattern_columns(self, keys: np.ndarray) -> np.ndarray:
        masked = _decode_tuples(keys, self.sizes)
        patterns = np.zeros((self.unique_original.shape[0], keys.shape[0]), dtype=np.int64)
        for bit in range(len(self.domains)):
            agree = self.unique_original[:, bit][:, None] == masked[:, bit][None, :]
            patterns |= agree.astype(np.int64) << bit
        return patterns.T

    def _pattern_count_rows(self, keys: np.ndarray) -> np.ndarray:
        # Integer-valued sums below 2^53, so exact in any order.
        n_patterns = 2 ** len(self.domains)
        patterns = self._pattern_columns(keys)
        offsets = patterns + (np.arange(keys.shape[0]) * n_patterns)[:, None]
        weights = np.broadcast_to(self.counts_original, patterns.shape)
        counts = np.bincount(
            offsets.ravel(), weights=weights.ravel(), minlength=keys.shape[0] * n_patterns
        )
        return counts.reshape(keys.shape[0], n_patterns)

    def _rank_score_columns(self, window: float, keys: np.ndarray) -> np.ndarray:
        masked = _decode_tuples(keys, self.sizes)
        scores = np.zeros((self.unique_original.shape[0], keys.shape[0]), dtype=np.int64)
        for slot in range(len(self.domains)):
            positions = self.rank_tables[slot]
            x = positions[self.unique_original[:, slot]][:, None]
            y = positions[masked[:, slot]][None, :]
            scores += (np.abs(x - y) <= window).astype(np.int64)
        return scores.T

    # -- the tables ---------------------------------------------------------

    def rank_scores(self, window: float) -> _ColumnTable:
        """The rank-score table of one RSRL window."""
        window = float(window)
        table = self._rank_scores.get(window)
        if table is None:
            with self._lock:
                table = self._rank_scores.get(window)
                if table is None:
                    table = self._rank_scores[window] = _ColumnTable(
                        partial(self._rank_score_columns, window),
                        self.unique_original.shape[0],
                        np.min_scalar_type(len(self.domains)),
                        self._space,
                    )
        return table

    def gather(self, table: _ColumnTable, keys: np.ndarray) -> np.ndarray:
        """``table``'s columns of the distinct ``keys``, one row per key.

        Keys without a stored column are filled under the lock and kept
        while the index's byte bound allows.
        """
        out = np.empty((keys.shape[0], table.width), dtype=table.dtype)
        slots = table.slots(keys)
        if (slots < 0).any():
            with self._lock:
                # Another thread may have filled some of them meanwhile.
                slots = table.slots(keys)
                missing = np.flatnonzero(slots < 0)
                fresh = table.fill(keys[missing])
                out[missing] = fresh
                self.stored_bytes += table.store(
                    keys[missing], fresh, _COLUMN_BYTES - self.stored_bytes
                )
        table.read(slots, out)
        return out


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
    unique_original:
        ``(u_o, a)`` matrix of the distinct original quasi-identifier tuples.
    keys_masked:
        Sorted encoded keys of the ``u_m`` distinct masked tuples; the
        index's tuple columns are looked up by these.
    inverse_original / inverse_masked:
        Per-record index into the distinct original tuples / masked keys.
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

        self.inverse_original = index.inverse_original
        self.unique_original = index.unique_original

        keys_masked = _encode_tuples(masked.codes[:, list(self.columns)], index.sizes)
        self.keys_masked, self.inverse_masked, counts = np.unique(
            keys_masked, return_inverse=True, return_counts=True
        )
        self.counts_masked = counts.astype(np.float64)

    @property
    def n_records(self) -> int:
        return self.original.n_records

    # -- grids over distinct tuples, as (u_o, u_m) views -------------------

    def distance_grid(self) -> np.ndarray:
        """Mean categorical distance between distinct tuple pairs, (u_o, u_m)."""
        return self.index.gather(self.index.distances, self.keys_masked).T

    def pattern_grid(self) -> np.ndarray:
        """Agreement-pattern index between distinct tuple pairs, (u_o, u_m)."""
        return self.index.gather(self.index.patterns, self.keys_masked).T

    def rank_score_grid(self, window: float) -> np.ndarray:
        """Rank-compatible attribute count between distinct tuple pairs."""
        if not 0 < window <= 1:
            raise LinkageError(f"window must be in (0, 1], got {window}")
        return self.index.gather(self.index.rank_scores(window), self.keys_masked).T

    # -- fractional-credit linkage over a grid ----------------------------

    def fractional_correct(self, grid: np.ndarray, best_is_max: bool) -> float:
        """Expected correct links for a per-tuple score grid.

        Mirrors :func:`repro.linkage.dbrl.fractional_correct_links` on the
        compressed representation: for each original record, the tie set
        size is the number of masked *records* (not tuples) achieving the
        row optimum, and the record scores ``1/ties`` if its own masked
        tuple is in the tie set.
        """
        # One row per masked tuple: the gathered grids' memory order.
        columns = grid.T
        best = columns.max(axis=0) if best_is_max else columns.min(axis=0)
        at_best = columns == best
        tie_counts = self.counts_masked @ at_best
        hits = at_best[self.inverse_masked, self.inverse_original]
        credits = hits / tie_counts[self.inverse_original]
        return float(credits.sum())

    # -- the three attacks -------------------------------------------------

    def distance_linkage(self) -> float:
        """DBRL re-identification percentage (identical to the n^2 path)."""
        correct = self.fractional_correct(self.distance_grid(), best_is_max=False)
        return 100.0 * correct / self.n_records

    def pattern_counts(self) -> np.ndarray:
        """Aggregated agreement-pattern counts over all record pairs.

        Exact: every term is an integer below 2^53.
        """
        return self.counts_masked @ self.index.gather(self.index.pattern_counts, self.keys_masked)

    def probabilistic_linkage(self) -> float:
        """PRL re-identification percentage (identical to the n^2 path)."""
        model = fit_fellegi_sunter(self.pattern_counts(), len(self.domains))
        return self.probabilistic_linkage_from_weights(model.pattern_weights)

    def probabilistic_linkage_from_weights(self, pattern_weights: np.ndarray) -> float:
        """PRL percentage under an already-fitted weight table.

        The batch evaluator fits one EM over the whole candidate batch
        (see :func:`repro.linkage.prl.fit_fellegi_sunter_many`) and then
        scores each pair with its own weight row through here.
        """
        grid = pattern_weights.take(self.pattern_grid().T).T
        correct = self.fractional_correct(grid, best_is_max=True)
        return 100.0 * correct / self.n_records

    def rank_linkage(self, window: float = 0.1) -> float:
        """RSRL re-identification percentage (identical to the n^2 path)."""
        correct = self.fractional_correct(self.rank_score_grid(window), best_is_max=True)
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
