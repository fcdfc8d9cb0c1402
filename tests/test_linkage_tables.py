"""Tuple-column linkage tables, bit for bit against the full-grid kernels.

:class:`~repro.linkage.compressed.OriginalIndex` stores one distance,
agreement-pattern and rank-score column, and one pattern-count row, per
masked tuple key, and a :class:`~repro.linkage.compressed.CompressedPair`
gathers its grids from them.  The reference kernels below are the
per-pair broadcasts the tables replaced: every gathered grid must equal
them exactly, whether its columns were filled by this gather, stored by
an earlier one, built on a private index, or computed past the byte
bound and not kept.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.linkage.compressed as compressed
from repro.data import CategoricalDataset, CategoricalDomain, DatasetSchema
from repro.datasets import load_dataset, protected_attributes
from repro.experiments.population_builder import build_initial_population
from repro.linkage.compressed import CompressedPair, OriginalIndex
from repro.linkage.distance import rank_positions

DATASETS = ("german", "flare", "adult", "housing")
POPULATION_SEEDS = (7, 11)
WINDOWS = (0.05, 0.1, 1.0)


class ReferenceGrids:
    """The per-pair ``(u_o, u_m)`` broadcasts the column tables replaced."""

    def __init__(self, original, masked, attributes) -> None:
        columns = [original.schema.index_of(a) for a in attributes]
        domains = [original.schema.domain(c) for c in columns]
        # Lexicographic tuple order is the mixed-radix key order.
        unique_original, counts_original = np.unique(
            original.codes[:, columns], axis=0, return_counts=True
        )
        unique_masked, counts_masked = np.unique(
            masked.codes[:, columns], axis=0, return_counts=True
        )
        shape = (unique_original.shape[0], unique_masked.shape[0])

        total = np.zeros(shape)
        for slot, domain in enumerate(domains):
            x = unique_original[:, slot][:, None]
            y = unique_masked[:, slot][None, :]
            if domain.ordinal and domain.size > 1:
                total += np.abs(x - y) / (domain.size - 1)
            else:
                total += (x != y).astype(np.float64)
        total /= len(domains)
        self.distance = total

        patterns = np.zeros(shape, dtype=np.int64)
        for bit in range(len(domains)):
            agree = unique_original[:, bit][:, None] == unique_masked[:, bit][None, :]
            patterns |= agree.astype(np.int64) << bit
        self.pattern = patterns

        self.rank_score = {}
        tables = [rank_positions(original, domain.name) for domain in domains]
        for window in WINDOWS:
            scores = np.zeros(shape, dtype=np.int64)
            for slot, positions in enumerate(tables):
                x = positions[unique_original[:, slot]][:, None]
                y = positions[unique_masked[:, slot]][None, :]
                scores += (np.abs(x - y) <= window).astype(np.int64)
            self.rank_score[window] = scores

        weights = np.outer(counts_original.astype(np.float64), counts_masked)
        self.pattern_counts = np.bincount(
            patterns.ravel(), weights=weights.ravel(), minlength=2 ** len(domains)
        )


def assert_grids_equal(pair: CompressedPair, reference: ReferenceGrids, label) -> None:
    assert np.array_equal(pair.distance_grid(), reference.distance), label
    assert np.array_equal(pair.pattern_grid(), reference.pattern), label
    for window in WINDOWS:
        assert np.array_equal(pair.rank_score_grid(window), reference.rank_score[window]), (
            label, window)
    counts = pair.pattern_counts()
    assert counts.dtype == np.float64
    assert np.array_equal(counts, reference.pattern_counts), label


def populations(name):
    original = load_dataset(name)
    for seed in POPULATION_SEEDS:
        for masked in build_initial_population(original, dataset_name=name, seed=seed):
            yield f"{name} seed {seed} {masked.name}", masked


@pytest.mark.parametrize("name", DATASETS)
def test_gathered_grids_match_reference(name, monkeypatch):
    original = load_dataset(name)
    attributes = protected_attributes(name)
    shared = OriginalIndex(original, attributes)
    for label, masked in populations(name):
        reference = ReferenceGrids(original, masked, attributes)
        # First sight on the shared index fills the new keys and gathers
        # the rest; the second pass is all gathers.
        for _ in ("cold", "warm"):
            pair = CompressedPair(original, masked, attributes, index=shared)
            assert_grids_equal(pair, reference, label)
        # A pair on its own index, past the bound: nothing is kept and
        # every column is computed.
        with monkeypatch.context() as patch:
            patch.setattr(compressed, "_COLUMN_BYTES", 0)
            pair = CompressedPair(original, masked, attributes)
            assert_grids_equal(pair, reference, label)
            assert pair.index.stored_bytes == 0
    assert 0 < shared.stored_bytes <= compressed._COLUMN_BYTES


def test_bound_reached_part_way_mixes_kept_and_computed_columns(monkeypatch):
    bound = 48 * 1024
    monkeypatch.setattr(compressed, "_COLUMN_BYTES", bound)
    original = load_dataset("flare")
    attributes = protected_attributes("flare")
    index = OriginalIndex(original, attributes)
    for label, masked in populations("flare"):
        pair = CompressedPair(original, masked, attributes, index=index)
        assert_grids_equal(pair, ReferenceGrids(original, masked, attributes), label)
    assert 0 < index.stored_bytes <= bound
    assert 0 < index.distances.stored < index.distances.space


def _wide_dataset(n_records: int, sizes, seed: int) -> CategoricalDataset:
    rng = np.random.default_rng(seed)
    schema = DatasetSchema([
        CategoricalDomain(f"A{i}", [f"c{j}" for j in range(size)], ordinal=i % 2 == 0)
        for i, size in enumerate(sizes)
    ])
    codes = np.column_stack([rng.integers(0, size, n_records) for size in sizes])
    return CategoricalDataset(codes, schema)


def test_storage_grows_with_columns_not_tuple_space():
    # A 2.5e9-tuple space: storage is sized by the keys seen, in blocks.
    original = _wide_dataset(60, (50_000, 50_000), seed=1)
    masked = original.with_codes(_wide_dataset(60, (50_000, 50_000), seed=2).codes)
    attributes = ["A0", "A1"]
    index = OriginalIndex(original, attributes)
    pair = CompressedPair(original, masked, attributes, index=index)
    assert_grids_equal(pair, ReferenceGrids(original, masked, attributes), "wide")
    u_o = index.unique_original.shape[0]
    per_key = u_o * 8 + u_o * 1 + 4 * 8 + len(WINDOWS) * u_o * 1
    assert index.stored_bytes <= compressed._BLOCK_COLUMNS * per_key


def test_reader_during_a_fill_never_sees_unwritten_columns():
    """A gather racing a fill of the same keys waits for the columns."""
    original = load_dataset("flare")
    attributes = protected_attributes("flare")
    masked = build_initial_population(original, dataset_name="flare", seed=7)[0]
    index = OriginalIndex(original, attributes)
    keys = CompressedPair(original, masked, attributes, index=index).keys_masked
    table = index.distances
    fill = table.fill
    seen = {}

    def reader() -> None:
        seen["columns"] = index.gather(table, keys)

    def paused_fill(missing):
        # The reader starts while this fill holds the lock and has not
        # written anything yet; give it time to read what it can.
        seen["thread"] = threading.Thread(target=reader)
        seen["thread"].start()
        seen["thread"].join(timeout=0.2)
        return fill(missing)

    table.fill = paused_fill
    try:
        written = index.gather(table, keys)
    finally:
        table.fill = fill
    seen["thread"].join(timeout=10)
    assert not seen["thread"].is_alive()
    expected = ReferenceGrids(original, masked, attributes).distance
    assert np.array_equal(written.T, expected)
    assert np.array_equal(seen["columns"].T, expected)


def _scores(original, attributes, population, index):
    out = []
    for masked in population:
        pair = CompressedPair(original, masked, attributes, index=index)
        counts = pair.pattern_counts()
        # Any weight table exercises the pattern gather; the EM adds nothing.
        weights = np.log1p(counts)
        out.append((
            pair.distance_linkage(),
            counts.tobytes(),
            pair.probabilistic_linkage_from_weights(weights),
            pair.rank_linkage(0.1),
        ))
    return out


def test_threads_sharing_one_cold_index_match_serial():
    original = load_dataset("flare")
    attributes = protected_attributes("flare")
    batches = [
        build_initial_population(original, dataset_name="flare", seed=seed)
        for seed in (7, 11, 13, 17)
    ]
    serial = [
        _scores(original, attributes, batch, OriginalIndex(original, attributes))
        for batch in batches
    ]
    shared = OriginalIndex(original, attributes)
    results: dict[int, list] = {}
    errors: list[BaseException] = []

    def work(slot: int) -> None:
        try:
            results[slot] = _scores(original, attributes, batches[slot], shared)
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(slot,)) for slot in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for slot in range(4):
        assert results[slot] == serial[slot], f"population {slot}"
