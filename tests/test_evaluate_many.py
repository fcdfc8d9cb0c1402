"""Batch-first evaluation: ``evaluate_many`` ≡ mapped ``evaluate``, exactly.

The batch protocol's contract is bit-identity: for every measure and
every score function, scoring a batch must return exactly what scoring
each candidate alone returns — same floats, same components — whatever
the batch composition, chunking, or cache state.  These tests
pin that contract for every IL/DR measure, the full evaluator, the
batched Fellegi–Sunter EM, and the bulk cache surface.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.data import CategoricalDataset
from repro.exceptions import LinkageError
from repro.linkage.prl import (
    _ROW_PATH_MAX_BATCH,
    EM_ITERATION_BUCKETS,
    fit_fellegi_sunter,
    fit_fellegi_sunter_many,
)
from repro.metrics.evaluation import (
    ProtectionEvaluator,
    default_dr_measures,
    default_il_measures,
)
from repro.metrics.score import score_function_by_name
from repro.service.cache import EvaluationCache

ATTRS = ["EDUCATION", "MARITAL-STATUS", "OCCUPATION"]


def random_maskings(original: CategoricalDataset, count: int, seed: int = 0,
                    flip_fraction: float = 0.2) -> list[CategoricalDataset]:
    """Valid random maskings: flip a fraction of protected cells."""
    rng = np.random.default_rng(seed)
    columns = [original.schema.index_of(a) for a in ATTRS]
    out = []
    for index in range(count):
        codes = original.codes_copy()
        for col in columns:
            size = original.schema.domain(col).size
            mask = rng.random(original.n_records) < flip_fraction
            codes[mask, col] = rng.integers(0, size, size=int(mask.sum()))
        out.append(original.with_codes(codes, name=f"mask-{index}"))
    return out


@pytest.fixture(scope="module")
def batch_data(request):
    adult = request.getfixturevalue("small_adult")
    return adult, random_maskings(adult, 12, seed=3)


ALL_MEASURES = ["ctbil", "dbil", "ebil", "interval_disclosure", "dbrl", "prl", "rsrl"]


def measures_by_name(original):
    stack = default_il_measures(original, ATTRS) + default_dr_measures(original, ATTRS)
    return {m.measure_name: m for m in stack}


class TestMeasureBatchEquivalence:
    @pytest.mark.parametrize("name", ALL_MEASURES)
    def test_batch_equals_mapped_scalar(self, batch_data, name):
        original, maskings = batch_data
        measure = measures_by_name(original)[name]
        scalar = np.array([measure.compute(m) for m in maskings])
        batch = measure.compute_many(maskings)
        assert batch.dtype == np.float64
        assert np.array_equal(scalar, batch), f"{name}: batch diverged from scalar"

    @pytest.mark.parametrize("name", ALL_MEASURES)
    def test_chunk_boundaries_do_not_matter(self, batch_data, name):
        original, maskings = batch_data
        measure = measures_by_name(original)[name]
        full = measure.compute_many(maskings)
        split = np.concatenate(
            [measure.compute_many(maskings[:5]), measure.compute_many(maskings[5:])]
        )
        assert np.array_equal(full, split), f"{name}: chunk-dependent results"

    @pytest.mark.parametrize("name", ALL_MEASURES)
    def test_empty_and_singleton(self, batch_data, name):
        original, maskings = batch_data
        measure = measures_by_name(original)[name]
        assert measure.compute_many([]).shape == (0,)
        single = measure.compute_many([maskings[0]])
        assert single.shape == (1,)
        assert single[0] == measure.compute(maskings[0])

    def test_identity_masking_extremes(self, batch_data):
        """The identity batch hits the documented endpoints, batched too."""
        original, __ = batch_data
        stack = measures_by_name(original)
        identity = [original.with_codes(original.codes_copy(), name="same")]
        assert stack["dbil"].compute_many(identity)[0] == 0.0
        assert stack["ctbil"].compute_many(identity)[0] == 0.0
        assert stack["interval_disclosure"].compute_many(identity)[0] == 100.0


EPS = 1e-9


def reference_em(counts, n_attributes, max_iterations=200, tolerance=1e-8):
    """The pre-v3 EM kernel (``exp(sum(log))`` likelihoods), one row at a time.

    A test-only copy kept to bound how far the product-form kernel may
    drift from it: ``(m, u, match_proportion, pattern_weights, iterations)``.
    """
    bits = ((np.arange(2**n_attributes)[:, None] >> np.arange(n_attributes)) & 1).astype(float)
    m = np.full(n_attributes, 0.9)
    u = np.full(n_attributes, 0.1)
    match_proportion = 0.01
    total = counts.sum()
    previous = -np.inf
    iterations = 0
    for _ in range(max_iterations):
        lm = np.exp(bits @ np.log(m + EPS) + (1 - bits) @ np.log(1 - m + EPS))
        lu = np.exp(bits @ np.log(u + EPS) + (1 - bits) @ np.log(1 - u + EPS))
        match = match_proportion * lm
        density = match + (1 - match_proportion) * lu + EPS
        weighted = counts * match / density
        weight_total = weighted.sum()
        rest_total = total - weight_total
        if weight_total <= EPS or rest_total <= EPS:
            break
        m = np.clip(weighted @ bits / weight_total, EPS, 1 - EPS)
        u = np.clip((counts - weighted) @ bits / rest_total, EPS, 1 - EPS)
        match_proportion = float(np.clip(weight_total / total, EPS, 1 - EPS))
        iterations += 1
        loglik = counts @ np.log(density)
        if abs(loglik - previous) < tolerance * (1 + abs(previous)):
            break
        previous = loglik
    weights = bits @ (np.log(m + EPS) - np.log(u + EPS)) + (1 - bits) @ (
        np.log(1 - m + EPS) - np.log(1 - u + EPS)
    )
    return m, u, match_proportion, weights, iterations


def linkage_counts(rng, batch, n_attributes):
    """Pattern counts shaped like a linkage attack's: n matches among n^2 pairs.

    Each row draws its own file size and agreement rates, so rows
    converge after different numbers of iterations (or hit the cap).
    """
    patterns = np.arange(2**n_attributes)
    bits = (patterns[:, None] >> np.arange(n_attributes)) & 1
    rows = []
    for _ in range(batch):
        n = int(rng.integers(50, 1500))
        m_true = rng.uniform(0.55, 0.99, n_attributes)
        u_true = rng.uniform(0.02, 0.5, n_attributes)
        p_match = np.prod(np.where(bits, m_true, 1 - m_true), axis=1)
        p_non = np.prod(np.where(bits, u_true, 1 - u_true), axis=1)
        rows.append(rng.multinomial(n, p_match) + rng.multinomial(n * (n - 1), p_non))
    return np.array(rows, dtype=np.float64)


def assert_rows_identical(batch, row, single):
    assert np.array_equal(single.m, batch.m[row])
    assert np.array_equal(single.u, batch.u[row])
    assert single.match_proportion == batch.match_proportion[row]
    assert np.array_equal(single.pattern_weights, batch.pattern_weights[row])
    assert single.iterations == batch.iterations[row]
    assert single.converged == batch.converged[row]


#: Batch sizes on both sides of the row/column switch.
SWITCH_SIZES = [1, _ROW_PATH_MAX_BATCH, _ROW_PATH_MAX_BATCH + 1, 16, 104]


class TestBatchEM:
    def test_batched_fit_is_row_independent(self):
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 5000, size=(16, 8)).astype(np.float64)
        counts[:, 0] += 1  # never all-zero rows
        batch = fit_fellegi_sunter_many(counts, 3)
        for row in range(counts.shape[0]):
            assert_rows_identical(batch, row, fit_fellegi_sunter(counts[row], 3))

    @pytest.mark.parametrize("n_attributes", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("size", SWITCH_SIZES)
    def test_identity_across_the_path_switch(self, size, n_attributes):
        counts = linkage_counts(np.random.default_rng(size * 10 + n_attributes), size,
                                n_attributes)
        batch = fit_fellegi_sunter_many(counts, n_attributes)
        assert len(batch) == size
        for row in range(size):
            assert_rows_identical(batch, row, fit_fellegi_sunter(counts[row], n_attributes))

    @pytest.mark.parametrize("size", SWITCH_SIZES)
    def test_rows_stop_independently_with_custom_limits(self, size):
        """Different stopping iterations, a degenerate row, non-default limits."""
        counts = linkage_counts(np.random.default_rng(size), size, 3)
        counts[size // 2] = 1e-10  # total below EPS: degenerate before any update
        limits = {"max_iterations": 40, "tolerance": 1e-6}
        batch = fit_fellegi_sunter_many(counts, 3, **limits)
        for row in range(size):
            assert_rows_identical(batch, row, fit_fellegi_sunter(counts[row], 3, **limits))
        assert batch.iterations[size // 2] == 0 and not batch.converged[size // 2]
        assert (batch.iterations <= 40).all()
        assert (batch.iterations[~batch.converged] != 40).sum() == 1  # only the degenerate row
        if size >= 16:
            assert len(set(batch.iterations.tolist())) > 2
            assert batch.converged.any() and not batch.converged.all()

    @pytest.mark.parametrize("n_attributes", [1, 2, 3, 4, 5])
    def test_agrees_with_the_log_exp_kernel(self, n_attributes):
        counts = linkage_counts(np.random.default_rng(n_attributes), 24, n_attributes)
        batch = fit_fellegi_sunter_many(counts, n_attributes)
        for row in range(len(counts)):
            m, u, match_proportion, weights, iterations = reference_em(
                counts[row], n_attributes)
            assert batch.iterations[row] == iterations
            assert np.abs(batch.m[row] - m).max() <= 1e-12
            assert np.abs(batch.u[row] - u).max() <= 1e-12
            assert abs(batch.match_proportion[row] - match_proportion) <= 1e-12
            assert np.abs(batch.pattern_weights[row] - weights).max() <= 1e-12

    def test_np_log_is_position_independent(self):
        """The kernel's premise: ``np.log`` gives a value the same bits in any slot."""
        values = np.random.default_rng(5).uniform(1e-9, 1e7, 4099)
        whole = np.log(values)
        assert np.array_equal(np.log(values.tolist()), whole)
        for start, stop in [(0, 1), (3, 4), (1, 9), (7, 30), (4090, 4099)]:
            assert np.array_equal(np.log(values[start:stop]), whole[start:stop])
        assert np.array_equal(np.log(values[::7]), whole[::7])
        assert all(np.log(x) == y for x, y in zip(values[:64].tolist(), whole[:64]))

    def test_shape_validation(self):
        with pytest.raises(LinkageError):
            fit_fellegi_sunter_many(np.ones((2, 7)), 3)
        with pytest.raises(LinkageError):
            fit_fellegi_sunter_many(np.zeros((2, 8)), 3)
        with pytest.raises(LinkageError):
            fit_fellegi_sunter_many(np.ones((2, 1)), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("size", [1, _ROW_PATH_MAX_BATCH + 1])
    def test_non_finite_or_negative_counts_rejected(self, bad, size):
        counts = np.full((size, 8), 100.0)
        counts[size - 1, 3] = bad
        with pytest.raises(LinkageError, match="finite and non-negative"):
            fit_fellegi_sunter_many(counts, 3)
        with pytest.raises(LinkageError, match="finite and non-negative"):
            fit_fellegi_sunter(counts[size - 1], 3)

    def test_telemetry_counts_iterations_and_nonconvergence(self):
        counts = linkage_counts(np.random.default_rng(7), 12, 3)
        registry = obs.enable()
        registry.reset()
        try:
            batch = fit_fellegi_sunter_many(counts, 3, max_iterations=30)
            snapshot = registry.snapshot()
        finally:
            obs.disable()
            registry.reset()
        histogram = next(h for h in snapshot["histograms"]
                         if h["name"] == "repro_em_iterations")
        assert histogram["bounds"] == list(map(float, EM_ITERATION_BUCKETS))
        assert histogram["count"] == 12
        assert histogram["sum"] == batch.iterations.sum()
        counter = next(c for c in snapshot["counters"]
                       if c["name"] == "repro_em_nonconverged_total")
        assert counter["value"] == (~batch.converged).sum() > 0


class TestEvaluatorBatch:
    @pytest.mark.parametrize("score", ["mean", "max", "weighted", "power_mean"])
    def test_evaluate_many_equals_mapped_evaluate(self, batch_data, score):
        original, maskings = batch_data
        reference = ProtectionEvaluator(
            original, ATTRS, score_function=score_function_by_name(score)
        )
        batched = ProtectionEvaluator(
            original, ATTRS, score_function=score_function_by_name(score)
        )
        scalar_scores = [reference.evaluate(m) for m in maskings]
        batch_scores = batched.evaluate_many(maskings)
        assert batch_scores == scalar_scores  # frozen dataclass equality: exact

    def test_empty_batch(self, batch_data):
        original, __ = batch_data
        assert ProtectionEvaluator(original, ATTRS).evaluate_many([]) == []

    def test_all_duplicates_scored_once(self, batch_data):
        original, maskings = batch_data
        evaluator = ProtectionEvaluator(original, ATTRS)
        same = [maskings[0]] * 5
        scores = evaluator.evaluate_many(same)
        assert len(scores) == 5
        assert all(s == scores[0] for s in scores)
        assert evaluator.evaluations == 1
        assert evaluator.batch_dedup == 4
        # A distinct-content copy dedupes too (fingerprint, not identity).
        copy = original.with_codes(maskings[0].codes_copy(), name="copy")
        evaluator.evaluate_many([maskings[0], copy])
        assert evaluator.evaluations == 1  # memo hit, no fresh work
        assert evaluator.stats()["batch_dedup"] == 5

    def test_counters_match_scalar_semantics(self, batch_data):
        original, maskings = batch_data
        evaluator = ProtectionEvaluator(original, ATTRS)
        evaluator.evaluate_many(maskings[:4])
        stats = evaluator.stats()
        assert {k: stats[k] for k in
                ("evaluations", "memo_hits", "persistent_hits", "batch_dedup")} == {
            "evaluations": 4, "memo_hits": 0, "persistent_hits": 0, "batch_dedup": 0,
        }
        assert stats["batches"] == 1
        assert stats["max_batch_size"] == 4
        assert stats["fresh_seconds"] > 0
        evaluator.evaluate_many(maskings[:4])  # all memo hits now
        assert evaluator.stats()["memo_hits"] == 4
        assert evaluator.stats()["evaluations"] == 4
        # The scalar path feeds the same counters.
        evaluator.evaluate(maskings[0])
        assert evaluator.stats()["memo_hits"] == 5

    def test_cache_disabled_still_dedupes(self, batch_data):
        original, maskings = batch_data
        evaluator = ProtectionEvaluator(original, ATTRS, cache_size=0)
        scores = evaluator.evaluate_many([maskings[0], maskings[0], maskings[1]])
        assert evaluator.evaluations == 2
        assert evaluator.batch_dedup == 1
        assert scores[0] == scores[1]

    def test_mixed_memo_persistent_fresh(self, batch_data, tmp_path):
        """One batch resolving through all three layers stays exact."""
        original, maskings = batch_data
        cache = EvaluationCache(tmp_path / "evals.sqlite")
        warm = ProtectionEvaluator(original, ATTRS, persistent_cache=cache)
        warm.evaluate_many(maskings[:3])  # persist 3

        evaluator = ProtectionEvaluator(original, ATTRS, persistent_cache=cache)
        evaluator.evaluate_many(maskings[1:2])  # memo-load one of them
        scores = evaluator.evaluate_many(maskings[:6])
        assert evaluator.stats()["memo_hits"] == 1
        assert evaluator.stats()["persistent_hits"] == 2 + 1  # 2 here, 1 earlier
        reference = ProtectionEvaluator(original, ATTRS)
        assert scores == [reference.evaluate(m) for m in maskings[:6]]
        cache.close()

    def test_plain_scorecache_without_bulk_surface(self, batch_data):
        """A get/put-only ScoreCache still works through the fallback."""
        original, maskings = batch_data

        class DictCache:
            def __init__(self):
                self.data = {}
                self.gets = 0

            def get(self, key):
                self.gets += 1
                return self.data.get(key)

            def put(self, key, score):
                self.data[key] = score

        store = DictCache()
        evaluator = ProtectionEvaluator(original, ATTRS, persistent_cache=store)
        evaluator.evaluate_many(maskings[:3])
        assert len(store.data) == 3
        fresh = ProtectionEvaluator(original, ATTRS, persistent_cache=store)
        fresh.evaluate_many(maskings[:3])
        assert fresh.persistent_hits == 3
        assert fresh.evaluations == 0


class TestCacheBulkSurface:
    def test_get_many_put_many_roundtrip(self, batch_data, tmp_path):
        original, maskings = batch_data
        evaluator = ProtectionEvaluator(original, ATTRS)
        scores = evaluator.evaluate_many(maskings[:4])
        keys = [evaluator.cache_key(m) for m in maskings[:4]]
        cache = EvaluationCache(tmp_path / "bulk.sqlite")
        cache.put_many(list(zip(keys, scores)))
        assert cache.writes == 4
        assert len(cache) == 4
        found = cache.get_many(keys + ["missing-key"])
        assert set(found) == set(keys)
        assert [found[k] for k in keys] == scores
        assert cache.hits == 4 and cache.misses == 1
        # Singleton surface agrees with the bulk one.
        assert cache.get(keys[0]) == scores[0]
        cache.close()

    def test_put_many_counts_overwrites_once(self, batch_data, tmp_path):
        original, maskings = batch_data
        evaluator = ProtectionEvaluator(original, ATTRS)
        scores = evaluator.evaluate_many(maskings[:3])
        keys = [evaluator.cache_key(m) for m in maskings[:3]]
        cache = EvaluationCache(tmp_path / "bulk.sqlite")
        cache.put_many(list(zip(keys, scores)))
        cache.put_many(list(zip(keys, scores)))  # overwrite, not growth
        assert len(cache) == 3
        cache.close()

    def test_put_many_respects_lru_bound(self, batch_data, tmp_path):
        original, maskings = batch_data
        evaluator = ProtectionEvaluator(original, ATTRS)
        scores = evaluator.evaluate_many(maskings[:6])
        keys = [evaluator.cache_key(m) for m in maskings[:6]]
        cache = EvaluationCache(tmp_path / "bounded.sqlite", max_entries=4)
        cache.put_many(list(zip(keys, scores)))
        assert len(cache) == 4
        assert cache.evictions == 2
        cache.close()

    def test_readonly_put_many_noop(self, batch_data, tmp_path):
        original, maskings = batch_data
        evaluator = ProtectionEvaluator(original, ATTRS)
        (score,) = evaluator.evaluate_many(maskings[:1])
        path = tmp_path / "ro.sqlite"
        EvaluationCache(path).close()
        cache = EvaluationCache(path, readonly=True)
        cache.put_many([("k", score)])
        assert len(cache) == 0
        cache.close()
