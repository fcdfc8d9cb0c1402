"""Persistent evaluation cache: hit/miss accounting and evaluator wiring."""

from __future__ import annotations

import pytest

from repro.metrics import MaxScore, MeanScore, ProtectionEvaluator, ProtectionScore
from repro.methods import Pram
from repro.service import EvaluationCache, score_from_dict, score_to_dict

ATTRS = ("EDUCATION", "MARITAL-STATUS", "OCCUPATION")


def _score(value: float = 1.0) -> ProtectionScore:
    return ProtectionScore(
        information_loss=value,
        disclosure_risk=2 * value,
        score=2 * value,
        il_components={"CTBIL": value},
        dr_components={"ID": 2 * value},
    )


class TestEvaluationCache:
    def test_miss_then_hit(self, tmp_path):
        cache = EvaluationCache(tmp_path / "cache.sqlite")
        assert cache.get("k") is None
        cache.put("k", _score())
        stored = cache.get("k")
        assert stored == _score()
        assert cache.stats() == {
            "entries": 1, "hits": 1, "misses": 1, "writes": 1, "evictions": 0,
        }

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        with EvaluationCache(path) as cache:
            cache.put("k", _score(3.0))
        with EvaluationCache(path) as fresh:
            assert fresh.get("k") == _score(3.0)
            assert fresh.hits == 1 and fresh.misses == 0

    def test_clear(self, tmp_path):
        cache = EvaluationCache(tmp_path / "cache.sqlite")
        cache.put("a", _score())
        cache.put("b", _score())
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_readonly_skips_writes(self, tmp_path):
        path = tmp_path / "cache.sqlite"
        cache = EvaluationCache(path, readonly=True)
        cache.put("k", _score())
        assert len(cache) == 0 and cache.writes == 0

    def test_score_serde_roundtrip(self):
        score = _score(0.123456789)
        assert score_from_dict(score_to_dict(score)) == score

    def test_stats_safe_after_close(self, tmp_path):
        cache = EvaluationCache(tmp_path / "cache.sqlite")
        cache.put("k", _score())
        cache.get("k")
        cache.close()
        cache.close()  # idempotent
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["writes"] == 1

    def test_counters_exact_under_concurrent_use(self, tmp_path):
        # Regression: hits/misses/writes were mutated outside the lock,
        # so a shared instance under the thread backend dropped updates.
        import threading

        cache = EvaluationCache(tmp_path / "cache.sqlite")
        n_threads, n_ops = 8, 50

        def hammer(thread_index: int) -> None:
            for op in range(n_ops):
                cache.get(f"missing-{thread_index}-{op}")
                cache.put(f"key-{thread_index}-{op}", _score())
                cache.get(f"key-{thread_index}-{op}")

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert cache.misses == n_threads * n_ops
        assert cache.writes == n_threads * n_ops
        assert cache.hits == n_threads * n_ops


class TestEvaluatorIntegration:
    @pytest.fixture()
    def masked(self, small_adult):
        return Pram(theta=0.3).protect(small_adult, ATTRS, seed=5)

    def test_persistent_hit_skips_fresh_evaluation(self, small_adult, masked, tmp_path):
        path = tmp_path / "cache.sqlite"
        first = ProtectionEvaluator(
            small_adult, ATTRS, persistent_cache=EvaluationCache(path)
        )
        cold = first.evaluate(masked)
        assert first.evaluations == 1 and first.persistent_hits == 0

        second = ProtectionEvaluator(
            small_adult, ATTRS, persistent_cache=EvaluationCache(path)
        )
        warm = second.evaluate(masked)
        assert warm == cold
        assert second.evaluations == 0 and second.persistent_hits == 1
        assert second.cache_info()["persistent_hits"] == 1
        # The persistent hit is memoized: a repeat is an in-process hit.
        second.evaluate(masked)
        assert second.cache_hits == 1 and second.persistent_hits == 1

    def test_different_score_function_does_not_collide(self, small_adult, masked, tmp_path):
        path = tmp_path / "cache.sqlite"
        max_eval = ProtectionEvaluator(
            small_adult, ATTRS, score_function=MaxScore(),
            persistent_cache=EvaluationCache(path),
        )
        max_eval.evaluate(masked)
        mean_eval = ProtectionEvaluator(
            small_adult, ATTRS, score_function=MeanScore(),
            persistent_cache=EvaluationCache(path),
        )
        mean_eval.evaluate(masked)
        # Same candidate, different configuration: a fresh evaluation.
        assert mean_eval.persistent_hits == 0 and mean_eval.evaluations == 1

    def test_parameterized_score_functions_do_not_collide(self, small_adult, masked, tmp_path):
        from repro.metrics import WeightedScore

        path = tmp_path / "cache.sqlite"
        heavy = ProtectionEvaluator(
            small_adult, ATTRS, score_function=WeightedScore(0.9),
            persistent_cache=EvaluationCache(path),
        )
        heavy_score = heavy.evaluate(masked)
        light = ProtectionEvaluator(
            small_adult, ATTRS, score_function=WeightedScore(0.1),
            persistent_cache=EvaluationCache(path),
        )
        light_score = light.evaluate(masked)
        # Same candidate, same score *name*, different weight: the light
        # evaluator must compute fresh, not read the heavy entry.
        assert light.persistent_hits == 0 and light.evaluations == 1
        assert light_score.score != heavy_score.score

    def test_parameterized_measures_do_not_collide(self, small_adult):
        from repro.metrics import ContingencyTableLoss, default_dr_measures

        shallow = ProtectionEvaluator(
            small_adult, ATTRS,
            il_measures=[ContingencyTableLoss(small_adult, ATTRS, max_order=1)],
            dr_measures=default_dr_measures(small_adult, ATTRS),
        )
        deep = ProtectionEvaluator(
            small_adult, ATTRS,
            il_measures=[ContingencyTableLoss(small_adult, ATTRS, max_order=2)],
            dr_measures=default_dr_measures(small_adult, ATTRS),
        )
        assert shallow.config_fingerprint() != deep.config_fingerprint()

    def test_config_fingerprint_distinguishes_configurations(self, small_adult):
        a = ProtectionEvaluator(small_adult, ATTRS)
        b = ProtectionEvaluator(small_adult, ATTRS)
        assert a.config_fingerprint() == b.config_fingerprint()
        c = ProtectionEvaluator(small_adult, ATTRS, score_function=MeanScore())
        assert a.config_fingerprint() != c.config_fingerprint()
        d = ProtectionEvaluator(small_adult, ATTRS[:2])
        assert a.config_fingerprint() != d.config_fingerprint()

    def test_config_fingerprint_tracks_kernel_version(self, small_adult, monkeypatch):
        import repro.metrics.evaluation as evaluation

        assert evaluation.METRIC_KERNEL_VERSION == 3
        current = ProtectionEvaluator(small_adult, ATTRS).config_fingerprint()
        monkeypatch.setattr(evaluation, "METRIC_KERNEL_VERSION", 2)
        assert ProtectionEvaluator(small_adult, ATTRS).config_fingerprint() != current

    def test_cache_key_tracks_candidate_content(self, small_adult, masked):
        evaluator = ProtectionEvaluator(small_adult, ATTRS)
        assert evaluator.cache_key(masked) != evaluator.cache_key(small_adult)
        assert evaluator.cache_key(masked) == evaluator.cache_key(masked)

    def test_works_with_memo_cache_disabled(self, small_adult, masked, tmp_path):
        path = tmp_path / "cache.sqlite"
        first = ProtectionEvaluator(
            small_adult, ATTRS, cache_size=0, persistent_cache=EvaluationCache(path)
        )
        cold = first.evaluate(masked)
        warm = first.evaluate(masked)
        assert warm == cold
        assert first.evaluations == 1 and first.persistent_hits == 1
