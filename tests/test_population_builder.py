"""Unit tests for the paper's initial-population builder."""

from __future__ import annotations

import pytest

from repro.datasets import load_dataset, protected_attributes
from repro.exceptions import ExperimentError
from repro.experiments import PAPER_MIXES, PopulationMix, build_initial_population, build_method_suite
from repro.obs import trace


class TestPaperMixes:
    """The paper's §3 population counts, pinned exactly."""

    @pytest.mark.parametrize(
        "name,total", [("housing", 110), ("german", 104), ("flare", 104), ("adult", 86)]
    )
    def test_totals(self, name, total):
        assert PAPER_MIXES[name].total == total

    def test_housing_breakdown(self):
        mix = PAPER_MIXES["housing"]
        assert (mix.microaggregation, mix.bottom_coding, mix.top_coding,
                mix.global_recoding, mix.rank_swapping, mix.pram) == (72, 6, 6, 6, 11, 9)

    def test_adult_breakdown(self):
        mix = PAPER_MIXES["adult"]
        assert (mix.microaggregation, mix.bottom_coding, mix.top_coding,
                mix.global_recoding, mix.rank_swapping, mix.pram) == (48, 6, 6, 6, 11, 9)


class TestMethodSuite:
    def test_suite_counts_match_mix(self):
        attrs = protected_attributes("flare")
        mix = PAPER_MIXES["flare"]
        suite = build_method_suite(attrs, mix)
        assert len(suite) == mix.total
        by_family = {}
        for method in suite:
            by_family[method.method_name] = by_family.get(method.method_name, 0) + 1
        assert by_family["microaggregation"] == 72
        assert by_family["bottom_coding"] == 4
        assert by_family["top_coding"] == 4
        assert by_family["global_recoding"] == 4
        assert by_family["rank_swapping"] == 11
        assert by_family["pram"] + by_family["invariant_pram"] == 9

    def test_microaggregation_grid_balanced(self):
        attrs = protected_attributes("adult")
        suite = build_method_suite(attrs, PopulationMix(48, 0, 0, 0, 0, 0))
        ks = sorted({m.k for m in suite})
        assert ks == list(range(2, 10))  # 8 k-values x 6 variants = 48
        per_k = [sum(1 for m in suite if m.k == k) for k in ks]
        assert per_k == [6] * 8

    def test_configurations_distinct(self):
        attrs = protected_attributes("flare")
        suite = build_method_suite(attrs, PAPER_MIXES["flare"])
        descriptions = [(m.method_name, m.describe(), getattr(m, "sort_attributes", None))
                        for m in suite]
        assert len(set(map(str, descriptions))) == len(descriptions)


class TestBuildPopulation:
    @pytest.mark.parametrize("name", ["adult"])  # one full build is enough; others covered by mixes
    def test_full_paper_population(self, name):
        original = load_dataset(name)
        protections = build_initial_population(original, dataset_name=name, seed=0)
        assert len(protections) == PAPER_MIXES[name].total
        for masked in protections:
            original.require_compatible(masked)

    def test_population_deterministic(self, adult):
        a = build_initial_population(adult, dataset_name="adult", seed=5)
        b = build_initial_population(adult, dataset_name="adult", seed=5)
        assert all(x.equals(y) for x, y in zip(a, b))

    def test_population_varies_with_seed(self, adult):
        a = build_initial_population(adult, dataset_name="adult", seed=1)
        b = build_initial_population(adult, dataset_name="adult", seed=2)
        assert any(not x.equals(y) for x, y in zip(a, b))

    def test_explicit_attributes_and_mix(self, adult):
        mix = PopulationMix(4, 1, 1, 1, 2, 2)
        protections = build_initial_population(
            adult, attributes=["EDUCATION", "OCCUPATION"], mix=mix, seed=0
        )
        assert len(protections) == mix.total

    def test_requires_dataset_or_attributes(self, adult):
        with pytest.raises(ExperimentError):
            build_initial_population(adult)

    def test_unknown_dataset_name(self, adult):
        with pytest.raises(ExperimentError):
            build_initial_population(adult, dataset_name="mars")

    def test_protection_names_unique(self, adult):
        protections = build_initial_population(adult, dataset_name="adult", seed=0)
        names = [p.name for p in protections]
        assert len(set(names)) == len(names)


class TestBuildSpan:
    @pytest.fixture(autouse=True)
    def quiet_tracer(self):
        trace.disable_tracing()
        yield
        trace.disable_tracing()

    def test_span_counts_candidates_and_changes_no_byte(self, adult):
        trace.enable_tracing()
        with trace.activated(trace.new_trace_id()) as scope:
            traced = build_initial_population(adult, dataset_name="adult", seed=3)
        trace.disable_tracing()
        plain = build_initial_population(adult, dataset_name="adult", seed=3)
        assert [p.name for p in traced] == [p.name for p in plain]
        assert all(t.codes.tobytes() == p.codes.tobytes() for t, p in zip(traced, plain))
        spans = [s for s in scope.collected if s["name"] == "repro.population.build"]
        assert len(spans) == 1
        assert spans[0]["attrs"] == {"dataset": "adult", "candidates": PAPER_MIXES["adult"].total}

    def test_explicit_attributes_name_the_original(self, adult):
        mix = PopulationMix(2, 1, 1, 1, 1, 1)
        trace.enable_tracing()
        with trace.activated(trace.new_trace_id()) as scope:
            build_initial_population(adult, attributes=["EDUCATION"], mix=mix, seed=0)
        (span,) = [s for s in scope.collected if s["name"] == "repro.population.build"]
        assert span["attrs"] == {"dataset": adult.name, "candidates": mix.total}
