"""Tests for the FURBYS profiling pipeline (repro.profiling)."""

from dataclasses import replace

import pytest

from repro.config import zen3_config
from repro.core.trace import Trace, TraceColumns
from repro.errors import ProfilingError
from repro.frontend.pipeline import FrontendPipeline
from repro.policies.furbys import FurbysPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.thermometer import COLD, HOT
from repro.profiling import (
    build_hints,
    collect_hit_rates,
    make_furbys,
    profile_application,
    record_lookup_sequence,
    three_class_profile,
)
from repro.profiling.hints import hintable_starts, merge_hints
from repro.profiling.hitrate import make_profile_policy
from repro.workloads.registry import get_trace

from .conftest import cyclic_trace, pw


@pytest.fixture(scope="module")
def config():
    return replace(zen3_config(), perfect_icache=True)


@pytest.fixture(scope="module")
def trace():
    from repro.workloads.cfg import build_cfg
    from repro.workloads.generator import generate_trace

    cfg = build_cfg(seed=5, functions=30, blocks_per_function=(3, 7),
                    insts_per_block=(3, 8), mean_iterations=1.5)
    return generate_trace(cfg, 3000, seed=11, phase_length=700, phase_count=2)


class TestStep2:
    def test_lookup_sequence_equals_trace(self, trace):
        assert record_lookup_sequence(trace) == trace.lookups

    def test_zero_capacity_cache_observes_every_lookup_as_miss(self, config):
        # The STEP-2 equivalence claim: with (near-)zero capacity the
        # insertion stream equals the lookup stream.
        tiny = config.with_uop_cache(entries=1, ways=1)
        lookups = [pw(0x1000 + i * 64, 24) for i in range(5)] * 2  # oversize
        pipeline = FrontendPipeline(tiny, LRUPolicy())
        stats = pipeline.run(Trace(lookups))
        assert stats.pw_misses == len(lookups)


class TestHitRates:
    def test_rates_are_fractions(self, trace, config):
        rates = collect_hit_rates(trace, config)
        assert rates
        assert all(0.0 <= r <= 1.0 for r in rates.values())

    def test_custom_policy_override(self, trace, config):
        rates = collect_hit_rates(trace, config, policy=LRUPolicy())
        assert rates

    def test_unknown_source_rejected(self, trace, config):
        with pytest.raises(ProfilingError):
            make_profile_policy("oracle", trace, config)

    def test_known_sources(self, trace, config):
        for source in ("flack", "belady", "foo"):
            assert make_profile_policy(source, trace, config) is not None


class TestHints:
    def test_only_branchful_pws_hintable(self):
        lookups = [pw(0x1, branch=True),
                   pw(0x2, branch=False, contains_branch=False),
                   pw(0x3, branch=False, contains_branch=True)]
        assert hintable_starts(Trace(lookups)) == {0x1, 0x3}

    def test_only_branchful_pws_hintable_columnar(self):
        lookups = [pw(0x1, branch=True),
                   pw(0x2, branch=False, contains_branch=False),
                   pw(0x3, branch=False, contains_branch=True)]
        columnar = Trace(columns=TraceColumns.from_lookups(lookups))
        assert hintable_starts(columnar) == {0x1, 0x3}
        assert columnar._lookups is None

    @pytest.mark.parametrize("app,input_name", [
        ("kafka", "default"), ("clang", "alt-seed"),
        ("python", "mixed-load"), ("wordpress", "long-phase"),
    ])
    def test_columnar_hintable_starts_match_object_path(self, app,
                                                        input_name):
        columns = get_trace(app, input_name, 4000).columns
        columnar = Trace(columns=columns)
        objects = Trace(columns.materialize())
        assert hintable_starts(columnar) == hintable_starts(objects)
        assert columnar._lookups is None

    def test_hint_values_fit_bit_width(self, trace, config):
        rates = collect_hit_rates(trace, config)
        for bits in (1, 3, 4):
            hints = build_hints(trace, rates, n_bits=bits,
                                n_sets=config.uop_cache.sets)
            assert hints
            assert all(0 <= w < (1 << bits) for w in hints.values())

    def test_global_scope(self, trace, config):
        rates = collect_hit_rates(trace, config)
        hints = build_hints(trace, rates, scope="global",
                            n_sets=config.uop_cache.sets)
        assert hints

    def test_invalid_scope_and_bits(self, trace):
        with pytest.raises(ProfilingError):
            build_hints(trace, {}, scope="per_way")
        with pytest.raises(ProfilingError):
            build_hints(trace, {}, n_bits=0)

    def test_merge_hints_averages(self):
        merged = merge_hints([{0x1: 2, 0x2: 7}, {0x1: 4}])
        assert merged[0x1] == 3
        assert merged[0x2] == 7


class TestEndToEnd:
    def test_shared_profile_keeps_trace_columnar(self):
        from repro.harness.artifacts import profiling_geometry, shared_profile
        from repro.harness.runner import clear_memory_cache

        clear_memory_cache()
        trace = get_trace("kafka", "default", 3000)
        assert trace._lookups is None
        profile = shared_profile(
            "kafka", "default", 3000, zen3_config(), source="flack",
            n_bits=3, scope="per_set",
            geometry=profiling_geometry(
                "zen3", cache_entries=None, cache_ways=None,
                insertion_delay=None, inclusive=True, keep_larger=True,
                perfect=(),
            ),
        )
        assert profile.hints
        assert trace._lookups is None
        clear_memory_cache()

    def test_profile_application_produces_profile(self, trace, config):
        profile = profile_application(trace, config)
        assert profile.hints
        assert profile.n_groups == 8
        assert profile.source == "flack"

    def test_make_furbys_wiring(self, trace, config):
        profile = profile_application(trace, config)
        policy, hints = make_furbys(profile, pitfall_depth=4)
        assert isinstance(policy, FurbysPolicy)
        assert hints is profile.hints

    def test_merged_profiles(self, trace, config):
        a = profile_application(trace, config)
        merged = a.merged_with(a)
        assert merged.hints == a.hints

    def test_merged_profiles_keep_hit_rates(self, trace, config):
        # Regression: merged_with used to drop hit_rates entirely,
        # leaving merged profiles unable to re-cluster or re-merge.
        a = profile_application(trace, config)
        merged = a.merged_with(a)
        assert merged.hit_rates
        assert merged.hit_rates == pytest.approx(a.hit_rates)
        assert merged.sample_counts == {
            start: 2 * count for start, count in a.sample_counts.items()
        }

    def test_merge_weights_by_sample_counts(self):
        from repro.profiling import FurbysProfile

        heavy = FurbysProfile(
            hints={0x1: 3}, hit_rates={0x1: 1.0}, sample_counts={0x1: 90}
        )
        light = FurbysProfile(
            hints={0x1: 1}, hit_rates={0x1: 0.0}, sample_counts={0x1: 10}
        )
        merged = heavy.merged_with(light)
        # 90 samples at 1.0 + 10 at 0.0 -> 0.9, not the unweighted 0.5.
        assert merged.hit_rates[0x1] == pytest.approx(0.9)
        assert merged.sample_counts[0x1] == 100

    def test_merge_defaults_to_uniform_without_counts(self):
        from repro.profiling import FurbysProfile

        a = FurbysProfile(hints={0x1: 2}, hit_rates={0x1: 1.0})
        b = FurbysProfile(hints={0x1: 2}, hit_rates={0x1: 0.0})
        merged = a.merged_with(b)
        assert merged.hit_rates[0x1] == pytest.approx(0.5)

    def test_profile_guided_furbys_beats_unhinted_on_cyclic(self, config):
        # A stationary cyclic workload is the canonical profile win.
        trace = cyclic_trace(96, repeats=30, uops=8)
        warmup = 96 * 5
        profile = profile_application(trace, config)
        policy, hints = make_furbys(profile)
        hinted = FrontendPipeline(config, policy, hints=hints).run(
            trace, warmup=warmup
        )
        unhinted = FrontendPipeline(config, FurbysPolicy()).run(
            trace, warmup=warmup
        )
        assert hinted.uops_missed <= unhinted.uops_missed

    def test_three_class_profile_values(self, trace, config):
        classes = three_class_profile(trace, config)
        assert classes
        assert set(classes.values()) <= {COLD, 1, HOT}
