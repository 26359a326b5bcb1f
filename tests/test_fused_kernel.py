"""Arm-fused multi-policy sweeps: bit-identity and resilience.

The fused path (:mod:`repro.frontend.simd_fused`, wired into batches by
the prepass in :mod:`repro.harness.parallel`) must be invisible except
for speed: every arm's stats bit-identical to the per-arm kernels, the
``REPRO_SIM_FUSE=0`` escape hatch restoring the old path end-to-end,
unsupported mixes and injected faults rerouting with counted
``sim_fallback:fused:<reason>`` reasons, and streaming windows changing
nothing but peak memory.

The property suite samples randomized mixed online/offline arm subsets
(seeded, so failures reproduce) at three trace scales and compares the
fused batch against the per-arm reference batch field by field.
"""

from __future__ import annotations

import dataclasses
import gc
import random

import pytest

from repro.core.trace import memo_census
from repro.frontend import simd, simd_fused, simd_offline
from repro.harness.parallel import run_batch
from repro.harness.runner import RunRequest, clear_memory_cache

ONLINE_ARMS = ("lru", "srrip", "random", "ghrp")
OFFLINE_ARMS = (
    "belady", "foo-ohr", "foo-bhr",
    "flack", "flack[foo]", "flack[A]", "flack[A+VC]", "flack[A+VC+SB]",
    "furbys", "thermometer",
)
ARM_POOL = ONLINE_ARMS + OFFLINE_ARMS


def _mixed_subset(rng: random.Random, k: int) -> tuple[str, ...]:
    """k arms, guaranteed to mix families whenever k >= 2."""
    if k == 1:
        return (rng.choice(ARM_POOL),)
    arms = [rng.choice(ONLINE_ARMS), rng.choice(OFFLINE_ARMS)]
    arms += rng.sample([a for a in ARM_POOL if a not in arms], k - 2)
    rng.shuffle(arms)
    return tuple(arms)


def _property_cases() -> list[tuple[str, int, tuple[str, ...]]]:
    rng = random.Random(0xF05ED)
    cases = []
    for trace_len, n_subsets, max_k in ((1000, 3, 8), (20000, 2, 6),
                                        (100000, 1, 3)):
        for _ in range(n_subsets):
            app = rng.choice(("kafka", "clang")) if trace_len < 100000 \
                else "kafka"
            k = rng.randint(1, max_k)
            cases.append((app, trace_len, _mixed_subset(rng, k)))
    return cases


CASES = _property_cases()


def _requests(app: str, trace_len: int, arms: tuple[str, ...]):
    return [RunRequest(app=app, policy=policy, trace_len=trace_len)
            for policy in arms]


def _run_cold(requests, monkeypatch, *, fuse: bool, **env: str):
    """One cold serial batch under the given fused-path env knobs."""
    clear_memory_cache()
    monkeypatch.setenv("REPRO_SIM_FUSE", "1" if fuse else "0")
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    results, report = run_batch(requests, jobs=1)
    assert all(stats is not None for stats in results)
    return [dataclasses.asdict(stats) for stats in results], report


@pytest.mark.parametrize(
    "app,trace_len,arms", CASES,
    ids=[f"{app}-{n}-{'+'.join(a for a in arms)}" for app, n, arms in CASES],
)
def test_fused_batch_bit_identity(app, trace_len, arms, monkeypatch):
    requests = _requests(app, trace_len, arms)
    fused, report = _run_cold(requests, monkeypatch, fuse=True)
    reference, _ = _run_cold(requests, monkeypatch, fuse=False)
    assert fused == reference
    unique = len(set(arms))
    if unique >= 2:
        assert report.faults.fused.get("sim_fused:served") == unique
        assert report.faults.fused.get("sim_fused:groups") == 1
    else:
        assert not report.faults.fused


def test_streaming_window_matches_monolithic(monkeypatch):
    arms = ("lru", "ghrp", "belady", "furbys", "flack[A]")
    requests = _requests("kafka", 20000, arms)
    monolithic, _ = _run_cold(requests, monkeypatch, fuse=True)
    windowed, report = _run_cold(
        requests, monkeypatch, fuse=True, REPRO_SIM_STREAM_WINDOW="4096"
    )
    assert windowed == monolithic
    assert report.faults.fused.get("sim_fused:served") == len(arms)


def test_stream_window_knob_is_clamped(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_STREAM_WINDOW", "7")
    assert simd_fused.stream_window() == 4096
    monkeypatch.setenv("REPRO_SIM_STREAM_WINDOW", "0")
    assert simd_fused.stream_window() == 0
    monkeypatch.setenv("REPRO_SIM_STREAM_WINDOW", "garbage")
    assert simd_fused.stream_window() == 0
    monkeypatch.setenv("REPRO_SIM_STREAM_WINDOW", "50000")
    assert simd_fused.stream_window() == 50000


def test_fuse_disabled_restores_per_arm_path(monkeypatch):
    requests = _requests("kafka", 1000, ("lru", "belady", "furbys"))
    _, report = _run_cold(requests, monkeypatch, fuse=False)
    assert not report.faults.fused
    assert not report.faults.sim_fallbacks


def test_ineligible_group_falls_back_with_counted_reason(monkeypatch):
    # classify_misses forces the reference loop, so the whole group must
    # reroute to the per-arm path with a counted reason — and still
    # produce results.
    requests = [
        RunRequest(app="kafka", policy=policy, trace_len=1000,
                   classify_misses=True)
        for policy in ("lru", "srrip", "ghrp")
    ]
    results, report = _run_cold(requests, monkeypatch, fuse=True)
    assert not report.faults.fused
    assert any(name.startswith("sim_fallback:fused:")
               for name in report.faults.sim_fallbacks)


def test_injected_fused_fault_reroutes_per_arm(monkeypatch, tmp_path):
    arms = ("lru", "ghrp", "belady", "furbys")
    requests = _requests("kafka", 1000, arms)
    reference, _ = _run_cold(requests, monkeypatch, fuse=False)
    import repro.faultinject as faultinject

    monkeypatch.setenv("REPRO_FAULT_SPEC", "fused:group:raise")
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "faults"))
    faultinject.reset_plan_cache()
    try:
        chaos, report = _run_cold(requests, monkeypatch, fuse=True)
    finally:
        monkeypatch.delenv("REPRO_FAULT_SPEC")
        monkeypatch.delenv("REPRO_FAULT_STATE")
        faultinject.reset_plan_cache()
    assert chaos == reference
    assert report.faults.sim_fallbacks.get("sim_fallback:fused:error") == 1
    assert not report.faults.fused
    # The injected failure is informational (the per-arm path absorbed
    # it), so the batch still counts as fault-free execution.
    assert report.faults.skipped == 0 and report.faults.crashed == 0


def test_clear_memory_cache_drops_sim_caches(monkeypatch):
    _run_cold(_requests("kafka", 1000, ("lru", "belady")),
              monkeypatch, fuse=True)
    assert simd.segment_cache_stats()["entries"] >= 1
    assert simd_offline.segment_cache_stats()["entries"] >= 1
    assert memo_census()["entries"] >= 1
    before = simd.segment_cache_stats()["evicted"]
    clear_memory_cache()
    gc.collect()  # offline kernels self-reference via bound methods
    assert simd.segment_cache_stats()["entries"] == 0
    assert simd_offline.segment_cache_stats()["entries"] == 0
    assert memo_census()["entries"] == 0
    assert simd.segment_cache_stats()["evicted"] > before
