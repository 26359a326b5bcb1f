"""The source arm's run is the FURBYS/Thermometer profiling replay.

When a fused group evaluates a profile-guided arm next to the arm its
profile source builds (FURBYS next to FLACK, by default), the batch
engine records the source arm's per-PW hit stats and hands them to the
shared artifact store instead of replaying the trace a second time.
These tests pin that the sharing is invisible except for speed:

* every arm's stats are bit-identical to ``REPRO_SIM_FUSE=0``;
* the published hit stats equal a standalone ``collect_hit_stats``
  replay, entry order included;
* ``collect_hit_stats`` runs 0 times when the matching source arm is in
  the batch and the consumers profile their own input, once otherwise;
* each avoided replay is counted as ``note:profile_shared``.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.harness import artifacts, runner
from repro.harness.parallel import run_batch
from repro.harness.reporting import format_batch_report
from repro.harness.runner import RunRequest, _request_geometry, clear_memory_cache
from repro.profiling import hitrate
from repro.profiling.hitrate import PROFILE_SOURCE_ARMS
from repro.workloads.registry import get_trace

TRACE_LEN = 3000
APP = "kafka"
OWN, OTHER = "default", "alt-seed"

SOURCE_ARMS = ("flack", "belady", "foo-ohr")
SOURCES = ("flack", "belady", "foo")
PROFILE_INPUTS = ((), (OWN,), (OTHER,))
WARMUPS = (None, 0, 700)
GEOMETRIES = ({}, {"cache_entries": 1024, "cache_ways": 4})


def _cases():
    """Every (source arm, profile source) pair.  Profile inputs and
    warmup follow two orthogonal Latin squares over that grid, so each
    pair of their values meets once; the geometry alternates."""
    cases = []
    for (a, arm), (s, source) in itertools.product(
        enumerate(SOURCE_ARMS), enumerate(SOURCES)
    ):
        cases.append((
            arm, source, PROFILE_INPUTS[(a + s) % 3],
            WARMUPS[(a + 2 * s) % 3], GEOMETRIES[(a + s) % 2],
        ))
    return cases


CASES = _cases()


def _batch(arm, source, profile_inputs, warmup, geometry):
    base = dict(app=APP, input_name=OWN, trace_len=TRACE_LEN, warmup=warmup,
                **geometry)
    return [
        RunRequest(policy=arm, **base),
        RunRequest(policy="furbys", profile_source=source,
                   profile_inputs=profile_inputs, **base),
        RunRequest(policy="thermometer", profile_source=source,
                   profile_inputs=profile_inputs, **base),
    ]


def _run_cold(requests, monkeypatch, *, fuse: bool, jobs: int = 1):
    clear_memory_cache()
    monkeypatch.setenv("REPRO_SIM_FUSE", "1" if fuse else "0")
    results, report = run_batch(requests, jobs=jobs)
    assert all(stats is not None for stats in results)
    return [dataclasses.asdict(stats) for stats in results], report


@pytest.fixture
def replay_counter(monkeypatch):
    calls = []
    collect = hitrate.collect_hit_stats

    def counted(*args, **kwargs):
        calls.append(kwargs.get("source"))
        return collect(*args, **kwargs)

    monkeypatch.setattr(hitrate, "collect_hit_stats", counted)
    return calls


def test_cases_cover_every_dimension():
    for dim, values in enumerate(
        (SOURCE_ARMS, SOURCES, PROFILE_INPUTS, WARMUPS, GEOMETRIES)
    ):
        assert {repr(case[dim]) for case in CASES} == set(map(repr, values))


@pytest.mark.parametrize(
    "arm,source,profile_inputs,warmup,geometry", CASES,
    ids=[f"{c[0]}-{c[1]}-{'+'.join(c[2]) or 'own'}-w{c[3]}-"
         f"{'geo' if c[4] else 'zen3'}" for c in CASES],
)
def test_source_arm_run_is_the_profiling_replay(
    arm, source, profile_inputs, warmup, geometry, monkeypatch,
    replay_counter,
):
    requests = _batch(arm, source, profile_inputs, warmup, geometry)
    reference, _ = _run_cold(requests, monkeypatch, fuse=False)
    replay_counter.clear()
    fused, report = _run_cold(requests, monkeypatch, fuse=True)
    assert fused == reference

    shared = (PROFILE_SOURCE_ARMS[source] == arm
              and profile_inputs in ((), (OWN,)))
    assert len(replay_counter) == (0 if shared else 1)
    assert report.faults.notes.get("note:profile_shared", 0) == int(shared)
    assert report.faults.fused.get("sim_fused:served") == len(requests)
    assert report.faults.fused.get("sim_fused:groups") == 1
    assert ("profile_shared=1" in format_batch_report(report)) == shared

    # The artifact the consumers used equals a standalone replay.
    profiled = (profile_inputs or (OWN,))[0]
    cached = artifacts.cached_hit_stats(
        APP, profiled, TRACE_LEN, source=source,
        geometry=_request_geometry(requests[1]),
    )
    standalone = hitrate.collect_hit_stats(
        get_trace(APP, profiled, TRACE_LEN), requests[1].build_config(),
        source=source,
    )
    assert cached is not None
    assert list(cached.items()) == list(standalone.items())


def test_mixed_batch_in_parallel_is_bit_identical(monkeypatch):
    requests = [
        *_batch("flack", "flack", (), None, {}),
        *_batch("belady", "belady", (OWN,), 0, GEOMETRIES[1]),
        RunRequest(app=APP, policy="lru", trace_len=TRACE_LEN),
        *[dataclasses.replace(r, app="clang") for r in
          _batch("foo-ohr", "foo", (), 700, {})],
    ]
    reference, _ = _run_cold(requests, monkeypatch, fuse=False)
    fused, _ = _run_cold(requests, monkeypatch, fuse=True, jobs=2)
    assert fused == reference


def test_cached_hit_stats_are_not_recorded_again(monkeypatch, replay_counter):
    # A second cold batch over the same profile key finds the artifact
    # already published: nothing to share, nothing to replay.
    requests = _batch("flack", "flack", (), None, {})
    _run_cold(requests, monkeypatch, fuse=True)
    published = dict(artifacts._hitstats_cache)
    runner._memory_cache.clear()
    runner._profile_cache.clear()
    runner._thermo_cache.clear()
    results, report = run_batch(requests, jobs=1)
    assert all(stats is not None for stats in results)
    assert artifacts._hitstats_cache == published
    assert "note:profile_shared" not in report.faults.notes
    assert replay_counter == []
