"""Self-tests of the benchmark at tiny scale (one app, 3000-lookup traces).

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402
from spans import self_times  # noqa: E402

TINY = {
    "online-sweep": spec.Workload(
        "sweep", ("kafka",), ("lru", "srrip", "ghrp", "random"), 3000
    ),
    "offline-sweep": spec.Workload(
        "sweep", ("kafka",), ("belady", "flack", "furbys", "thermometer"), 3000
    ),
    "figure-cold": spec.Workload("figure", ("kafka",), (), 3000),
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    runs = {}
    for name, workload in TINY.items():
        base = tmp_path_factory.mktemp(name)
        runs[name] = tuple(
            run.spawn(mode, name, "alt-seed", base / mode, workload)
            for mode in ("plain", "traced")
        )
    return runs


def test_metric_names_are_valid_and_have_units(tiny):
    catalog = run.catalog()
    names = [n for group in catalog.values() for n in group]
    assert len(names) == len(set(names))
    for group in catalog.values():
        for name, entry in group.items():
            assert NAME.match(name), name
            assert UNIT.match(entry["unit"]), entry
    plain, traced = tiny["figure-cold"]
    outcome = run.Outcome("figure-cold", plain["digests"])
    outcome.add(plain)
    assert set(run.end_to_end([plain], [], outcome)) == set(
        catalog["end_to_end"]
    )
    assert set(run.traced_metrics([(plain, traced)])) == set(
        catalog["per_layer"]
    )


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_matches_untraced_run(tiny, name):
    plain, traced = tiny[name]
    assert plain["digests"] and plain["digests"] == traced["digests"]
    assert plain["counts"] == traced["counts"]
    assert plain["checks"] == traced["checks"] == []
    assert traced["counters"]["arms"] == len(plain["digests"])


def test_flipped_digest_drives_ok_frac_below_one(tiny):
    plain, _ = tiny["offline-sweep"]
    clean = run.Outcome("offline-sweep", dict(plain["digests"]))
    clean.add(plain)
    assert clean.correct and clean.ok_frac == 1.0
    flipped = dict(plain["digests"])
    rid = next(iter(flipped))
    flipped[rid] = flipped[rid][::-1]
    broken = run.Outcome("offline-sweep", flipped)
    broken.add(plain)
    assert not broken.correct
    assert broken.ok_frac == 1.0 - 1 / len(flipped)
    missing = run.Outcome("offline-sweep", dict(plain["digests"]))
    missing.add(None)
    assert missing.ok_frac == 0.0


def test_seed_to_input_mapping_is_stable():
    assert [spec.input_for_seed(s) for s in range(6)] == [
        "default", "alt-seed", "mixed-load", "long-phase",
        "default", "alt-seed",
    ]
    recorded = spec.load_digests()
    for name, workload in spec.WORKLOADS.items():
        assert sorted(recorded[name]) == sorted(spec.INPUTS)
        arms = 8 if workload.kind == "figure" else len(workload.policies)
        for digests in recorded[name].values():
            assert len(digests) == arms * len(workload.apps)


def test_stray_repro_variable_does_not_reach_child(tiny, tmp_path,
                                                   monkeypatch):
    monkeypatch.setenv("REPRO_SIM_FUSE", "0")
    monkeypatch.setenv("REPRO_TRACE_LEN", "1234")
    workload = TINY["online-sweep"]
    allowed = spec.repro_keys(spec.child_env(tmp_path, workload))
    assert allowed == ["REPRO_CACHE_DIR", "REPRO_JOBS", "REPRO_LEDGER"]
    result = run.spawn("plain", "online-sweep", "alt-seed",
                       tmp_path / "stray", workload)
    assert result["repro_env"] == allowed
    assert result["digests"] == tiny["online-sweep"][0]["digests"]
    outcome = run.Outcome("online-sweep", result["digests"])
    outcome.add(dict(result, repro_env=allowed + ["REPRO_SIM_FUSE"]))
    assert not outcome.correct and outcome.ok_frac == 0.0


@pytest.mark.parametrize("flip", [False, True])
def test_exit_status_follows_correctness(tiny, tmp_path, monkeypatch,
                                         capsys, flip):
    plain, _ = tiny["online-sweep"]
    digests = dict(plain["digests"])
    if flip:
        rid = next(iter(digests))
        digests[rid] = digests[rid][::-1]
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(
        run, "load_digests", lambda: {"online-sweep": {"alt-seed": digests}}
    )
    status = run.main(["--workload", "online-sweep", "--seed", "1",
                       "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is not flip
    assert status == (1 if flip else 0)


def test_span_rss_is_unavailable_without_watermark_reset(monkeypatch):
    monkeypatch.setattr(spans, "_reset_peak", lambda: False)
    tracer = spans.Tracer()
    with tracer.span("frontend.fused", "kafka", memory=True):
        bytearray(1 << 20)
    assert tracer.spans[0]["rss_growth_mib"] is None
    assert tracer.rss_unavailable


def test_self_time_subtracts_child_coverage():
    spans = [
        {"name": "a", "parent": -1, "start": 0.0, "end": 10.0},
        {"name": "b", "parent": 0, "start": 1.0, "end": 3.0},
        {"name": "c", "parent": 0, "start": 2.0, "end": 5.0},
        {"name": "d", "parent": 2, "start": 2.5, "end": 3.5},
        {"name": "e", "parent": 0, "start": 7.0, "end": 8.0},
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 2.0, 1.0, 1.0])


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(spec.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(spec.ROOT / "BENCHMARK.json", tmp_path)
    command = json.loads((spec.ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *command[1:], "--workload", "online-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
