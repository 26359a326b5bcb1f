"""One measured (or traced) run of a workload, in a fresh process.

Usage: ``python perfbench/child.py <job.json>``.  The job names the
mode (``setup``, ``plain`` or ``traced``), the workload, the registry
input and the parent's ``time.monotonic()`` at spawn; the child writes
its result JSON to ``job["out"]``.

Every mode first sets up: imports, then cold generation of each trace
the workload uses; ``setup`` stops there.  ``plain`` then goes through
the user path: ``run_batch`` for the sweeps, the Figure 8 matrix of
``repro.harness.experiments`` under an ``ExperimentRun`` for the
figure.  ``traced`` runs the same path with a span around each layer's
public entry point (``install_probes``); its stats digests must equal
the plain run's.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from spans import Tracer, peak_rss_mib
from spec import Workload, repro_keys, request_id

#: Figure 8's policies, LRU baseline first (experiments.fig8_furbys_miss).
FIG8_EXTRA = ("flack",)


def stats_digest(stats) -> str:
    """sha256 over the canonical stats serialization (the ledger's)."""
    text = json.dumps(dataclasses.asdict(stats), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def build_requests(workload: Workload, input_name: str):
    from repro.harness.experiments import COMPARISON_POLICIES
    from repro.harness.runner import RunRequest

    policies = workload.policies
    if workload.kind == "figure":
        policies = ("lru", *COMPARISON_POLICIES, *FIG8_EXTRA)
    return [
        RunRequest(app=app, policy=policy, input_name=input_name,
                   trace_len=workload.trace_len)
        for app in workload.apps
        for policy in policies
    ]


def summarize(requests, stats_list) -> dict:
    """Digests, simulated metrics and exact counts of a finished run."""
    from repro.timing.model import TimingModel

    digests = {}
    miss_rates = []
    ipcs = []
    counts = dict.fromkeys((
        "pw_hits", "pw_partial_hits", "pw_misses", "insertions",
        "bypasses", "evictions", "path_switches", "decoder_uops",
    ), 0)
    for request, stats in zip(requests, stats_list):
        if stats is None:
            continue
        digests[request_id(request.app, request.policy)] = stats_digest(stats)
        miss_rates.append(stats.uop_miss_rate)
        ipcs.append(TimingModel(request.build_config()).evaluate(stats).ipc)
        for name in counts:
            counts[name] += getattr(stats, name)
    n = max(1, len(miss_rates))
    return {
        "digests": digests,
        "miss_rate": sum(miss_rates) / n,
        "ipc": sum(ipcs) / n,
        "counts": counts,
    }


def run_workload(workload: Workload, input_name: str, requests,
                 tracer: Tracer | None) -> dict:
    """The measured work, through the user path; under ``tracer`` it is
    the run span every layer span opens in."""
    from repro.harness import experiments
    from repro.harness.ledger import ExperimentRun
    from repro.harness.parallel import last_batch_report, run_batch
    from repro.harness.runner import cached_stats

    checks = []
    run_span = tracer.span("harness.batch", "run") if tracer else nullcontext()
    start = time.perf_counter()
    with run_span:
        if workload.kind == "figure":
            # Figure 8's matrix with the seed's input; fig8_furbys_miss()
            # itself always simulates the "default" input.
            with ExperimentRun("perfbench-figure-cold") as record:
                table = experiments._miss_reduction_matrix(
                    (*experiments.COMPARISON_POLICIES, *FIG8_EXTRA),
                    input_name=input_name, trace_len=workload.trace_len,
                )
        else:
            stats_list, _ = run_batch(requests, jobs=1)
    run_s = time.perf_counter() - start
    report = last_batch_report()
    if workload.kind == "figure":
        stats_list = [cached_stats(request) for request in requests]
        if record.state != "COMPLETE":
            checks.append(f"ledger state {record.state}")
        if len(table["rows"]) != len(workload.apps):
            checks.append("figure table rows != apps")
    return {
        "run_s": run_s,
        "stats": stats_list,
        "checks": checks,
        "fallbacks": sum(report.faults.sim_fallbacks.values()),
    }


# --- traced run ---------------------------------------------------------------


def install_probes(tracer: Tracer, counters: dict) -> None:
    """Wrap each layer's public entry points in a span, under the names
    the program looks them up by.

    A layer span opens only directly under the run span: an entry
    point reached from inside another layer (the profiling replay runs
    a ``FrontendPipeline``, ``shared_profile`` asks ``shared_hit_stats``)
    is that layer's own work, and a call outside the run is not
    measured.  The wrappers pass every argument and result through.
    """
    from repro.frontend import simd_fused
    from repro.frontend.pipeline import FrontendPipeline
    from repro.harness import parallel, runner
    from repro.harness.ledger import ExperimentJournal
    from repro.profiling import hitrate

    def bump(name: str, amount: int = 1) -> None:
        counters[name] += amount

    def probe(fn, name, ident, *, memory=False, tally=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.depth != 1:
                return fn(*args, **kwargs)
            if tally is not None:
                tally(*args)
            with tracer.span(name, ident(*args), memory=memory):
                return fn(*args, **kwargs)
        return wrapper

    def by_request(request, *_):
        return request_id(request.app, request.policy)

    def by_trace(trace, *_):
        return f"{trace.metadata.app}/{trace.metadata.input_name}"

    def by_app(app, input_name, *_):
        return f"{app}/{input_name}"

    def profile_request(*_):
        bump("profile_requests")

    for name in ("BeladyPolicy", "FLACKPolicy"):
        setattr(runner, name, probe(getattr(runner, name), "offline.build",
                                    by_trace, memory=True))
    runner.shared_profile = probe(runner.shared_profile, "profiling.profile",
                                  by_app, tally=profile_request)
    runner.shared_hit_stats = probe(runner.shared_hit_stats,
                                    "profiling.thermometer", by_app,
                                    tally=profile_request)
    runner.three_class_profile = probe(runner.three_class_profile,
                                       "profiling.thermometer", by_trace)
    collect = hitrate.collect_hit_stats

    @functools.wraps(collect)
    def replay(*args, **kwargs):
        bump("replays")
        return collect(*args, **kwargs)

    hitrate.collect_hit_stats = replay
    simd_fused.run_group = probe(
        simd_fused.run_group, "frontend.fused",
        lambda pipelines, trace, *_: by_trace(trace), memory=True,
        tally=lambda pipelines, trace, *_: bump(
            "fused_lookups", len(pipelines) * len(trace)
        ),
    )
    FrontendPipeline.run = probe(
        FrontendPipeline.run, "frontend.solo",
        lambda pipeline, trace, *_: by_trace(trace), memory=True,
        tally=lambda pipeline, trace, *_: bump("solo_lookups", len(trace)),
    )
    for name, span in (("cached_stats", "harness.probe"),
                       ("store_stats", "harness.store")):
        wrapped = probe(getattr(runner, name), span, by_request)
        setattr(runner, name, wrapped)
        setattr(parallel, name, wrapped)
    for name in ("register", "record", "commit"):
        setattr(ExperimentJournal, name, probe(
            getattr(ExperimentJournal, name), "ledger.journal",
            lambda journal, *_: "journal",
        ))


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    workload = Workload.from_json(job["workload"])
    input_name = job["input"]
    mode = job["mode"]
    out = Path(job["out"])

    import numpy
    from repro.workloads.registry import DEFAULT_TRACE_LEN, get_trace

    requests = build_requests(workload, input_name)
    trace_len = workload.trace_len or DEFAULT_TRACE_LEN
    tracer = Tracer() if mode == "traced" else None
    work_start = time.perf_counter()
    for app in workload.apps:
        rid = f"{app}/{input_name}/{trace_len}"
        with tracer.span("workloads.trace", rid) if tracer else nullcontext():
            get_trace(app, input_name, trace_len)
    setup_s = time.monotonic() - job["t0"]
    result = {"setup_s": setup_s, "repro_env": repro_keys(os.environ)}
    if mode == "setup":
        out.write_text(json.dumps(result))
        return 0

    counters = dict.fromkeys(
        ("fused_lookups", "solo_lookups", "profile_requests", "replays"), 0
    )
    if tracer is not None:
        install_probes(tracer, counters)
    result.update(run_workload(workload, input_name, requests, tracer))
    wall_s = time.perf_counter() - work_start

    result.update(summarize(requests, result.pop("stats")))
    counters["arms"] = len({request.cache_key() for request in requests})
    result.update(
        wall_s=wall_s,
        lookups=trace_len * len(requests),
        trace_lookups=trace_len * len(workload.apps),
        peak_rss_mib=peak_rss_mib(),
        numpy=numpy.__version__,
    )
    if tracer is not None:
        if tracer.rss_unavailable:
            result["checks"].append(
                "span RSS growth unavailable: /proc/self/clear_refs "
                "cannot reset the peak-RSS watermark"
            )
        result["counters"] = counters
        spans_path = out.with_suffix(".spans.json")
        tracer.write(spans_path)
        result["spans"] = str(spans_path)
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
