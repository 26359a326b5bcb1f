"""Repository benchmark: serial, cold, closed-loop runs of the simulator.

    python3 perfbench/run.py --workload online-sweep --seed 0 --seconds 20 --trace 0

Run from the repository root.  Each measured repetition is a fresh
child process (``perfbench/child.py``) with an empty cache directory
and ledger, ``REPRO_JOBS=1`` and no ``REPRO_*`` setting of the caller;
it issues the workload's requests one after another.  Repetitions
continue while one more fits in ``--seconds`` (at least three), and each
end-to-end metric is the median over them.  Before each repetition,
set-up-only children (imports and trace generation, nothing
simulated) add samples to ``setup_s``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json;
``--trace 1`` alternates untraced and traced repetitions and prints
the per-layer metrics, which come only from the traced children.  The
last line of standard output is the JSON result; correctness means
every request's stats digest equals the one recorded in
``perfbench/digests.json`` for the seed's input.  An incorrect run
still prints its result, and exits 1.

Other modes:

* ``--steady N``: N runs with seeds ``seed .. seed+N-1``; prints each
  end-to-end metric's median, quartiles and relative IQR and flags any
  spread beyond its bound (exit 1).
* ``--record-digests``: re-record the expected digests of the workload
  (or of every workload) on all four inputs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_totals
from spec import (
    DIGESTS, HERE, INPUTS, ROOT, WORKLOADS, child_env, input_for_seed,
    load_digests, repro_keys, score,
)

BENCHMARK = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"
CHILD = HERE / "child.py"
MIN_REPS = 3
#: Set-up-only children per measured repetition: ``setup_s`` is the
#: median over these and the repetitions' own set-ups.
SETUPS_PER_REP = 1
MIN_TRACED_PAIRS = 2
#: A run must end within 180 s; no repetition starts that could cross this.
RUN_BUDGET_S = 160.0
CHILD_TIMEOUT_S = 150.0


# --- children ---------------------------------------------------------------


def spawn(mode: str, name: str, input_name: str, work: Path,
          workload=None) -> dict | None:
    """Run one child in ``work`` (created empty); ``None`` if it failed."""
    workload = workload or WORKLOADS[name]
    if work.exists():
        shutil.rmtree(work)
    (work / "tmp").mkdir(parents=True)
    out = work / "result.json"
    job = work / "job.json"
    payload = {
        "mode": mode, "workload": workload.to_json(), "input": input_name,
        "out": str(out),
    }
    payload["t0"] = time.monotonic()
    job.write_text(json.dumps(payload))
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(job)],
            env=child_env(work, workload), cwd=work, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {mode} child of {name} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.exists():
        tail = proc.stderr.strip().splitlines()[-5:]
        print(f"perfbench: {mode} child of {name} failed "
              f"(exit {proc.returncode}): " + " | ".join(tail),
              file=sys.stderr)
        return None
    result = json.loads(out.read_text())
    if "spans" in result:
        result["spans"] = json.loads(Path(result["spans"]).read_text())
    return result


def repeat(seconds: float, minimum: int, step) -> list:
    """Call ``step()`` at least ``minimum`` times, then again while the
    call should end within ``seconds``; never start a call that could
    overrun the run budget."""
    started = time.monotonic()
    out = []
    longest = 0.0
    while (len(out) < minimum
           or time.monotonic() - started + longest <= seconds):
        if time.monotonic() - started + longest > RUN_BUDGET_S:
            break
        begun = time.monotonic()
        out.append(step())
        longest = max(longest, time.monotonic() - begun)
    return out


# --- scoring ----------------------------------------------------------------


class Outcome:
    """Operations attempted and failed across every child of a run."""

    def __init__(self, name: str, expected: dict[str, str]):
        self.expected = expected
        self.allowed = repro_keys(child_env(OUT, WORKLOADS[name]))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._sim = None

    def add(self, result: dict | None) -> None:
        self.attempted += max(1, len(self.expected))
        if not self.expected:
            self.failed += 1
            self.problems.append("no recorded digests")
            return
        if result is None:
            self.failed += len(self.expected)
            return
        failed = score(self.expected, result["digests"])
        if result["checks"]:
            self.problems.extend(result["checks"])
            failed = len(self.expected)
        if not self.isolated(result):
            failed = len(self.expected)
        self.failed += failed
        sim = (result["miss_rate"], result["ipc"], result["counts"])
        if self._sim is None:
            self._sim = sim
        elif sim != self._sim:
            self.problems.append("simulated metrics differ between children")

    def add_setup(self, result: dict | None) -> None:
        """A set-up-only child: it simulates nothing, so it is no
        operation, but it must run and be isolated like the others."""
        if result is None:
            self.problems.append("set-up child failed")
        else:
            self.isolated(result)

    def isolated(self, result: dict) -> bool:
        if result["repro_env"] == self.allowed:
            return True
        self.problems.append(f"child saw REPRO_* {result['repro_env']}")
        return False

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems and self.attempted > 0

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.failed / self.attempted


# --- metrics ----------------------------------------------------------------


def end_to_end(reps: list[dict], setups: list[dict],
               outcome: Outcome) -> dict[str, float]:
    done = [r for r in reps if r is not None]
    if not done:
        return {"ok_frac": outcome.ok_frac}
    return {
        "lookups_per_s": statistics.median(
            r["lookups"] / r["run_s"] for r in done
        ),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in done),
        "setup_s": statistics.median(
            r["setup_s"] for r in done + [s for s in setups if s is not None]
        ),
        "ok_frac": outcome.ok_frac,
        "sim.uop_miss_rate": done[0]["miss_rate"],
        "sim.ipc": done[0]["ipc"],
    }


def per_layer(traced: dict) -> dict[str, float]:
    """Layer metrics of one traced child."""
    totals = layer_totals(traced["spans"])

    def own(*names: str) -> float:
        return sum(totals[n]["self_s"] for n in names if n in totals)

    def growth(*names: str) -> float:
        return max(
            (totals[n]["rss_growth_mib"] for n in names if n in totals),
            default=0.0,
        )

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    counters = traced["counters"]
    trace_s = own("workloads.trace")
    fused_s = own("frontend.fused")
    solo_s = own("frontend.solo")
    metrics = {
        "workloads.trace_s": trace_s,
        "workloads.trace_lookups_per_s": rate(traced["trace_lookups"], trace_s),
        "workloads.traces": totals.get("workloads.trace", {}).get("calls", 0),
        "offline.build_s": own("offline.build"),
        "offline.build_rss_growth_mib": growth("offline.build"),
        "profiling.profile_s": own("profiling.profile"),
        "profiling.thermometer_s": own("profiling.thermometer"),
        "profiling.replays": counters["replays"],
        "profiling.requests": counters["profile_requests"],
        "frontend.fused_s": fused_s,
        "frontend.fused_lookups_per_s": rate(counters["fused_lookups"], fused_s),
        "frontend.solo_s": solo_s,
        "frontend.solo_lookups_per_s": rate(counters["solo_lookups"], solo_s),
        "frontend.sim_rss_growth_mib": growth("frontend.fused", "frontend.solo"),
        "frontend.fallbacks": traced["fallbacks"],
        "frontend.arms": counters["arms"],
        "harness.probe_s": own("harness.probe"),
        "harness.store_s": own("harness.store"),
        "harness.glue_s": own("harness.batch"),
        "ledger.journal_s": own("ledger.journal"),
        "harness.unattributed_s": traced["wall_s"] - sum(
            entry["self_s"] for entry in totals.values()
        ),
    }
    for name, value in traced["counts"].items():
        prefix = "frontend" if name in ("path_switches", "decoder_uops") \
            else "uopcache"
        metrics[f"{prefix}.{name}"] = value
    return metrics


def traced_metrics(pairs: list[tuple]) -> dict[str, float]:
    """Medians over the (untraced, traced) pairs where both children ran."""
    complete = [(p, t) for p, t in pairs if p is not None and t is not None]
    if not complete:
        return {}
    rows = [per_layer(t) for _, t in complete]
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    plain_wall = statistics.median(p["wall_s"] for p, _ in complete)
    traced_wall = statistics.median(t["wall_s"] for _, t in complete)
    out["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return out


def print_layers(plain: dict, traced: dict, overhead: float) -> None:
    """Per-layer self times of one traced child, reconciled with its wall
    time and with its untraced partner's."""
    totals = layer_totals(traced["spans"])
    for name, entry in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<24} self {entry['self_s']:10.4f} s  "
              f"calls {entry['calls']:4d}")
    attributed = sum(entry["self_s"] for entry in totals.values())
    print(f"  traced wall {traced['wall_s']:.4f} s = spans {attributed:.4f} s"
          f" + unattributed {traced['wall_s'] - attributed:.4f} s;"
          f" untraced wall {plain['wall_s']:.4f} s;"
          f" overhead (medians) {overhead:+.4f}")


# --- reporting --------------------------------------------------------------


def git_hash() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_info(numpy_version: str | None) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu_model": model,
        "python": platform.python_version(), "numpy": numpy_version,
        "git": git_hash(),
    }


def catalog() -> dict[str, dict]:
    spec = json.loads(BENCHMARK.read_text())
    return {
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


def run_once(args) -> int:
    name = args.workload
    input_name = input_for_seed(args.seed)
    expected = load_digests().get(name, {}).get(input_name, {})
    outcome = Outcome(name, expected)
    stamp = f"{name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work = OUT / "work" / stamp
    counter = itertools.count()

    def child(mode: str) -> dict | None:
        result = spawn(mode, name, input_name,
                       work / f"{next(counter)}-{mode}")
        if mode == "setup":
            outcome.add_setup(result)
        else:
            outcome.add(result)
        return result

    setups: list[dict | None] = []

    def measured() -> dict | None:
        setups.extend(child("setup") for _ in range(SETUPS_PER_REP))
        return child("plain")

    try:
        if args.trace:
            pairs = repeat(args.seconds, MIN_TRACED_PAIRS,
                           lambda: (child("plain"), child("traced")))
            metrics = traced_metrics(pairs)
            reps = [r for pair in pairs for r in pair]
            for plain, traced in pairs:
                if plain and traced and plain["digests"] != traced["digests"]:
                    outcome.problems.append("traced digests != untraced")
            if metrics:
                plain, traced = next(p for p in reversed(pairs) if all(p))
                print_layers(plain, traced, metrics["trace.overhead_frac"])
        else:
            reps = repeat(args.seconds, MIN_REPS, measured)
            metrics = end_to_end(reps, setups, outcome)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = catalog()["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != set(wanted):
        outcome.problems.append(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(wanted))}"
        )
    for problem in outcome.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    done = [r for r in reps if r is not None]
    host = host_info(done[0]["numpy"] if done else None)
    record = {
        "workload": name, "seed": args.seed, "input": input_name,
        "trace": args.trace, "host": host, "problems": outcome.problems,
        "reps": [
            {k: r[k] for k in ("setup_s", "run_s", "wall_s", "peak_rss_mib")
             if k in r} for r in done
        ],
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stamp}.json").write_text(json.dumps(
        dict(record, metrics=metrics), indent=1
    ))
    print("host: " + json.dumps(host))
    print(f"input: {input_name}  repetitions: {len(reps)}"
          f"  set-up-only children: {len(setups)}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            key: {"value": value, "unit": wanted[key]["unit"]}
            for key, value in metrics.items() if key in wanted
        },
    }))
    return 0 if outcome.correct else 1


# --- steadiness and digest recording ---------------------------------------


def steady(args) -> int:
    """Run ``args.steady`` whole runs and report each metric's spread."""
    wanted = catalog()["end_to_end"]
    values: dict[str, list[float]] = {name: [] for name in wanted}
    bad = 0
    for seed in range(args.seed, args.seed + args.steady):
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            stdout, _ = proc.communicate()
        except BaseException:
            proc.terminate()  # lets the run reap its own child
            proc.wait()
            raise
        lines = stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines \
            else None
        if result is None or not result["correct"]:
            bad += 1
            print(f"seed {seed}: run failed or incorrect", file=sys.stderr)
            continue
        for name, entry in result["metrics"].items():
            values[name].append(entry["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
        ), flush=True)
    summary = {}
    over = 0
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'rel_iqr':>8} {'bound':>6}")
    for name, series in values.items():
        if len(series) < 2:
            continue
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = wanted[name]["bound"]
        flag = ""
        if spread > bound:
            flag, over = "OVER BOUND", over + 1
        elif spread > bound / 3:
            flag = "above bound/3"
        print(f"{name:<20} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bound:>6} {flag}")
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "rel_iqr": spread, "bound": bound, "n": len(series)}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"steady-{args.workload}-{int(time.time())}.json").write_text(
        json.dumps({"workload": args.workload, "seeds": args.steady,
                    "first_seed": args.seed, "seconds": args.seconds,
                    "failed_runs": bad, "metrics": summary}, indent=1)
    )
    return 1 if over or bad else 0


def record_digests(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    digests = load_digests()
    for name in names:
        for input_name in INPUTS:
            work = OUT / "work" / f"record-{name}-{input_name}"
            result = spawn("plain", name, input_name, work)
            shutil.rmtree(work, ignore_errors=True)
            if result is None:
                return 1
            digests.setdefault(name, {})[input_name] = result["digests"]
            print(f"{name}/{input_name}: {len(result['digests'])} digests")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind like ctrl-C: subprocess.run then kills and
    # reaps the running child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() \
            or not BENCHMARK.is_file():
        print("perfbench: run from a repository checkout (src/repro and "
              "BENCHMARK.json are missing)", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.steady:
        return steady(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
