"""Workload definitions, seed-to-input mapping, child environment, scoring.

This module imports nothing from ``repro`` so the parent process stays
light; only the measured children import the simulator.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: Registry inputs every app defines (repro.workloads.apps); ``--seed``
#: picks one of them for every app of the workload.
INPUTS = ("default", "alt-seed", "mixed-load", "long-phase")


def input_for_seed(seed: int) -> str:
    return INPUTS[seed % len(INPUTS)]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the requests its measured run issues.

    ``kind`` is ``"sweep"`` (one ``run_batch`` call over every app x
    policy) or ``"figure"`` (the Figure 8 miss-reduction matrix through
    ``repro.harness.experiments`` under an ``ExperimentRun``; its
    policies are fixed by the figure, ``policies`` is ignored).
    ``trace_len`` ``None`` means the registry default.
    """

    kind: str
    apps: tuple[str, ...]
    policies: tuple[str, ...] = ()
    trace_len: int | None = None

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, payload: dict) -> "Workload":
        return cls(
            kind=payload["kind"],
            apps=tuple(payload["apps"]),
            policies=tuple(payload["policies"]),
            trace_len=payload["trace_len"],
        )


WORKLOADS = {
    # The online kernel (simd) over one long trace, all arms fused.
    "online-sweep": Workload(
        "sweep", ("kafka",), ("lru", "srrip", "ghrp", "random"), 150_000
    ),
    # Offline policy build, profiling replay and the offline kernel.
    "offline-sweep": Workload(
        "sweep", ("kafka",), ("belady", "flack", "furbys", "thermometer"),
        150_000,
    ),
    # Many short requests: per-call costs, the fallback loop, the
    # result/profile caches and the ledger.  The apps are the two ends
    # of the suite's LRU miss-rate range (python 0.49, wordpress 0.75).
    "figure-cold": Workload("figure", ("python", "wordpress")),
}


def request_id(app: str, policy: str) -> str:
    return f"{app}/{policy}"


def child_env(work: Path, workload: Workload) -> dict[str, str]:
    """Environment of a measured child.

    Every ``REPRO_*`` variable of the caller is dropped, so settings
    such as ``REPRO_SIM_FUSE=0`` or ``REPRO_TRACE_LEN`` cannot change
    what is measured; the run gets its own empty cache directory and
    ledger, one job, and at most one numeric-library thread.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        TMPDIR=str(work / "tmp"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_JOBS="1",
        REPRO_CACHE_DIR=str(work / "cache"),
        REPRO_LEDGER=str(work / "ledger.sqlite"),
    )
    if workload.kind == "figure":
        env["REPRO_APPS"] = ",".join(workload.apps)
    return env


def repro_keys(env) -> list[str]:
    """The ``REPRO_*`` variable names of an environment, sorted."""
    return sorted(k for k in env if k.startswith("REPRO_"))


def load_digests() -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text())


def score(expected: dict[str, str], got: dict[str, str] | None) -> int:
    """Failed operations of one child: every expected request whose
    digest is missing or differs, plus any request not expected."""
    if got is None:
        return len(expected)
    failed = sum(1 for rid, digest in expected.items() if got.get(rid) != digest)
    return failed + sum(1 for rid in got if rid not in expected)
