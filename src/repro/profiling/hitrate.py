"""Per-PW hit-rate collection (STEP 3-5 of the FURBYS procedure).

The trace is replayed under an offline policy (FLACK by default; Belady
or FOO for the Figure 15 sensitivity study) with per-PW recording
enabled; each PW's whole-execution hit rate — micro-ops served from the
micro-op cache over micro-ops requested — becomes the input to the
Jenks grouping.
"""

from __future__ import annotations

from .. import stagetimer
from ..config import SimulationConfig
from ..core.trace import Trace
from ..errors import ProfilingError
from ..frontend.pipeline import FrontendPipeline
from ..offline.belady import BeladyPolicy
from ..offline.flack import FLACKPolicy
from ..offline.foo import FOOPolicy
from ..policies.thermometer import COLD, HOT, WARM
from ..uopcache.replacement import ReplacementPolicy
from .jenks import jenks_breaks, jenks_group

#: Offline decision source -> the evaluated policy arm (a
#: ``RunRequest.policy`` name) that builds the same policy as
#: :func:`make_profile_policy`.  A batch that simulates that arm on the
#: training trace gets the profiling replay from the arm's own run.
PROFILE_SOURCE_ARMS = {"flack": "flack", "belady": "belady", "foo": "foo-ohr"}

#: Offline decision sources accepted by the profiling pipeline (Fig. 15
#: compares them; FLACK is ~3-4% better than the alternatives).
PROFILE_SOURCES = tuple(PROFILE_SOURCE_ARMS)


def make_profile_policy(
    source: str, trace: Trace, config: SimulationConfig
) -> ReplacementPolicy:
    """Instantiate the offline policy used to generate profile decisions.

    Each source builds exactly what its :data:`PROFILE_SOURCE_ARMS` arm
    builds (default FLACK features; FOO with the OHR objective).
    """
    if source == "flack":
        return FLACKPolicy(trace, config.uop_cache)
    if source == "belady":
        return BeladyPolicy(trace)
    if source == "foo":
        return FOOPolicy(trace, config.uop_cache)
    raise ProfilingError(
        f"unknown profile source {source!r}; expected one of {PROFILE_SOURCES}"
    )


def collect_hit_stats(
    trace: Trace,
    config: SimulationConfig,
    *,
    source: str = "flack",
    policy: ReplacementPolicy | None = None,
) -> dict[int, tuple[int, int]]:
    """Raw per-PW ``(uops hit, uops requested)`` counts from one replay.

    This is the expensive profiling artifact — a full simulation under
    an offline policy — and the form the shared artifact store
    (:mod:`repro.harness.artifacts`) caches: the counts carry the
    sample weights that hit *rates* discard, which profile merging
    needs.  ``policy`` overrides ``source`` when provided (tests use
    this to profile under arbitrary policies).
    """
    if policy is None:
        policy = make_profile_policy(source, trace, config)
    with stagetimer.timed("profile_sim"):
        pipeline = FrontendPipeline(config, policy, record_hit_rates=True)
        pipeline.run(trace)
    assert pipeline.pw_hit_stats is not None
    return {
        start: (hit, total)
        for start, (hit, total) in pipeline.pw_hit_stats.items()
    }


def collect_hit_rates(
    trace: Trace,
    config: SimulationConfig,
    *,
    source: str = "flack",
    policy: ReplacementPolicy | None = None,
) -> dict[int, float]:
    """Whole-execution hit rate per PW start under offline decisions.

    ``policy`` overrides ``source`` when provided (tests use this to
    profile under arbitrary policies).
    """
    stats = collect_hit_stats(trace, config, source=source, policy=policy)
    return {
        start: (hit / total if total else 0.0)
        for start, (hit, total) in stats.items()
    }


def three_class_profile(
    trace: Trace,
    config: SimulationConfig,
    *,
    source: str = "flack",
    hit_rates: dict[int, float] | None = None,
) -> dict[int, int]:
    """Thermometer's hot/warm/cold classification from profiled hit rates.

    Thermometer [82] divides entries into three temperature classes by
    profiled hit rate; this reuses the same profiling run as FURBYS but
    collapses the clustering to three Jenks classes.  ``hit_rates``
    supplies already-collected rates (the shared artifact store uses
    this to skip the replay); when omitted they are profiled here.
    """
    rates = hit_rates
    if rates is None:
        rates = collect_hit_rates(trace, config, source=source)
    if not rates:
        return {}
    breaks = jenks_breaks(list(rates.values()), 3)
    mapping = {0: COLD, 1: WARM, 2: HOT}
    return {
        start: mapping[min(2, jenks_group(rate, breaks))]
        for start, rate in rates.items()
    }
