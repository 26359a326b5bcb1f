"""Arm-fused multi-policy simulation sweeps.

Every figure in the paper compares many replacement policies over the
*same* trace.  The per-arm kernels (:mod:`repro.frontend.simd` and
:mod:`repro.frontend.simd_offline`) already vectorize one (pipeline,
trace) pass, but a K-policy figure still pays the column builds, the
compiled-segment warmup, the GC bookkeeping and (when streaming) the
window decode K times per app.  This module advances *all* requested
arms in a single pass over the packed columns, sharing those costs
across the group.

Within each window (the whole trace unless streaming) every arm
advances via its **own** flag-specialized solo segment, one arm after
another ("striped").  Each arm's inner loop stays small enough for the
CPU's instruction and inline-cache working set, which measures fastest
on the paper's miss-heavy data-center traces, and each arm runs the
exact code its solo kernel runs on its own state, so per-arm
bit-identity against the solo kernels holds by construction.  What the
group shares is the column builds, the stage timers and the one-shot
GC pause.

Streaming: with ``REPRO_SIM_STREAM_WINDOW=<n>`` the sweep consumes the
trace in bounded windows — :func:`repro.frontend.simd._build_columns`
builds each window's derived columns on demand (``base``-relative
indexing keeps every read local) so peak memory stays flat and
10M-lookup traces become a supported figure scale.

``REPRO_SIM_FUSE=0`` disables the fused path end-to-end; unsupported
arm mixes raise :class:`FusedUnsupported` and the caller falls back to
the per-arm path, counting ``sim_fallback:fused:<reason>``.
"""

from __future__ import annotations

import gc as _gc
import os

from .. import stagetimer
from ..core.stats import SimulationStats
from ._specialize import gc_paused as _gc_paused
from .simd import _Kernel, _build_columns, kernel_kind, sim_fastpath_enabled
from .simd_offline import _OfflineKernel

#: Windows below this are all rebuild overhead; the knob is clamped up.
_MIN_STREAM_WINDOW = 4096

#: Max arms per fused group (every arm's policy state is held at once;
#: a full figure is 14 arms).
MAX_ARMS = 32


class FusedUnsupported(Exception):
    """This arm mix cannot run fused; ``reason`` feeds the fallback
    counter (``sim_fallback:fused:<reason>``)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def fuse_enabled() -> bool:
    """Whether the fused sweep may be used at all."""
    return (os.environ.get("REPRO_SIM_FUSE", "1") != "0"
            and os.environ.get("REPRO_SIM_SPECIALIZE", "1") != "0"
            and sim_fastpath_enabled())


def stream_window() -> int:
    """Streaming window size in lookups (0 = stream off)."""
    try:
        w = int(os.environ.get("REPRO_SIM_STREAM_WINDOW", "0") or "0")
    except ValueError:
        return 0
    if w <= 0:
        return 0
    return max(w, _MIN_STREAM_WINDOW)


# --- orchestration ------------------------------------------------------------


def _make_kernel(pipeline, trace, warmup, *, columns=None, n_total=None):
    if kernel_kind(pipeline.policy) is not None:
        return _Kernel(pipeline, trace, warmup,
                       columns=columns, n_total=n_total)
    return _OfflineKernel(pipeline, trace, warmup,
                          columns=columns, n_total=n_total)


def _window_columns(pipeline, trace, lo: int, hi: int) -> dict:
    """Windowed derived columns under this pipeline's geometry."""
    config = pipeline.config
    uc = config.uop_cache
    return _gc_paused(lambda: _build_columns(
        trace,
        n_sets=uc.sets,
        uops_per_entry=uc.uops_per_entry,
        line_bytes=config.icache.line_bytes,
        decode_width=config.core.decode_width,
        btb_n_sets=pipeline.btb._n_sets,
        ic_n_sets=config.icache.sets,
        delay=uc.insertion_delay,
        set_index_fn=pipeline.uop_cache._set_index,
        lo=lo, hi=hi,
    ))


def _segment_bounds(n: int, warmup: int, window: int) -> list[int]:
    """Cut points: trace ends, the warmup boundary, window multiples."""
    cuts = {0, n}
    if 0 < warmup < n:
        cuts.add(warmup)
    if window:
        cuts.update(range(window, n, window))
    return sorted(cuts)


def run_group(pipelines, trace, warmup: int) -> list[SimulationStats]:
    """Advance all arms over one trace in a single fused pass.

    Every pipeline must share the trace-shaping config (geometry and
    perfect-structure flags — policy/hints may differ freely) and pass
    :func:`repro.frontend.simd.fallback_reason`; the caller is
    responsible for both, plus the :func:`fuse_enabled` gate.  Returns
    one finalized :class:`SimulationStats` per pipeline, bit-identical
    to running each arm through its solo kernel.
    """
    if not pipelines:
        return []
    if len(pipelines) > MAX_ARMS:
        raise FusedUnsupported("too_many_arms")
    c0 = pipelines[0].config
    for p in pipelines[1:]:
        if p.config != c0:
            raise FusedUnsupported("config_mismatch")

    # The stage timers cover everything from column build to finalize —
    # the same span the solo path counts under ``frontend_sim`` (once
    # per arm there, once per group here), so stage-level comparisons
    # between the two paths are apples-to-apples.
    with stagetimer.timed("frontend_sim"), stagetimer.timed("sim_fused"):
        n = len(trace)
        window = stream_window()
        bounds = _segment_bounds(n, warmup, window)

        if window:
            cols = _window_columns(pipelines[0], trace, bounds[0], bounds[1])
        else:
            cols = None  # kernels share the memoized full-trace columns
        kernels = [_make_kernel(p, trace, warmup, columns=cols, n_total=n)
                   for p in pipelines]
        for k in kernels:
            if isinstance(k, _OfflineKernel):
                k._bind_specialized()

        segments = []
        for k in kernels:
            spec = k._specialized()
            segments.append(spec.__get__(k) if spec is not None
                            else k._segment)

        gc_was_enabled = _gc.isenabled()
        if gc_was_enabled:
            _gc.disable()
        try:
            for lo, hi in zip(bounds, bounds[1:]):
                if window and lo != bounds[0]:
                    cols = _window_columns(pipelines[0], trace, lo, hi)
                    for k in kernels:
                        k.cols = cols
                        k.col_base = cols["base"]
                        k.hist = cols["hist"]
                for seg in segments:
                    seg(lo, hi)
                if hi == warmup:
                    for k in kernels:
                        k.pipeline.stats = SimulationStats()
            for k in kernels:
                k._drain(n)
        finally:
            if gc_was_enabled:
                _gc.enable()

        results = []
        for k in kernels:
            k._sync_back()
            results.append(k.pipeline._finalize(n))
        return results
