"""Shared infrastructure for the specialized simulation kernels.

Both vectorized kernels (:mod:`repro.frontend.simd` for the online
policies, :mod:`repro.frontend.simd_offline` for the offline and
profile-guided families) lean on the same three mechanisms:

* :func:`gc_paused` — run a column-building pass with the cyclic
  collector paused (the builds materialize millions of tracked
  containers at once; generation scans over live survivors would turn
  an O(n) build into something closer to O(n^2 / threshold));
* :func:`spec_code` — compile transformed kernel source to a code
  object, marshal-cached on disk like a ``.pyc`` under the repo-level
  result cache knobs (``REPRO_CACHE=1`` + ``REPRO_CACHE_DIR``);
* :func:`compile_flagged` — derive a specialized variant of a generic
  segment method by baking run-constant boolean flags in as literals,
  so the bytecode compiler drops every dead cross-kind branch.

Keeping them here means the offline specializations reuse — rather
than copy — the machinery the online kernel established.
"""

from __future__ import annotations

import gc as _gc
import os


def gc_paused(fn):
    """Run ``fn`` with the cyclic collector paused, restoring it after.

    Building the columns materializes millions of tracked containers at
    once; with the collector live, each generation pass re-scans every
    survivor while the build keeps allocating, which turns an O(n) build
    into something closer to O(n^2 / threshold) at 1M-lookup scale.  The
    column data is acyclic, so pausing costs nothing in reclaimed memory.
    """
    enabled = _gc.isenabled()
    if enabled:
        _gc.disable()
    try:
        return fn()
    finally:
        if enabled:
            _gc.enable()


def spec_code(src: str, prefix: str = "segment"):
    """Code object for a transformed source, disk-cached like a .pyc.

    Compiling a specialized variant costs ~25ms; a cold process pays it
    once per flag combination.  When the repo-level result cache is on
    (``REPRO_CACHE=1`` + ``REPRO_CACHE_DIR``, the same knobs the trace
    store uses) the bytecode is marshalled to disk keyed by the hash of
    the transformed source — exactly the ``__pycache__`` contract, so
    any source or flag change invalidates naturally.  ``prefix`` keeps
    the online and offline kernels' entries side by side.
    """
    import hashlib
    import marshal
    from importlib.util import MAGIC_NUMBER

    cache_path = None
    cache_root = (os.environ.get("REPRO_CACHE_DIR")
                  if os.environ.get("REPRO_CACHE") == "1" else None)
    if cache_root:
        digest = hashlib.sha256(src.encode()).hexdigest()[:16]
        cache_path = os.path.join(
            cache_root, "simd_spec", f"{prefix}-{digest}.marshal")
        try:
            with open(cache_path, "rb") as fh:
                if fh.read(len(MAGIC_NUMBER)) == MAGIC_NUMBER:
                    return marshal.loads(fh.read())
        except (OSError, ValueError, EOFError):
            pass
    code = compile(src, f"<simd-specialized-{prefix}>", "exec")
    if cache_path:
        try:
            os.makedirs(os.path.dirname(cache_path), exist_ok=True)
            tmp = f"{cache_path}.tmp{os.getpid()}"
            with open(tmp, "wb") as fh:
                fh.write(MAGIC_NUMBER)
                fh.write(marshal.dumps(code))
            os.replace(tmp, cache_path)
        except OSError:  # pragma: no cover - cache dir not writable
            pass
    return code


def compile_flagged(method, spec_names, flags: dict, *, new_name: str,
                    namespace: dict, prefix: str, template: list[str]):
    """Compile ``method`` with the ``spec_names`` flags baked in.

    The generic loop assigns each flag once and branches on it per
    lookup/event.  Rewriting the flag names to literals lets the
    bytecode compiler drop every dead branch outright (``if False``
    blocks compile to nothing, ``True and x`` reduces to ``x``), so
    each policy kind runs a loop with no cross-kind tests left in it.
    The generic method stays the single source of truth: variants are
    derived from its source at first use and behave identically.
    ``template`` is the caller's one-element source cache (the
    ``inspect.getsource`` extraction is paid once per process).
    """
    import inspect
    import re
    import textwrap

    if not template:
        template.append(textwrap.dedent(inspect.getsource(method)))
    src = template[0]
    # Drop the flag assignments first (they would otherwise turn into
    # assignments *to* a literal), then substitute the bare names.
    for name in spec_names:
        src = re.sub(rf"^[ \t]*{name} = .*\n", "", src, count=1,
                     flags=re.MULTILINE)
    for name in spec_names:
        src = re.sub(rf"\b{name}\b", repr(bool(flags[name])), src)
    src = src.replace(f"def {method.__name__}(", f"def {new_name}(", 1)
    ns = dict(namespace)
    exec(spec_code(src, prefix), ns)
    return ns[new_name]
