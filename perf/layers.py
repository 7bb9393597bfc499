"""The layer map, and the fold that turns a cProfile run into per-layer
self time.

A *layer* is a set of modules under ``src/repro``.  A layer's self time
is the wall time during which the innermost ``repro.*`` frame on the
stack belongs to one of its modules, so NumPy/BLAS/stdlib time is
charged to the layer that called it.  ``pstats`` keeps, for every
caller -> callee edge, the callee's own time under that caller, so a
foreign function's time goes to its ``repro`` callers exactly; only when
a foreign function is itself called by foreign code (NumPy helpers
calling NumPy) is its time passed further up in proportion to the
cumulative time of the intermediate function's caller edges.
"""

from __future__ import annotations

LAYERS = (
    "training",
    "core",
    "parallel",
    "models.attention",
    "models.generate",
    "models.layers",
    "runtime.memory",
    "runtime.collectives",
    "runtime.trace",
    "runtime.executor",
    "serving",
    "obs",
    "other",
)

#: Whole packages (first path component under ``src/repro``).
_PACKAGES = {
    "training": "training",
    "core": "core",
    "parallel": "parallel",
    "models": "models.layers",
    "serving": "serving",
    "obs": "obs",
    "telemetry": "obs",
    "faults": "obs",
    "profiler": "obs",
    "bench": "other",
    "common": "other",
    "experiments": "other",
    "hardware": "other",
    "perfmodel": "other",
}

#: Single files; these win over ``_PACKAGES``.  ``runtime/`` is listed
#: file by file on purpose: a new runtime module has no layer until
#: someone decides which one it belongs to (``test_perf.py`` fails).
_FILES = {
    "__init__.py": "other",
    "__main__.py": "other",
    "cli.py": "other",
    "models/attention.py": "models.attention",
    "common/einsum_cache.py": "models.attention",
    "models/generate.py": "models.generate",
    "runtime/__init__.py": "other",
    "runtime/memory.py": "runtime.memory",
    "runtime/arena.py": "runtime.memory",
    "runtime/tensor.py": "runtime.memory",
    "runtime/device.py": "runtime.memory",
    "runtime/collectives.py": "runtime.collectives",
    "runtime/trace.py": "runtime.trace",
    "runtime/trace_analysis.py": "runtime.trace",
    "runtime/executor.py": "runtime.executor",
    "runtime/shuttle.py": "runtime.executor",
}

UNATTRIBUTED = "unattributed"
_MARKER = "/src/repro/"


def layer_of(module_path: str) -> str | None:
    """Layer of a module given as a posix path relative to ``src/repro``
    (``"runtime/memory.py"``); ``None`` when the map does not place it."""
    if module_path in _FILES:
        return _FILES[module_path]
    package, sep, _ = module_path.partition("/")
    return _PACKAGES.get(package) if sep else None


def _layer_of_file(filename: str) -> str | None:
    """Layer of a profiled code object's file; ``None`` for foreign code."""
    at = filename.rfind(_MARKER)
    if at < 0:
        return None
    return layer_of(filename[at + len(_MARKER):]) or UNATTRIBUTED


def fold_profile(stats: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Fold ``pstats.Stats(profile).stats`` into ``(self_seconds,
    calls)`` per layer.  ``self_seconds`` also carries
    :data:`UNATTRIBUTED` (time no ``repro`` frame encloses, or in a
    ``repro`` module the map does not place); its values sum to the
    profile's total time."""
    layer = {func: _layer_of_file(func[0]) for func in stats}
    seconds = dict.fromkeys((*LAYERS, UNATTRIBUTED), 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    memo: dict = {}
    active: set = set()

    def owners(func) -> dict[str, float]:
        """Share of a foreign ``func``'s invocations enclosed by each
        layer, by the cumulative time of its caller edges.  Callers
        already being resolved (foreign recursion) are left out."""
        if func in memo:
            return memo[func]
        active.add(func)
        shares: dict[str, float] = {}
        edges = {c: e[3] for c, e in stats[func][4].items() if c not in active}
        total = sum(edges.values())
        for caller, weight in edges.items():
            if total > 0:
                spread(shares, caller, weight / total)
        active.discard(func)
        memo[func] = shares or {UNATTRIBUTED: 1.0}
        return memo[func]

    def spread(into: dict, caller, amount: float) -> None:
        if layer[caller] is not None:
            into[layer[caller]] = into.get(layer[caller], 0.0) + amount
        else:
            for name, share in owners(caller).items():
                into[name] = into.get(name, 0.0) + amount * share

    for func, (_, ncalls, own, _, callers) in stats.items():
        if layer[func] is not None:
            seconds[layer[func]] += own
            if layer[func] != UNATTRIBUTED:
                calls[layer[func]] += ncalls
            continue
        # The callee's own time is known per caller edge; a recursive
        # foreign function keeps part of it on its self edge, so scale
        # the other edges up and nothing is dropped.
        edge_own = {c: e[2] for c, e in callers.items() if c != func}
        total = sum(edge_own.values())
        if total <= 0:
            seconds[UNATTRIBUTED] += own
            continue
        for caller, amount in edge_own.items():
            spread(seconds, caller, own * amount / total)
    return seconds, calls
