"""In-memory span recorder for the traced benchmark pass.

Spans are recorded around calls into each layer's public functions. The
wrappers are installed from the benchmark's side: a function bound by
``from .x import f`` lives under several module names, so every module
attribute that *is* the original function gets the wrapper. Nothing under
``src/`` knows about tracing.

A span is ``[name, start, end, parent]``: the name is the layer, the parent
an index into the same list (``-1`` for a root); all spans of one pass share
the tracer's ``pass_id``.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

__all__ = ["Tracer", "classify_builds", "has_ancestor", "layer_totals", "self_times"]


class Tracer:
    """Records spans and per-call observations for one pass."""

    def __init__(self, pass_id: str) -> None:
        self.pass_id = pass_id
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.values: dict[str, float] = {}
        self.builds: list[tuple] = []
        self.keep_alive: list = []  # objects whose id() a record holds
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- recording

    def wrap(self, fn, name: str, on_result=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    # -- installation

    def patch_function(self, modules, fn, name: str, on_result=None) -> None:
        """Replace ``fn`` under every name it is bound to in ``modules``."""
        traced = self.wrap(fn, name, on_result)
        found = False
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, traced)
                    found = True
        if not found:
            raise LookupError(f"{name}: function not bound in any traced module")

    def patch_method(self, cls, attr: str, name: str, on_result=None) -> None:
        self._set(cls, attr, self.wrap(cls.__dict__[attr], name, on_result))

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def rows(self):
        """Spans as (pass_id, index, name, start, end, parent) rows."""
        for i, (name, start, end, parent) in enumerate(self.spans):
            yield self.pass_id, i, name, start, end, parent


# ---------------------------------------------------------------------------
# analysis (pure functions, unit-tested)
# ---------------------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it covered by its children."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        clipped = sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children[i]
        )
        for lo, hi in clipped:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(max(0.0, (end - start) - covered))
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per-layer ``calls``, inclusive ``s`` and exclusive ``self_s``.

    A span's name is its layer. Inclusive time counts only the outermost
    span of a layer (no ancestor of the same layer), so a layer calling
    itself is not counted twice; self time is summed over every span.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
    )
    for i, (name, start, end, _) in enumerate(spans):
        tot = out[name]
        tot["calls"] += 1
        tot["self_s"] += selfs[i]
        if not has_ancestor(spans, i, name):
            tot["s"] += end - start
    return dict(out)


def has_ancestor(spans, i: int, name: str) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def classify_builds(builds) -> dict[str, int]:
    """Duplicates and rebuilds among table builds, in build order.

    Each build is ``(profile_key, content, settings, k_max)``. A duplicate
    matches an earlier build's content, settings and ``k_max`` (so its table
    is bit-for-bit one already built); a rebuild is a build for a profile
    object already built at a smaller ``k_max``.
    """
    seen: set = set()
    largest: dict = {}
    duplicates = rebuilds = 0
    for profile_key, content, settings, k_max in builds:
        key = (content, settings, k_max)
        duplicates += key in seen
        seen.add(key)
        if profile_key in largest and largest[profile_key] < k_max:
            rebuilds += 1
        largest[profile_key] = max(k_max, largest.get(profile_key, k_max))
    return {"builds": len(builds), "duplicates": duplicates, "rebuilds": rebuilds,
            "distinct": len(builds) - duplicates}


def bound_arguments(fn, args, kwargs) -> dict:
    """Call arguments of ``fn`` by parameter name, defaults filled in."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return dict(bound.arguments)
