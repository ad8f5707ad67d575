"""Span recording around ceapsk's public functions, from outside the package.

A Tracer replaces a function at every module attribute bound to it (so
``ceapsk.sim.annulus_arrays`` and ``ceapsk.channel.annulus_arrays`` are
both traced) and puts the originals back when the ``installed`` block
exits.  Each wrapped call records one span: name, start, end, the span
that was open on the same thread when it started, and the leading
dimension of its first array argument (rows of work).  Spans stay in
memory; the caller writes them out once the run is over.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

# modules whose public functions are layers of the simulator
LAYER_MODULES = ("channel", "constellation", "optimizer", "precoder", "rng", "sim")
ENGINES = ("sim.run_fixed_rate_ser", "sim.run_csit_sweep", "sim.run_variable_rate")


def _rows(args) -> int:
    for a in args:
        shape = getattr(a, "shape", None)
        if shape:
            return int(shape[0])
    return 0


class Tracer:
    """Records spans on a per-thread stack; times come from ``clock`` (ns).

    The default clock is CLOCK_MONOTONIC on Linux, shared by all processes,
    so span times compare directly with a parent process's spawn time.
    """

    def __init__(self, clock=time.monotonic_ns, on_return=None):
        self.clock = clock
        self.on_return = on_return   # called as on_return(name, result)
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"id": next(self._ids), "name": name,
                    "parent": stack[-1] if stack else None,
                    "rows": _rows(args), "start": 0, "end": 0}
            self.spans.append(span)
            stack.append(span["id"])
            span["start"] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                stack.pop()
            if self.on_return is not None:
                self.on_return(name, result)
            return result
        traced.__traced_original__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, modules) -> None:
        """Wrap ``owner.attr`` there and at every attribute of ``modules``
        bound to the same object."""
        original = inspect.getattr_static(owner, attr)
        wrapper = self.wrap(name, original)
        sites = [(owner, attr)]
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original and (mod, key) != (owner, attr):
                    sites.append((mod, key))
        for site, key in sites:
            self._patches.append((site, key, original))
            setattr(site, key, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            site, key, original = self._patches.pop()
            setattr(site, key, original)

    @contextlib.contextmanager
    def installed(self, targets, modules):
        """Patch ``targets`` (name, owner, attr) for the block's duration."""
        try:
            for name, owner, attr in targets:
                self.patch(owner, attr, name, modules)
            yield self
        finally:
            self.restore()


def leftover_wrappers(modules) -> list[str]:
    """Attributes (module-level or on classes) still bound to a wrapper."""
    found = []
    for mod in modules:
        for key, value in vars(mod).items():
            if hasattr(value, "__traced_original__"):
                found.append(f"{mod.__name__}.{key}")
            if inspect.isclass(value):
                for ckey, cval in vars(value).items():
                    if hasattr(cval, "__traced_original__"):
                        found.append(f"{mod.__name__}.{key}.{ckey}")
    return found


def ceapsk_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "ceapsk" or n.startswith("ceapsk."))]


def layer_targets(pkg) -> list[tuple[str, object, str]]:
    """Every public function of the layer modules, plus the region-table
    lookups and the CLI steps (table cache, CSV and manifest write)."""
    targets = []
    for short in LAYER_MODULES:
        mod = getattr(pkg, short)
        for key, value in vars(mod).items():
            if (not key.startswith("_") and inspect.isfunction(value)
                    and value.__module__ == mod.__name__):
                targets.append((f"{short}.{key}", mod, key))
    table = pkg.optimizer.RegionTable
    targets += [("optimizer.params_at", table, "params_at"),
                ("optimizer.d_min_at", table, "d_min_at"),
                ("sim.SerCurve.write_csv", pkg.sim.SerCurve, "write_csv"),
                ("sim.RateCurve.write_csv", pkg.sim.RateCurve, "write_csv")]
    cli = pkg.cli
    targets += [(f"cli.{key}", cli, key) for key in
                ("main", "cmd_ser", "cmd_rate", "load_or_build_table",
                 "write_manifest")]
    return targets


def engine_targets(pkg) -> list[tuple[str, object, str]]:
    return [(name, pkg.sim, name.split(".", 1)[1]) for name in ENGINES]


# ---------------------------------------------------------------------------
# Span arithmetic


def _covered(intervals, lo, hi) -> int:
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part its child spans cover (ns)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered(children[s["id"]], s["start"], s["end"])
            for s in spans}


def accounting_error(spans, names) -> float:
    """Worst |children + self - span| / span over the spans named ``names``.

    Zero unless child spans overlap each other or run outside their parent.
    """
    own = self_times(spans)
    child_sum = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_sum[s["parent"]] += s["end"] - s["start"]
    worst = 0.0
    for s in spans:
        if s["name"] in names:
            dur = s["end"] - s["start"]
            worst = max(worst, abs(child_sum[s["id"]] + own[s["id"]] - dur)
                        / max(dur, 1))
    return worst


def aggregate(spans) -> dict[str, dict[str, int]]:
    """Per span name: calls, rows, self_ns and total_ns."""
    own = self_times(spans)
    out: dict[str, dict[str, int]] = defaultdict(
        lambda: {"calls": 0, "rows": 0, "self_ns": 0, "total_ns": 0})
    for s in spans:
        agg = out[s["name"]]
        agg["calls"] += 1
        agg["rows"] += s["rows"]
        agg["self_ns"] += own[s["id"]]
        agg["total_ns"] += s["end"] - s["start"]
    return dict(out)
