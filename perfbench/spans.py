"""Timing wrappers attached to the package's public functions from outside.

A `Tracer` replaces a function or method with a wrapper that counts calls
and accumulates inclusive and self time in nanoseconds; self time is a
call's duration minus the time of the wrapped calls made inside it. Spans
are aggregated per key as they close instead of being stored, since the
training loop produces millions of them.

The wrapper's own cost is calibrated (`calibrate`) and taken out of self
times: the part inside a span from the callee, the part outside it from the
caller. Inclusive times are left raw.

A target that does not exist (renamed or removed by a later change) is
recorded in `missing` and skipped, so its metrics come out absent instead of
failing the run. `detach` restores every patched binding.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict

PACKAGE = "qirl_uav"


class Tracer:
    def __init__(self, bias_in: float = 0.0, bias_out: float = 0.0):
        self.bias_in = bias_in  # wrapper ns per call inside the span
        self.bias_out = bias_out  # wrapper ns per call outside it, charged to the caller
        self.stats = defaultdict(lambda: [0, 0, 0])  # key -> [calls, inclusive ns, self ns]
        self.counts = defaultdict(int)  # counters filled in by observers
        self.missing: list[str] = []
        self.broken: set[str] = set()  # keys whose observer failed; their counters are partial
        self._stack: list[int] = []  # per open span: time spent in wrapped children
        self._patches: list[tuple[object, str, object]] = []

    def attach(self, module: str, qualname: str, key: str, key_of=None, observe=None) -> bool:
        """Wrap `module.qualname` (a function or `Class.method`).

        key_of(args) -> key overrides the fixed key per call; observe(args,
        kwargs, result) runs after each call. Module-level functions are also
        re-bound in every loaded package module that imported them by name.
        """
        try:
            owner = importlib.import_module(module)
        except ImportError:
            self.missing.append(f"{module}.{qualname}")
            return False
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.missing.append(f"{module}.{qualname}")
            return False
        wrapper = self._wrap(original, key, key_of, observe)
        owners = [owner]
        if not path:
            owners += [
                mod
                for name, mod in list(sys.modules.items())
                if name.startswith(PACKAGE) and mod is not owner and getattr(mod, attr, None) is original
            ]
        for target in owners:
            self._patches.append((target, attr, original))
            setattr(target, attr, wrapper)
        return True

    def detach(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    def self_s(self, key: str) -> float | None:
        rec = self.stats.get(key)
        return None if rec is None else rec[2] / 1e9

    def _wrap(self, fn, key, key_of, observe):
        stats = self.stats
        stack = self._stack
        clock = time.perf_counter_ns
        bias_in = self.bias_in
        bias_out = self.bias_out

        def wrapper(*args, **kwargs):
            nonlocal observe
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed + bias_out
                rec = stats[key if key_of is None else key_of(args)]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - children - bias_in
            if observe is not None:
                try:
                    observe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    # the observed function changed shape: its counters go absent
                    self.missing.append(f"observer of {key}: {exc!r}")
                    self.broken.add(key)
                    observe = None
            return result

        return wrapper


def calibrate(calls: int = 20_000, repeats: int = 5) -> tuple[float, float]:
    """Wrapper cost in ns per call: (inside the span, outside it).

    Times a loop of direct calls to a no-op against the same loop through a
    wrapper nested in a wrapped caller; medians over `repeats`. Both figures
    leave out the bare call's own cost, so they err low.
    """

    def noop():
        return None

    def loop(fn, n):
        for _ in range(n):
            fn()

    inside, outside = [], []
    for _ in range(repeats):
        probe = Tracer()
        wrapped = probe._wrap(noop, "probe", None, None)
        outer = probe._wrap(loop, "outer", None, None)
        start = time.perf_counter_ns()
        loop(noop, calls)
        direct = time.perf_counter_ns() - start
        outer(wrapped, calls)
        inside.append((probe.stats["probe"][2] - direct) / calls)
        outside.append((probe.stats["outer"][2] - direct) / calls)
    return max(0.0, statistics.median(inside)), max(0.0, statistics.median(outside))
