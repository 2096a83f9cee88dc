"""Span tracing of boundaryvote's public functions, from outside the package.

`Tracer.install()` replaces the public functions of the package's modules,
and the per-pair and signed-distance methods, with wrappers that record one
span per call: name, start, end and the parent span. A span's self time is
its duration minus the durations of its direct child spans, so every traced
second is charged to exactly one function. The wrappers also count work at
the same boundaries: sensors sampled, pairs listed and indexed, pairs
visited by the per-pair passes, points given to signed distance, vote rounds
and Monte Carlo zone-area fallbacks.

Counts never depend on timing, so they repeat exactly for a given seed.
Functions or methods that a version of the package does not define are
skipped; their metrics then read 0.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("sampling", "geometry", "neighborhood", "vote", "harness", "bounds", "cli")

# (metric name, unit): the per-layer metrics, in BENCHMARK.json order.
PER_LAYER = (
    ("traced.wall_s", "s"),
    ("neighborhood.count_sums_s", "s"),
    ("neighborhood.count_sums_calls", "count"),
    ("neighborhood.weighted_sums_s", "s"),
    ("neighborhood.weighted_sums_calls", "count"),
    ("vote.rounds", "count"),
    ("neighborhood.pairs_s", "s"),
    ("neighborhood.pairs_listed", "count"),
    ("neighborhood.pairs_indexed", "count"),
    ("neighborhood.pair_visits", "count"),
    ("neighborhood.pair_bytes_computed", "bytes"),
    ("neighborhood.time_s", "s"),
    ("harness.self_s", "s"),
    ("harness.metrics_s", "s"),
    ("harness.csv_s", "s"),
    ("geometry.signed_distance_s", "s"),
    ("geometry.signed_distance_points", "count"),
    ("geometry.zone_area_s", "s"),
    ("geometry.zone_area_mc_calls", "count"),
    ("geometry.time_s", "s"),
    ("bounds.time_s", "s"),
    ("bounds.calls", "count"),
    ("sampling.time_s", "s"),
    ("sampling.calls", "count"),
    ("sampling.sensors", "count"),
    ("vote.self_s", "s"),
    ("vote.calls", "count"),
    ("cli.self_s", "s"),
)

# Methods wrapped besides each module's public functions: (module, class, attribute).
METHODS = (
    ("neighborhood", "NeighborIndex", "from_pairs"),
    ("neighborhood", "NeighborIndex", "pairs"),
    ("neighborhood", "NeighborIndex", "counts"),
    ("neighborhood", "NeighborIndex", "count_sums"),
    ("neighborhood", "NeighborIndex", "weighted_sums"),
    ("geometry", "RoundedRect", "signed_distance"),
    ("geometry", "Comb", "signed_distance"),
)

_CSV_FUNCTIONS = ("harness.write_sweep_csv", "harness.sweep_csv_string")
_SIGNED_DISTANCE = ("geometry.RoundedRect.signed_distance", "geometry.Comb.signed_distance")


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, name, start, end); None while open
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self._stack = []  # [span id, layer, child time] of the open spans
        self._pairs_held = weakref.WeakSet()  # indexes whose pair listing is counted
        self._counts_held = weakref.WeakSet()  # indexes whose counts are cached
        self._raw_pairs = lambda index: index.pairs
        self._hooks = {
            "neighborhood.NeighborIndex.from_pairs": self._after_from_pairs,
            "neighborhood.NeighborIndex.pairs": self._after_pairs,
            "neighborhood.NeighborIndex.counts": self._after_counts,
            "neighborhood.NeighborIndex.count_sums": self._after_pair_pass,
            "neighborhood.NeighborIndex.weighted_sums": self._after_pair_pass,
            "geometry.RoundedRect.signed_distance": self._after_signed_distance,
            "geometry.Comb.signed_distance": self._after_signed_distance,
            "geometry.dubious_zone_area": self._after_zone_area,
            "sampling.sample_field": self._after_sample,
            "vote.run_vote": self._after_vote,
            "vote.majority_round": self._after_vote,
            "vote.multi_round": self._after_vote,
        }

    def _wrap(self, layer, name, fn):
        full = f"{layer}.{name}"
        hook = self._hooks.get(full)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entering = not self._stack or self._stack[-1][1] != layer
            parent = self._stack[-1][0] if self._stack else -1
            sid = len(self.spans)
            self.spans.append(None)
            frame = [sid, layer, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, full, start, end)
                self.self_s[full] += (end - start) - frame[2]
                if self._stack:
                    self._stack[-1][2] += end - start
                if entering:
                    self.counts[f"{layer}.calls"] += 1
            if hook is not None:
                hook(args, result, entering)
            return result

        return traced

    # -- counts taken at the span boundaries -----------------------------

    def _pair_size(self, index):
        i, j = self._raw_pairs(index)
        return len(i), i.itemsize + j.itemsize

    def _after_from_pairs(self, args, index, entering):
        self._pairs_held.add(index)
        self.counts["neighborhood.pairs_indexed"] += self._pair_size(index)[0]

    def _after_pairs(self, args, pairs, entering):
        index = args[0]
        if index not in self._pairs_held:  # first access lists the pairs
            self._pairs_held.add(index)
            self.counts["neighborhood.pairs_listed"] += len(pairs[0])
            self.counts["neighborhood.pairs_indexed"] += len(pairs[0])

    def _after_counts(self, args, result, entering):
        index = args[0]
        if index not in self._counts_held:  # first access tallies the pairs
            self._counts_held.add(index)
            n, width = self._pair_size(index)
            self.counts["neighborhood.pair_visits"] += n
            self.counts["neighborhood.pair_bytes_computed"] += n * width

    def _after_pair_pass(self, args, result, entering):
        # Each index array is read twice: to gather the neighbor's value and
        # as the bincount key.
        n, width = self._pair_size(args[0])
        self.counts["neighborhood.pair_visits"] += n
        self.counts["neighborhood.pair_bytes_computed"] += 2 * n * width

    def _after_signed_distance(self, args, result, entering):
        self.counts["geometry.signed_distance_points"] += int(np.size(args[1]))

    def _after_zone_area(self, args, result, entering):
        if not getattr(result, "analytic", True):
            self.counts["geometry.zone_area_mc_calls"] += 1

    def _after_sample(self, args, field, entering):
        self.counts["sampling.sensors"] += int(field.n)

    def _after_vote(self, args, outcome, entering):
        if entering:
            self.counts["vote.rounds"] += int(getattr(outcome, "rounds_executed", 0))

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap the package's public functions in every module that holds them."""
        import boundaryvote  # noqa: F401  (imports every submodule)

        package = {name: mod for name, mod in sys.modules.items()
                   if name == "boundaryvote" or name.startswith("boundaryvote.")}
        wrapped = {}
        for layer in LAYERS:
            mod = package.get(f"boundaryvote.{layer}")
            for name, value in list(vars(mod).items()) if mod else ():
                if (not name.startswith("_") and callable(value) and not isinstance(value, type)
                        and getattr(value, "__module__", None) == mod.__name__):
                    wrapped[id(value)] = self._wrap(layer, name, value)
        for mod in package.values():
            for name, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, name, wrapped[id(value)])

        for layer, cls_name, attr in METHODS:
            cls = getattr(package.get(f"boundaryvote.{layer}"), cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            name = f"{cls_name}.{attr}"
            if isinstance(raw, property):
                if attr == "pairs":
                    self._raw_pairs = raw.fget
                setattr(cls, attr, property(self._wrap(layer, name, raw.fget)))
            elif isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self._wrap(layer, name, raw.__func__)))
            elif raw is not None:
                setattr(cls, attr, self._wrap(layer, name, raw))

    # -- results ---------------------------------------------------------

    def _layer_self(self, layer, exclude=()):
        return sum(v for k, v in self.self_s.items()
                   if k.split(".")[0] == layer and k not in exclude)

    def metrics(self, wall_s):
        """Per-layer metrics of one traced command, keyed as in PER_LAYER."""
        s = self.self_s
        calls = Counter(span[2] for span in self.spans if span is not None)
        values = {
            "traced.wall_s": wall_s,
            "neighborhood.count_sums_s": s["neighborhood.NeighborIndex.count_sums"],
            "neighborhood.count_sums_calls": calls["neighborhood.NeighborIndex.count_sums"],
            "neighborhood.weighted_sums_s": s["neighborhood.NeighborIndex.weighted_sums"],
            "neighborhood.weighted_sums_calls": calls["neighborhood.NeighborIndex.weighted_sums"],
            "neighborhood.pairs_s": s["neighborhood.NeighborIndex.pairs"],
            "harness.self_s": self._layer_self(
                "harness", exclude=("harness.compute_metrics",) + _CSV_FUNCTIONS),
            "harness.metrics_s": s["harness.compute_metrics"],
            "harness.csv_s": sum(s[k] for k in _CSV_FUNCTIONS),
            "geometry.signed_distance_s": sum(s[k] for k in _SIGNED_DISTANCE),
            "geometry.zone_area_s": s["geometry.dubious_zone_area"],
            "neighborhood.time_s": self._layer_self("neighborhood"),
            "geometry.time_s": self._layer_self("geometry"),
            "bounds.time_s": self._layer_self("bounds"),
            "sampling.time_s": self._layer_self("sampling"),
            "vote.self_s": self._layer_self("vote"),
            "cli.self_s": self._layer_self("cli"),
        }
        for name, _ in PER_LAYER:
            values.setdefault(name, self.counts[name])
        return values

    def write_spans(self, path):
        """Write every span as [id, parent, name, start, end], in seconds from the first."""
        done = [sp for sp in self.spans if sp is not None]
        t0 = min((sp[3] for sp in done), default=0.0)
        rows = [[sid, parent, name, a - t0, b - t0] for sid, parent, name, a, b in done]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)
