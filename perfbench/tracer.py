"""Outside-in layer timing for the wsn_multipath package.

Each hook replaces a public function or method with a wrapper, at the
place the caller looks the name up (``from x import f`` copies ``f`` into
the importing module, so ``wsn_multipath.engine.scenario_hash`` is patched,
not only ``wsn_multipath.scenario.scenario_hash``). A span hook records
(name, start, end, parent) in memory; a count hook only bumps a counter,
because it sits on per-packet paths where a span per call would swamp the
run it measures.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter

# (module, attribute, span name or None, counter name or None)
# Span names are the per-layer time metrics that the self times add up to.
LAYER_HOOKS = [
    ("wsn_multipath.cli", "main", "cli.main_s", None),
    ("wsn_multipath.cli", "load_scenario", "scenario.load_s", None),
    ("wsn_multipath.cli", "scenario_hash", "scenario.hash_s", "scenario.hash_calls"),
    ("wsn_multipath.engine", "scenario_hash", "scenario.hash_s", "scenario.hash_calls"),
    ("wsn_multipath.experiments", "scenario_hash", "scenario.hash_s",
     "scenario.hash_calls"),
    ("wsn_multipath.scenario", "build_topology", "model.topology_s",
     "model.topology_calls"),
    ("wsn_multipath.model", "Topology.link", None, "model.link_calls"),
    # declared routes are validated, undeclared ones discovered: both
    # establish the route set, so both count as the discovery layer
    ("wsn_multipath.scenario", "discover_paths", "discovery.discover_s", None),
    ("wsn_multipath.scenario", "validate_path", "discovery.discover_s", None),
    ("wsn_multipath.engine", "choke_probe", None, "discovery.probe_calls"),
    ("wsn_multipath.engine", "scheme_allocation", "allocator.alloc_s", "allocator.calls"),
    ("wsn_multipath.engine", "transmit_energy_per_bit", None, "metrics.energy_calls"),
    ("wsn_multipath.engine", "receive_energy_per_bit", None, "metrics.energy_calls"),
    ("wsn_multipath.engine", "Engine.__init__", "engine.init_s", None),
    ("wsn_multipath.engine", "Engine.run", "engine.run_s", None),
    ("wsn_multipath.experiments", "run_scenario", None, "experiments.cells"),
    ("wsn_multipath.cli", "write_rows_csv", "experiments.write_s", None),
    ("wsn_multipath.experiments", "Report.to_csv", "experiments.write_s", None),
    ("wsn_multipath.experiments", "Report.to_text", "experiments.write_s", None),
]

# The few boundaries an untraced run times: each is called a handful of
# times per command, so timing them costs nothing measurable.
BOUNDARY_HOOKS = [
    ("wsn_multipath.cli", "load_scenario", "scenario.load_s", None),
    ("wsn_multipath.experiments", "scenario_hash", "scenario.hash_s", None),
    ("wsn_multipath.engine", "Engine.__init__", "engine.init_s", None),
    ("wsn_multipath.engine", "Engine.run", "engine.run_s", None),
]

SETUP_SPANS = frozenset({"scenario.load_s", "scenario.hash_s", "engine.init_s"})
ROOT_SPAN = "cli.main_s"


class Tracer:
    """In-memory spans and call counts."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, span: str | None, counter: str | None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        if span is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            record = [span, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
        return timed

    def install(self, hooks) -> None:
        for module_name, attr, span, counter in hooks:
            owner = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, name, self.wrap(getattr(owner, name), span, counter))

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its direct
        children cover. Spans of one thread nest, so children never
        overlap one another."""
        own = [end - start for _name, start, end, _parent in self.spans]
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, _start, _end, _parent), t in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def setup_s(self) -> float:
        """Host seconds spent loading, hashing and constructing engines,
        counting a setup span nested in another setup span once."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if name in SETUP_SPANS and not self._inside_setup(parent):
                total += end - start
        return total

    def _inside_setup(self, parent: int) -> bool:
        while parent >= 0:
            name, _start, _end, parent_of = self.spans[parent]
            if name in SETUP_SPANS:
                return True
            parent = parent_of
        return False
