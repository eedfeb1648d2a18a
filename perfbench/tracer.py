"""Spans around the calls into each module, recorded from outside it.

``Tracer.install`` replaces the public functions of wareflow's modules
where their callers look them up (the names ``wareflow.cli`` imported, and
the helpers that ``network``, ``fptas`` and ``extform`` call through their
own module globals) with wrappers that record a span per call.  No program
file changes, and ``uninstall`` restores the originals.  A name the program
no longer binds is skipped, so the tracer keeps working across refactors.

A span records its name, start, end, parent span and op id.  Spans stay in
memory until the run ends.  A layer's time is the self time of its spans:
the span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module, attribute, span name); the span name's prefix is the layer
WRAPPED = (
    ("wareflow.cli", "parse_instance", "model.parse"),
    ("wareflow.cli", "parse_solution", "model.parse"),
    ("wareflow.cli", "serialize_solution", "model.serialize"),
    ("wareflow.cli", "check_solution", "model.check"),
    ("wareflow.network", "validate_instance", "model.validate"),
    ("wareflow.fptas", "validate_instance", "model.validate"),
    ("wareflow.cli", "gen_stock_levels", "stocklevels.levels"),
    ("wareflow.network", "gen_stock_levels", "stocklevels.levels"),
    ("wareflow.extform", "gen_stock_levels", "stocklevels.levels"),
    ("wareflow.cli", "double_horizon", "stocklevels.double_horizon"),
    ("wareflow.network", "double_horizon", "stocklevels.double_horizon"),
    ("wareflow.extform", "double_horizon", "stocklevels.double_horizon"),
    ("wareflow.cli", "solve_with_network", "network.solve_self"),
    ("wareflow.network", "solve_with_network", "network.solve_self"),
    ("wareflow.cli", "build_network", "network.build"),
    ("wareflow.network", "build_network", "network.build"),
    ("wareflow.extform", "build_network", "network.build"),
    ("wareflow.cli", "fptas_solve", "fptas.solve"),
    ("wareflow.cli", "fptas_params", "fptas.scale"),
    ("wareflow.fptas", "fptas_params", "fptas.scale"),
    ("wareflow.cli", "scale_trade_bounds", "fptas.scale"),
    ("wareflow.fptas", "scale_trade_bounds", "fptas.scale"),
    ("wareflow.extform", "build_extended_formulation", "extform.formulation"),
    ("wareflow.cli", "emit_lp", "extform.emit"),
)
ROOT = "cli.self"
TIME_SPANS = tuple(dict.fromkeys([ROOT] + [name for _, _, name in WRAPPED]))
COUNTS = (
    "stocklevels.levels_calls", "stocklevels.S_max", "stocklevels.levels_total",
    "network.build_calls", "network.arcs", "network.pairs",
    "fptas.scaled_S_max", "extform.lp_bytes", "extform.rows", "extform.vars",
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start_ns, end_ns, parent, op_id]
        self._stack: list = []
        self._saved: list = []
        self.op_id = None
        self.op_kind = None
        self.counts: dict = {}
        self._last_model = (0, 0)

    # --- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.op_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        after = {
            "stocklevels.levels": self._levels,
            "network.build": self._network,
            "extform.formulation": self._formulation,
            "extform.emit": self._emitted,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # --- counts, taken from the values the wrapped calls return ---------------

    def _add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _max(self, key: str, value) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def _levels(self, levels) -> None:
        self._add("stocklevels.levels_calls", 1)
        self._max("stocklevels.S_max", levels.S_size)
        self._add("stocklevels.levels_total", sum(map(len, levels.levels)))
        if self.op_kind == "fptas":
            self._max("fptas.scaled_S_max", levels.S_size)

    def _network(self, net) -> None:
        sizes = [len(layer) for layer in net.layers]
        self._add("network.build_calls", 1)
        self._add("network.arcs", net.arc_count)
        self._add("network.pairs", sum(a * b for a, b in zip(sizes, sizes[1:])))

    def _formulation(self, model) -> None:
        self._last_model = (len(model.rows), len(model.variables))

    def _emitted(self, text: str) -> None:
        # emit_lp may build a second, scaled model; the last one is printed
        rows, variables = self._last_model
        self._add("extform.lp_bytes", len(text.encode()))
        self._add("extform.rows", rows)
        self._add("extform.vars", variables)

    # --- per-pass summaries ----------------------------------------------------

    def take_counts(self) -> dict:
        counts = {key: self.counts.get(key, 0) for key in COUNTS}
        self.counts = {}
        return counts

    def self_times(self, first: int, last: int, scale) -> dict:
        """Self time in seconds per span name over spans[first:last];
        ``scale(start, seconds)`` adjusts each span's share."""
        child_ns = [0] * (last - first)
        for name, start, end, parent, _ in self.spans[first:last]:
            if parent is not None and parent >= first:
                child_ns[parent - first] += end - start
        totals = dict.fromkeys(TIME_SPANS, 0.0)
        for k, (name, start, end, _, _) in enumerate(self.spans[first:last]):
            own = (end - start - child_ns[k]) / 1e9
            totals[name] = totals.get(name, 0.0) + scale(start / 1e9, own)
        return totals

    def write(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op_id in self.spans:
                out.write(json.dumps({"name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent,
                                      "op": op_id}) + "\n")
