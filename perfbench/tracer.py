"""In-memory span tracer that instruments swapcool from the outside.

While a :class:`Tracer` is installed, every public function named in
:data:`TARGETS` is replaced, wherever a swapcool module binds it, by a wrapper
that records a span (name, start, end, parent, run id) and updates the
layer counters.  Uninstalling restores the original bindings, so the package
code is never edited and an untraced iteration runs exactly the same calls.

A span name is ``<layer>.<operation>``; the layer is the package module the
operation belongs to.  Self time of a span is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict


def _count_schedule(tr, result, args, kwargs):
    tr.counts["network.pair_events"] += result.n_pairs
    tr.counts["network.step_star_sum"] += result.step_star


def _count_stats(tr, result, args, kwargs):
    tr.counts["network.step_star_sum"] += int(result[0])


def _count_accumulate(tr, result, args, kwargs):
    tr.counts["network.accumulated_pairs"] += args[0].n_pairs


def _count_validate(tr, result, args, kwargs):
    sched = args[0]
    # Schedule.validate replays the events into an int64 table of this size
    mb = sched.n_systems * (sched.step_star + 1) * 8 / 1e6
    tr.peaks["network.tau_table_mb"] = max(tr.peaks.get("network.tau_table_mb", 0.0), mb)


def _count_flow_series(tr, result, args, kwargs):
    points = len(result.times)
    tr.counts["flow.time_points"] += points
    tr.counts["flow.amplitudes"] += points * args[1].dim


def _count_oracle(tr, result, args, kwargs):
    tr.counts["protocol.oracle_calls"] += 1


def _count_write(tr, result, args, kwargs):
    path, content = args[0], args[1]
    # the manifest carries wall-clock stage times, so its size is not fixed
    if os.path.basename(path) != "manifest.json":
        tr.counts["cli.bytes_written"] += len(content.encode() if isinstance(content, str)
                                              else content)


# (defining module, attribute or Class.method, span name, counter)
TARGETS = (
    ("swapcool.cli", "main", "cli.main", None),
    ("swapcool.experiments", "write_atomic", "cli.write", _count_write),
    ("swapcool.experiments", "coeffs_dataset", "experiments.coeffs_dataset", None),
    ("swapcool.experiments", "flow_csv", "experiments.flow_csv", None),
    ("swapcool.experiments", "xi_sweep", "experiments.xi_sweep", None),
    ("swapcool.experiments", "xi_rows_to_csv", "experiments.serialize", None),
    ("swapcool.experiments", "CoeffsDataset.step_star_csv", "experiments.serialize", None),
    ("swapcool.network", "CoefficientMatrix.to_csv", "experiments.serialize", None),
    ("swapcool.network", "coefficients_to_json", "experiments.serialize", None),
    ("swapcool.flow", "FlowResult.to_csv", "experiments.serialize", None),
    ("json", "dumps", "experiments.serialize", None),
    ("swapcool.network", "build_improved_schedule", "network.schedule_events", _count_schedule),
    ("swapcool.network", "improved_schedule_stats", "network.schedule_stats", _count_stats),
    ("swapcool.network", "propagate_coefficients", "network.accumulate", _count_accumulate),
    ("swapcool.network", "Schedule.validate", "network.validate", _count_validate),
    ("swapcool.network", "schedule_to_json", "network.schedule_json", None),
    ("swapcool.network", "check_scaling_law", "network.scaling_report", None),
    ("swapcool.network", "xi_result", "network.xi_result", None),
    ("swapcool.network", "m_alpha", "network.m_alpha", None),
    ("swapcool.network", "rescale_row", "network.rescale_row", None),
    ("swapcool.network", "xi_statistic", "network.xi_statistic", None),
    ("swapcool.network", "simulate_network_exact", "network.exact_oracle", None),
    ("swapcool.flow", "flow_series", "flow.flow_series", _count_flow_series),
    ("swapcool.flow", "flow_rk4", "flow.flow_rk4", None),
    ("swapcool.protocol", "apply_protocol", "protocol.apply_protocol", None),
    ("swapcool.protocol", "protocol_oracle", "protocol.oracle", _count_oracle),
    ("swapcool.hamiltonian", "build_model", "hamiltonian.build_model", None),
    ("swapcool.quantum", "eigendecompose", "quantum.eigendecompose", None),
    ("swapcool.verify", "check_protocol_vs_oracle", "verify.protocol_vs_oracle", None),
)


class Tracer:
    """Collects the spans and counters of one traced iteration."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []     # [id, parent, name, start, end]
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # --- recording -------------------------------------------------------------

    def begin(self, name: str) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None, name,
                time.perf_counter(), None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield
        finally:
            self.end(span)

    def wrap(self, fn, name: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                count(self, result, args, kwargs)
            return result
        return traced

    # --- installation ----------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            fn = getattr(owner, method, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(fn, name, count)
            if owner_name or not module_name.startswith("swapcool"):
                self._rebind(owner, method, wrapper)
                continue
            # rebind the function in every swapcool module that imported it
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "swapcool" or mod_name.startswith("swapcool.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- analysis --------------------------------------------------------------

    def durations(self) -> dict[str, float]:
        """Inclusive seconds per span name, counting only the outermost span
        when a name nests inside itself."""
        names = [s[2] for s in self.spans]
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            parent = span[1]
            while parent is not None and names[parent] != span[2]:
                parent = self.spans[parent][1]
            if parent is None:
                totals[span[2]] += span[4] - span[3]
        return dict(totals)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer not covered by a child span."""
        child = defaultdict(float)
        for span in self.spans:
            if span[1] is not None:
                child[span[1]] += span[4] - span[3]
        layers: dict[str, float] = defaultdict(float)
        for span in self.spans:
            layer = span[2].split(".", 1)[0]
            layers[layer] += span[4] - span[3] - child[span[0]]
        return dict(layers)

    def to_json(self) -> dict:
        t0 = self.spans[0][3] if self.spans else 0.0
        return {"run_id": self.run_id, "missing_targets": self.missing,
                "counts": dict(self.counts), "peaks": self.peaks,
                "spans": [{"id": s[0], "parent": s[1], "name": s[2],
                           "start": s[3] - t0, "end": s[4] - t0} for s in self.spans]}


def no_span(name: str):
    """Stand-in for :meth:`Tracer.span` in untraced iterations."""
    return contextlib.nullcontext()


def write_spans(path: str, tracers: list[Tracer]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump([t.to_json() for t in tracers], fh)
