"""Span tracer that times bellnet's layers from outside the package.

``Tracer`` replaces each traced function with a timing wrapper at every
name it is bound under in the package: ``cli`` imports ``network_table``
and the classical samplers by name, ``inequality`` imports
``network_table`` and ``swap`` imports ``swap_joint_table``, so a wrapper
on the defining module alone would miss those calls.  Spans stay in
memory with their parent span and the command that caused them, and are
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter

MODULES = (
    "bellnet",
    "bellnet.network",
    "bellnet.quantum",
    "bellnet.inequality",
    "bellnet.classical",
    "bellnet.swap",
    "bellnet.cli",
)

# Span name -> the public functions it covers, by defining module.
LAYERS = {
    "quantum.single_source_table": (("bellnet.quantum", "single_source_table"),),
    "quantum.compose_network": (("bellnet.quantum", "compose_network"),),
    "quantum.network_table": (("bellnet.quantum", "network_table"),),
    "quantum.swap_joint_table": (("bellnet.quantum", "swap_joint_table"),),
    "swap.swap_spectrum": (("bellnet.swap", "swap_spectrum"),),
    "swap.conditioning": (
        ("bellnet.swap", "default_conditioning"),
        ("bellnet.swap", "conditioning_from_json"),
    ),
    "inequality.table_correlators": (("bellnet.inequality", "table_correlators"),),
    "inequality.truncated_spectrum": (("bellnet.inequality", "truncated_spectrum"),),
    "inequality.find_critical_visibility": (
        ("bellnet.inequality", "find_critical_visibility"),
    ),
    "inequality.sweep_value": (("bellnet.inequality", "sweep_value"),),
    "classical.sample_model": (("bellnet.classical", "sample_model"),),
    "classical.sampled_spectra": (("bellnet.classical", "sampled_spectra"),),
    "classical.model_table": (("bellnet.classical", "model_table"),),
    "classical.saturating": (
        ("bellnet.classical", "saturating_entries"),
        ("bellnet.classical", "saturating_table"),
    ),
    "classical.deterministic_maximum": (("bellnet.classical", "deterministic_maximum"),),
    "classical.region_slice": (("bellnet.classical", "region_slice"),),
    "network.setting_map": (
        ("bellnet.network", "xy_setting_map"),
        ("bellnet.network", "rotated_setting_map"),
        ("bellnet.quantum", "scheme_setting_map"),
    ),
    "cli": (("bellnet.cli", "main"),),
}

# Spans whose result is a freshly built outcome table.
TABLE_BUILDERS = (
    "quantum.single_source_table",
    "quantum.compose_network",
    "quantum.swap_joint_table",
)


def _table_size(args, kwargs, table):
    config = table.config
    return {
        "qubits": config.total + config.n,
        "elements": int(table.values.size),
        "bytes": int(table.values.nbytes),
    }


def _swap_spectrum_size(args, kwargs, spectrum):
    config = spectrum.config
    elements = 4 ** config.total * 2 ** config.n  # the joint table it reduces
    return {"qubits": config.total + config.n, "elements": elements, "bytes": 8 * elements}


def _conditioning_size(args, kwargs, conditioning):
    return {"qubits": conditioning.n, "elements": int(conditioning.masks.size)}


SIZERS = {
    "quantum.single_source_table": _table_size,
    "quantum.compose_network": _table_size,
    "quantum.network_table": _table_size,
    "quantum.swap_joint_table": _table_size,
    "swap.swap_spectrum": _swap_spectrum_size,
    "swap.conditioning": _conditioning_size,
}


class Span:
    __slots__ = ("name", "parent", "command", "start", "end", "size")

    def __init__(self, name, parent, command):
        self.name, self.parent, self.command = name, parent, command
        self.size = None


class Tracer:
    """Context manager that installs the wrappers and collects spans.

    ``command`` tags every span opened while it is set; the driver sets it
    to ``(round, index)`` before each command.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.command = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self):
        modules = [importlib.import_module(name) for name in MODULES]
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                original = getattr(importlib.import_module(module_name), attr)
                wrapper = self._wrap(name, original, SIZERS.get(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            self._patched.append((module, key, original))
        return self

    def __exit__(self, *exc):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn, sizer):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.command)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if sizer is not None:
                span.size = sizer(args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def round_metrics(self) -> dict[int, dict[str, float]]:
        """Per-layer counts and self times, one dict per traced round."""
        selfs = self.self_times()
        rounds: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (span, own) in enumerate(zip(self.spans, selfs)):
            out = rounds[span.command[0]]
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += own
            if span.name in TABLE_BUILDERS:
                out["quantum.table_elements"] += span.size["elements"]
                out["quantum.table_bytes_max"] = max(
                    out["quantum.table_bytes_max"], span.size["bytes"]
                )
            if span.name == "quantum.network_table" and self._under(
                i, "inequality.find_critical_visibility"
            ):
                out["inequality.find_critical_visibility.probes"] += 1
        return {r: dict(m) for r, m in rounds.items()}

    def _under(self, index: int, name: str) -> bool:
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (span, own) in enumerate(zip(self.spans, selfs)):
                record = {
                    "id": i,
                    "parent": span.parent,
                    "round": span.command[0],
                    "command": span.command[1],
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "self_s": own,
                }
                if span.size:
                    record.update(span.size)
                fh.write(json.dumps(record) + "\n")

