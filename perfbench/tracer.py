"""Spans and counts around the public calls into each rbprop module.

The tracer rebinds module attributes and patches two methods from outside
the package; nothing under ``src/`` is edited.  Every wrapped call records a
span (name, start, end, parent span) in memory, and some also add to
counters (points averaged, points looked up, snapshot bytes).  ``summary``
turns the spans into per-name call counts, total time and self time, where
self time is a span's duration minus the durations of its direct children.

Hook points:

* ``rbprop.cli`` binds by name: ``propagate``, ``write_field``,
  ``diagnose``, ``parse_config``, ``chi_doppler_averaged`` and the two CSV
  writers it uses.
* ``rbprop.solver`` binds ``diffraction_step``, ``control_intensity``,
  ``build_chi_table`` and ``chi_doppler_averaged``.
* ``rbprop.susceptibility.chi_doppler_averaged`` is what ``ChiTable._fill``
  and ``ChiTable.direct`` reach.
* Methods ``ChiTable.__call__`` and ``RunManifest.write``.

The medium RK4 sub-flow is private; its time shows as the self time of
the ``propagate`` span.
"""

from __future__ import annotations

import functools
import time
from pathlib import Path

import numpy as np

# span name -> layer (package module) it belongs to
LAYER_OF = {
    "cli.main": "cli",
    "config.parse_config": "config",
    "solver.propagate": "solver",
    "solver.diffraction_step": "solver",
    "beams.control_intensity": "beams",
    "susceptibility.build_chi_table": "susceptibility",
    "susceptibility.chi_doppler_averaged": "susceptibility",
    "susceptibility.ChiTable.__call__": "susceptibility",
    "analysis.diagnose": "analysis",
    "fieldio.write_field": "fieldio",
    "fieldio.RunManifest.write": "fieldio",
    "fieldio.write_csv": "fieldio",
}
LAYERS = ("cli", "config", "susceptibility", "solver", "beams", "analysis",
          "fieldio")

BUILD = "susceptibility.build_chi_table"
LOOKUP = "susceptibility.ChiTable.__call__"


def _points(*arrays) -> int:
    return int(np.broadcast(*(np.asarray(a) for a in arrays)).size)


class Tracer:
    def __init__(self):
        # [name, start, end, parent index]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.tables: list = []
        self.propagations: list[tuple[int, int]] = []
        # time spent in wrapper bookkeeping outside the wrapped calls
        self.overhead_s = 0.0

    def add(self, key: str, value: float = 1):
        self.counts[key] = self.counts.get(key, 0) + value

    def call(self, name: str, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_call=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = time.perf_counter()
            index = len(self.spans)
            result = self.call(name, fn, *args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs, result)
            _, start, end, _ = self.spans[index]
            self.overhead_s += time.perf_counter() - enter - (end - start)
            return result
        return wrapper

    def install(self):
        """Rebind the hook points; returns a callable that restores them."""
        import rbprop.cli as cli
        import rbprop.solver as solver
        import rbprop.susceptibility as susceptibility
        from rbprop.fieldio import RunManifest
        from rbprop.susceptibility import ChiTable

        saved = []

        def rebind(module, attr, new):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)

        def on_average(args, kwargs, result):
            point = args[0] if args else kwargs["point"]
            self.add("avg_points", _points(point.g_abs2, point.G_abs2))

        def on_lookup(args, kwargs, result):
            self.add("lookup_points", _points(*args[1:3]))

        def on_build(args, kwargs, result):
            self.tables.append(result)

        def on_propagate(args, kwargs, result):
            grid, plan = args[3], args[4]
            self.propagations.append(
                (int(round(grid.cell_length / plan.dz)), len(plan.substeps())))

        def on_write_field(args, kwargs, result):
            self.add("snapshot_bytes", Path(result).stat().st_size)

        average = self.wrap("susceptibility.chi_doppler_averaged",
                            susceptibility.chi_doppler_averaged, on_average)
        for module in (cli, solver, susceptibility):
            rebind(module, "chi_doppler_averaged", average)
        rebind(cli, "parse_config",
               self.wrap("config.parse_config", cli.parse_config))
        rebind(cli, "propagate",
               self.wrap("solver.propagate", cli.propagate, on_propagate))
        rebind(cli, "write_field",
               self.wrap("fieldio.write_field", cli.write_field,
                         on_write_field))
        rebind(cli, "diagnose", self.wrap("analysis.diagnose", cli.diagnose))
        for writer in ("write_chi_scan_csv", "write_diagnostics_csv"):
            rebind(cli, writer,
                   self.wrap("fieldio.write_csv", getattr(cli, writer)))
        rebind(solver, "diffraction_step",
               self.wrap("solver.diffraction_step", solver.diffraction_step))
        rebind(solver, "control_intensity",
               self.wrap("beams.control_intensity", solver.control_intensity))
        rebind(solver, "build_chi_table",
               self.wrap(BUILD, solver.build_chi_table, on_build))
        rebind(ChiTable, "__call__",
               self.wrap(LOOKUP, ChiTable.__call__, on_lookup))
        rebind(RunManifest, "write",
               self.wrap("fieldio.RunManifest.write", RunManifest.write))

        def restore():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
        return restore

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict[str, dict] = {}
        lookups_in_builds = 0
        build_in_propagate = 0.0
        build_s = []
        for i, (name, start, end, parent) in enumerate(self.spans):
            entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0,
                                              "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(self.spans[p][0])
                p = self.spans[p][3]
            if name == LOOKUP and BUILD in ancestors:
                lookups_in_builds += 1
            if name == BUILD:
                build_s.append(end - start)
                if "solver.propagate" in ancestors:
                    build_in_propagate += end - start
        return {
            "spans": by_name,
            "span_count": len(self.spans),
            "overhead_s": self.overhead_s,
            "counts": dict(self.counts),
            "lookups_in_builds": lookups_in_builds,
            "build_s": build_s,
            "build_in_propagate_s": build_in_propagate,
            "propagations": self.propagations,
            "tables": [{"shape": list(t.shape), "zero": bool(t.zero)}
                       for t in self.tables],
        }


def table_reference_error(table, points: list[dict]) -> dict:
    """Max relative deviation of ``table`` from the reference points.

    Points inside the table's |G|^2 range and those below its floor (where
    the table extrapolates chi proportional to |G|^2) are reported
    apart; the floor is build_chi_table's default, 1e-4 of the range top.
    Points above the range are skipped.  Call with the tracer restored, so
    these lookups are not counted.
    """
    floor = 1.0e-4 * table.G_abs2_max
    worst = {"in_range": 0.0, "below_floor": 0.0}
    for p in points:
        if p["G_abs2"] > table.G_abs2_max or p["g_abs2"] > table.g_abs2_max:
            continue
        ref = complex(p["re"], p["im"])
        got = complex(table(p["G_abs2"], p["g_abs2"]))
        key = "below_floor" if p["G_abs2"] < floor else "in_range"
        worst[key] = max(worst[key], abs(got - ref) / abs(ref))
    return worst
