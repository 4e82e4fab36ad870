"""Spans recorded from outside the package, around calls into each layer.

The tracer never edits qcilab. It replaces public functions in the module
namespaces where callers look them up (for example
`qcilab.sweep.assoc_legendre_norm` and `qcilab.eigensolve.eigenpairs`), and
it makes `moment_map_from_config`, `builtin_moment_map`, `longitude_arc` and
`latitude_arc` return timed subclasses of `MomentMap` and `Geodesic`.
`install()` puts the wrappers in place for a traced pass and `uninstall()`
restores the originals, so untraced passes run the plain code.

Each span records name, start, end, parent span and operation id in flat
arrays that stay in memory until the run ends. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import os
import sys
from array import array
from collections import Counter
from dataclasses import fields
from time import perf_counter

import numpy as np


def _io_counters():
    """(rchar, wchar, bytes this read added to rchar) of this process."""
    fd = os.open("/proc/self/io", os.O_RDONLY)
    try:
        raw = os.read(fd, 4096)
    finally:
        os.close(fd)
    vals = dict(line.split(b": ") for line in raw.splitlines() if b": " in line)
    return int(vals[b"rchar"]), int(vals[b"wchar"]), len(raw)


class Tracer:
    """Span store plus the wrappers that feed it; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_ids = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_ids = array("i")
        self._stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []
        self._classes = None

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_ids.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def mark(self) -> int:
        return len(self.start)

    # -- patching --------------------------------------------------------

    def _patch(self, module: str, attr: str, make_wrapper):
        orig = getattr(sys.modules[module], attr)
        wrapper = make_wrapper(orig)
        for name, mod in list(sys.modules.items()):
            if (name == "qcilab" or name.startswith("qcilab.")) and getattr(mod, attr, None) is orig:
                setattr(mod, attr, wrapper)
                self._undo.append((mod, attr, orig))

    def _span_wrapper(self, name, before=None, after=None):
        tracer = self

        def make(orig):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                idx = tracer.open(name)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    tracer.close(idx)
                if after is not None:
                    after(args, kwargs, result)
                return result

            return wrapper

        return make

    def _io_wrapper(self, name, key, column):
        """Span whose rchar (column 0) or wchar (column 1) delta is counted."""
        tracer = self

        def make(orig):
            def wrapper(*args, **kwargs):
                before = _io_counters()
                result = tracer.call(name, orig, *args, **kwargs)
                after = _io_counters()
                delta = after[column] - before[column]
                if column == 0:
                    delta -= before[2]
                tracer.counts[key] += delta
                return result

            return wrapper

        return make

    def _timed_classes(self):
        if self._classes is not None:
            return self._classes
        from qcilab.geometry import Geodesic
        from qcilab.symbol_dsl import MomentMap

        tracer = self

        class TimedMomentMap(MomentMap):
            def p1(self, t, phi, xi_t, xi_phi):
                tracer.counts["symbol_dsl.points"] += np.broadcast(t, phi, xi_t, xi_phi).size
                idx = tracer.open("symbol_dsl.p1")
                try:
                    return MomentMap.p1(self, t, phi, xi_t, xi_phi)
                finally:
                    tracer.close(idx)

            def p2(self, t, phi, xi_t, xi_phi):
                tracer.counts["symbol_dsl.points"] += np.broadcast(t, phi, xi_t, xi_phi).size
                idx = tracer.open("symbol_dsl.p2")
                try:
                    return MomentMap.p2(self, t, phi, xi_t, xi_phi)
                finally:
                    tracer.close(idx)

        class TimedGeodesic(Geodesic):
            def point(self, tau, checked: bool = True):
                idx = tracer.open("geometry.point")
                try:
                    return Geodesic.point(self, tau, checked)
                finally:
                    tracer.close(idx)

        self._classes = (TimedMomentMap, TimedGeodesic)
        return self._classes

    def _retype(self, cls):
        def make(orig):
            def wrapper(*args, **kwargs):
                plain = orig(*args, **kwargs)
                return cls(**{f.name: getattr(plain, f.name) for f in fields(plain)})

            return wrapper

        return make

    def install(self):
        """Wrap every layer's public entry points; idempotent per pass."""
        import qcilab.admissibility  # noqa: F401  (loads every layer module)

        timed_map, timed_geod = self._timed_classes()
        counts = self.counts

        def grid_points(args, kwargs):
            grid = kwargs.get("grid", args[3] if len(args) > 3 else (128, 128))
            counts["admissibility.points"] += int(grid[0]) * int(grid[1])

        def recurrence(args, kwargs):
            l, k, x = args[0], args[1], args[2]
            counts["specfun.recurrence_steps"] += (int(l) - int(k)) * int(np.size(x))

        def modes(args, kwargs):
            counts["eigensolve.modes_solved"] += int(kwargs.get("count", args[2]))

        def cache_outcome(args, kwargs, result):
            counts["eigensolve.cache_calls"] += 1
            counts["eigensolve.cache_hits"] += int(bool(result[1]))

        def integrate(orig):
            tracer = self

            def wrapper(u, *args, **kwargs):
                ev = u.value if hasattr(u, "value") else u

                def integrand(t, phi):
                    counts["lineintegral.nodes"] += int(np.size(t))
                    return tracer.call("integrand", ev, t, phi)

                return tracer.call("lineintegral.integrate_restriction", orig, integrand, *args, **kwargs)

            return wrapper

        span = self._span_wrapper
        self._patch("qcilab.admissibility", "check_admissible", span("admissibility.check_admissible", grid_points))
        self._patch("qcilab.admissibility", "check_principal_type", span("admissibility.check_principal_type"))
        self._patch("qcilab.symbol_dsl", "parse_expr", span("symbol_dsl.parse_expr"))
        self._patch("qcilab.symbol_dsl", "moment_map_from_config", self._retype(timed_map))
        self._patch("qcilab.symbol_dsl", "builtin_moment_map", self._retype(timed_map))
        self._patch("qcilab.geometry", "longitude_arc", self._retype(timed_geod))
        self._patch("qcilab.geometry", "latitude_arc", self._retype(timed_geod))
        self._patch("qcilab.specfun", "assoc_legendre_norm", span("specfun.assoc_legendre_norm", recurrence))
        self._patch("qcilab.lineintegral", "integrate_restriction", integrate)
        self._patch("qcilab.lineintegral", "integrate_adaptive", span("lineintegral.integrate_adaptive"))
        self._patch("qcilab.sweep", "fit_decay", span("sweep.fit_decay"))
        self._patch("qcilab.sweep", "save_report", self._io_wrapper("sweep.save_report", "sweep.report_bytes", 1))
        self._patch("qcilab.sweep", "load_report", span("sweep.load_report"))
        self._patch("qcilab.eigensolve", "solve_modes_cached",
                    span("eigensolve.solve_modes_cached", after=cache_outcome))
        self._patch("qcilab.eigensolve", "solve_modes", span("eigensolve.solve_modes", modes))
        self._patch("qcilab.eigensolve", "eigenpairs", span("eigensolve.eigenpairs"))
        self._patch("qcilab.eigensolve", "assemble_operator", span("eigensolve.assemble_operator"))
        self._patch("qcilab.eigensolve", "load_modes",
                    self._io_wrapper("eigensolve.load_modes", "eigensolve.cache_bytes_read", 0))
        self._patch("qcilab.eigensolve", "save_modes",
                    self._io_wrapper("eigensolve.save_modes", "eigensolve.cache_bytes_written", 1))
        if "qcilab.cli" in sys.modules:
            self._patch("qcilab.cli", "load_config", span("cli.load_config"))

    def uninstall(self):
        while self._undo:
            mod, attr, orig = self._undo.pop()
            setattr(mod, attr, orig)

    # -- per-layer metrics -------------------------------------------------

    def layer_totals(self, lo: int, hi: int):
        """Duration, self time (both seconds) and span count per name over spans [lo, hi)."""
        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        end = np.frombuffer(self.end, dtype=np.float64)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64)
        ids = np.frombuffer(self.name_ids, dtype=np.uint16)[lo:hi]
        dur = end - start
        child = np.zeros_like(dur)
        inside = parent >= lo
        np.add.at(child, parent[inside] - lo, dur[inside])
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            if sel.any():
                out[name] = (float(dur[sel].sum()), float(own[sel].sum()), int(sel.sum()))
        return out


def layer_metrics(totals: dict, counts: Counter) -> dict:
    """Per-layer metrics of one traced pass: times in ms, counts exact."""

    def ms(name, col=0):
        return totals.get(name, (0.0, 0.0, 0))[col] * 1e3

    def calls(name):
        return totals.get(name, (0.0, 0.0, 0))[2]

    def self_ms(prefix):
        return sum(v[1] for k, v in totals.items() if k.startswith(prefix)) * 1e3

    dsl_calls = calls("symbol_dsl.p1") + calls("symbol_dsl.p2")
    cache_calls = counts["eigensolve.cache_calls"]
    return {
        "admissibility.ms": ms("admissibility.check_admissible"),
        "admissibility.self_ms": self_ms("admissibility."),
        "admissibility.principal_ms": ms("admissibility.check_principal_type"),
        "admissibility.points": counts["admissibility.points"],
        "symbol_dsl.p1_calls": calls("symbol_dsl.p1"),
        "symbol_dsl.p2_calls": calls("symbol_dsl.p2"),
        "symbol_dsl.eval_ms": ms("symbol_dsl.p1") + ms("symbol_dsl.p2"),
        "symbol_dsl.points_per_call": counts["symbol_dsl.points"] / dsl_calls if dsl_calls else 0.0,
        "symbol_dsl.parse_ms": ms("symbol_dsl.parse_expr"),
        "geometry.point_calls": calls("geometry.point"),
        "geometry.point_ms": ms("geometry.point"),
        "specfun.legendre_calls": calls("specfun.assoc_legendre_norm"),
        "specfun.legendre_ms": ms("specfun.assoc_legendre_norm"),
        "specfun.recurrence_steps": counts["specfun.recurrence_steps"],
        "lineintegral.calls": calls("lineintegral.integrate_restriction"),
        "lineintegral.self_ms": self_ms("lineintegral."),
        "lineintegral.nodes": counts["lineintegral.nodes"],
        "sweep.fit_ms": ms("sweep.fit_decay"),
        "sweep.save_ms": ms("sweep.save_report"),
        "sweep.load_ms": ms("sweep.load_report"),
        "sweep.report_bytes": counts["sweep.report_bytes"],
        "eigensolve.solve_ms": ms("eigensolve.solve_modes"),
        "eigensolve.eigenpairs_ms": ms("eigensolve.eigenpairs"),
        "eigensolve.assemble_ms": ms("eigensolve.assemble_operator"),
        "eigensolve.resample_ms": ms("eigensolve.solve_modes", 1),
        "eigensolve.modes_solved": counts["eigensolve.modes_solved"],
        "eigensolve.cache_hit_ratio": counts["eigensolve.cache_hits"] / cache_calls if cache_calls else 0.0,
        "eigensolve.cache_load_ms": ms("eigensolve.load_modes"),
        "eigensolve.cache_save_ms": ms("eigensolve.save_modes"),
        "eigensolve.cache_bytes_written": counts["eigensolve.cache_bytes_written"],
        "eigensolve.cache_bytes_read": counts["eigensolve.cache_bytes_read"],
        "cli.main_ms": ms("cli.main"),
    }


# metrics that must repeat exactly between two traced passes of one seed
EXACT = (
    "admissibility.points",
    "symbol_dsl.p1_calls",
    "symbol_dsl.p2_calls",
    "symbol_dsl.points_per_call",
    "geometry.point_calls",
    "specfun.legendre_calls",
    "specfun.recurrence_steps",
    "lineintegral.calls",
    "lineintegral.nodes",
    "sweep.report_bytes",
    "eigensolve.modes_solved",
    "eigensolve.cache_hit_ratio",
    "eigensolve.cache_bytes_written",
    "eigensolve.cache_bytes_read",
)
