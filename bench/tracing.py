"""Span tracing for the benchmark's traced run.

The program is not instrumented.  Instead, wrappers are patched onto the
names that callers resolve at call time: a module attribute for functions
imported by name (``geofence`` imports ``propagate_many`` and
``_footprint_arrays`` by name, so those are patched in ``geofence`` as well
as in their home modules) and a class attribute for methods.  Each call
records a span (name, id, parent id, start, end, error flag, work counts)
in memory; the child process writes them out when it ends.

A target that no longer exists (a function deleted or renamed by a later
change) is skipped and recorded in ``Tracer.missing``; its metrics are
dropped instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float
    error: bool = False
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# Work-count extractors: (args, kwargs, result) -> {count name: number}.
# Only the fields of the program's own arguments and results are read.


def _size(x) -> int:
    return int(np.size(x))


def _points(r) -> int:
    r = np.asarray(r)
    return int(r.shape[1]) if r.ndim == 2 else 1


def _sgp4(args, kwargs, result):
    return {"states": _size(args[1])}


def _frames(args, kwargs, result):
    return {"points": _points(args[0])}


def _propagate_many(args, kwargs, result):
    return {"states": _size(args[2])}


def _footprints(args, kwargs, result):
    return {"footprints": _size(result["miss"])}


def _ellipse_margins(args, kwargs, result):
    return {"margins": _size(result)}


def _footprints_batch(args, kwargs, result):
    return {"footprints": len(result)}


def _dark_intervals(args, kwargs, result):
    sats = args[1]
    window = args[2]
    days = (window[1] - window[0]).total_seconds() / 86400.0
    return {"tx_sat_days": len(sats) * days,
            "intervals": len(result.intervals),
            "dark_s": result.total_dark_seconds()}


def _visibility(args, kwargs, result):
    return {"windows": len(result),
            "kept_s": float(sum(hi - lo for lo, hi in result))}


def _sat_margins(args, kwargs, result):
    result = np.asarray(result)
    return {"evals": _size(result), "hits": int(np.count_nonzero(result <= 0.0))}


def _plan(args, kwargs, result):
    return {"passes": result.diagnostics["passes_considered"],
            "pulses": len(result.pulses)}


def _records(args, kwargs, result):
    return {"records": len(result)}


def _deploy(args, kwargs, result):
    return {"emitters": len(result)}


def _arrays(args, kwargs, result):
    return {"emitters": len(args[1])}


def _aggregate(args, kwargs, result):
    return {"pixels": 1, "emitters_scanned": len(args[2])}


def _written_bytes(path_index):
    def work(args, kwargs, result):
        return {"bytes": os.path.getsize(args[path_index])}
    return work


def _itu_pixels(args, kwargs, result):
    return {"kept": len(result[1])}


#: span name -> ((module, qualified attribute), ...), work extractor.
TARGETS = (
    ("orbit.sgp4", (("darkspace.orbit.sgp4", "SGP4Model.position_velocity"),),
     _sgp4),
    ("orbit.teme_to_ecef", (("darkspace.orbit.frames", "teme_to_ecef"),),
     _frames),
    ("orbit.geodetic", (("darkspace.orbit.frames", "ecef_to_geodetic"),),
     _frames),
    ("orbit.propagate", (("darkspace.orbit", "propagate"),
                         ("darkspace.experiment", "propagate")), None),
    ("orbit.propagate_many", (("darkspace.orbit", "propagate_many"),
                              ("darkspace.geofence", "propagate_many"),
                              ("darkspace.cli", "propagate_many")),
     _propagate_many),
    ("radiometer.footprints", (("darkspace.radiometer", "_footprint_arrays"),
                               ("darkspace.geofence", "_footprint_arrays")),
     _footprints),
    ("radiometer.margins", (("darkspace.radiometer", "_ellipse_margins"),
                            ("darkspace.geofence", "_ellipse_margins")),
     _ellipse_margins),
    ("radiometer.pixel_footprint", (("darkspace.radiometer", "pixel_footprint"),
                                    ("darkspace.experiment",
                                     "pixel_footprint")), None),
    ("radiometer.footprints_batch", (("darkspace.radiometer",
                                      "footprints_batch"),
                                     ("darkspace.cli", "footprints_batch")),
     _footprints_batch),
    ("geofence.dark_intervals", (("darkspace.geofence", "dark_intervals"),
                                 ("darkspace.experiment", "dark_intervals"),
                                 ("darkspace.cli", "dark_intervals")),
     _dark_intervals),
    ("geofence.visibility", (("darkspace.geofence",
                              "_SatGeometry.visibility_windows"),),
     _visibility),
    ("geofence.margins", (("darkspace.geofence", "_SatGeometry.margins"),),
     _sat_margins),
    ("geofence.bisect", (("darkspace.geofence", "_bisect_boundary"),), None),
    ("experiment.plan", (("darkspace.experiment", "plan_experiment"),
                         ("darkspace.cli", "plan_experiment")), _plan),
    ("experiment.overlap", (("darkspace.experiment",
                             "ellipse_overlap_fraction"),), None),
    ("experiment.audit", (("darkspace.experiment", "safety_audit"),
                          ("darkspace.cli", "safety_audit")), None),
    ("experiment.exclusions", (("darkspace.experiment", "exclusion_records"),
                               ("darkspace.cli", "exclusion_records")),
     _records),
    ("propagation.deploy", (("darkspace.propagation", "generate_deployment"),
                            ("darkspace.cli", "generate_deployment")),
     _deploy),
    ("propagation.arrays", (("darkspace.propagation",
                             "DeploymentArrays.__init__"),), _arrays),
    ("propagation.aggregate", (("darkspace.propagation",
                                "aggregate_interference"),
                               ("darkspace.cli", "aggregate_interference")),
     _aggregate),
    ("propagation.write_jsonl", (("darkspace.propagation",
                                  "write_deployment_jsonl"),
                                 ("darkspace.cli", "write_deployment_jsonl")),
     _written_bytes(1)),
    ("propagation.write_grid", (("darkspace.propagation",
                                 "write_interference_grid_csv"),
                                ("darkspace.cli",
                                 "write_interference_grid_csv")),
     _written_bytes(2)),
    ("propagation.compliance", (("darkspace.propagation", "compliance"),
                                ("darkspace.cli", "compliance")), None),
    ("linkbudget.fspl", (("darkspace.linkbudget", "fspl_db"),
                         ("darkspace.propagation", "fspl_db"),
                         ("darkspace.experiment", "fspl_db"),
                         ("darkspace.cli", "fspl_db")), None),
    ("linkbudget.atmosphere", (("darkspace.linkbudget",
                                "CosecantModel.loss_db"),
                               ("darkspace.linkbudget", "TableModel.loss_db")),
     None),
    ("cli.itu_pixels", (("darkspace.cli", "_itu_pixels"),), _itu_pixels),
    ("cli.darkspaces", (("darkspace.cli", "cmd_darkspaces"),), None),
    ("cli.experiment", (("darkspace.cli", "cmd_experiment"),), None),
    ("cli.itu_sim", (("darkspace.cli", "cmd_itu_sim"),), None),
    ("config", tuple(("darkspace.config", f"ScenarioConfig.{m}") for m in (
        "load", "apply_overrides", "provenance", "satellites",
        "transmitters", "window", "policy", "atmosphere",
        "linkbudget_params", "itu_params", "experiment_params")), None),
)

#: Spans that are one CLI subcommand; everything a subcommand does nests
#: under one of them.
COMMAND_SPANS = ("cli.darkspaces", "cli.experiment", "cli.itu_sim")

_WORK_ERRORS = (AttributeError, TypeError, KeyError, IndexError, ValueError,
                OSError)


class Tracer:
    """Collects spans from the wrappers it installs; one per process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack = [0]
        self._next_id = 0
        self._patches = []

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._next_id += 1
            span = Span(self._next_id, self._stack[-1], name, 0.0, 0.0)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if work is not None:
                try:
                    span.work = work(args, kwargs, result)
                except _WORK_ERRORS:
                    # The program's signature changed under the extractor;
                    # the span still counts, its work count is dropped.
                    span.work = {}
            return result
        return wrapper

    def install(self, targets=TARGETS) -> None:
        for name, locations, work in targets:
            patched = 0
            for module_name, qualname in locations:
                found = _resolve(module_name, qualname)
                if found is None:
                    continue
                owner, attr, raw = found
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self.wrap(name, raw.__func__, work))
                else:
                    new = self.wrap(name, raw, work)
                setattr(owner, attr, new)
                self._patches.append((owner, attr, raw))
                patched += 1
            if not patched:
                self.missing.add(name)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def _resolve(module_name, qualname):
    """(owner, attribute, raw value) for a dotted name, or None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr)
    if raw is None:
        return None
    return owner, attr, raw


# --- analysis -------------------------------------------------------------


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.end, s.end))
                   for c in children[s.id]]
        out[s.id] = s.duration - _covered([iv for iv in clipped
                                           if iv[1] > iv[0]])
    return out


def command_self_seconds(spans) -> float:
    """Self time summed over every span nested in a subcommand span."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    total = 0.0
    for s in spans:
        node = s
        while node.parent and node.name not in COMMAND_SPANS:
            node = by_id[node.parent]
        if node.name in COMMAND_SPANS:
            total += selfs[s.id]
    return total


def span_to_list(s: Span) -> list:
    return [s.id, s.parent, s.name, s.start, s.end, s.error, s.work]


def span_from_list(row) -> Span:
    return Span(*row)


# --- per-layer metrics ----------------------------------------------------


@dataclass
class _Agg:
    calls: int = 0
    errors: int = 0
    self_s: float = 0.0
    inclusive_s: float = 0.0
    work: Counter = field(default_factory=Counter)


def aggregate(span_lists, missing=()) -> dict:
    """Totals per span name over several processes' spans.

    Every installed span name gets an entry (zero calls if never called);
    a name in ``missing`` gets none, so metrics built on it are dropped.
    Spans are also totalled under ``name@parent_name``, which gives the
    work a function did on behalf of one caller (margins evaluated while
    bisecting, footprints built for itu-sim pixels).
    """
    agg = defaultdict(_Agg)
    for name, _, _ in TARGETS:
        if name not in missing:
            agg[name] = _Agg()
    for spans in span_lists:
        by_id = {s.id: s for s in spans}
        selfs = self_times(spans)
        for s in spans:
            keys = [s.name]
            if s.parent:
                keys.append(f"{s.name}@{by_id[s.parent].name}")
            for key in keys:
                a = agg[key]
                a.calls += 1
                a.errors += int(s.error)
                a.self_s += selfs[s.id]
                a.inclusive_s += s.duration
                a.work.update(s.work)
    return dict(agg)


def _entry(agg, name) -> _Agg:
    """agg[name]; a ``child@parent`` pair never seen is zero when both
    spans are installed, and a KeyError (metric dropped) otherwise."""
    if name in agg:
        return agg[name]
    child, _, parent = name.partition("@")
    if parent and child in agg and parent in agg:
        return _Agg()
    raise KeyError(name)


def _calls(name):
    return lambda a: _entry(a, name).calls


def _self(*names):
    return lambda a: sum(_entry(a, n).self_s for n in names)


def _work(name, key):
    return lambda a: _entry(a, name).work[key]


def _per(num, den):
    def ratio(a):
        d = den(a)
        return num(a) / d if d else 0.0
    return ratio


def _inclusive(name):
    return lambda a: _entry(a, name).inclusive_s


#: (metric, unit, better, deterministic, value from the aggregate).
#: Deterministic metrics are work counts and must repeat exactly.
LAYER_METRICS = (
    ("orbit.sgp4.calls", "count", "lower", True, _calls("orbit.sgp4")),
    ("orbit.sgp4.states", "count", "lower", True,
     _work("orbit.sgp4", "states")),
    ("orbit.sgp4.self_s", "s", "lower", False, _self("orbit.sgp4")),
    ("orbit.sgp4.states_per_s", "1/s", "higher", False,
     _per(_work("orbit.sgp4", "states"), _self("orbit.sgp4"))),
    ("orbit.teme_to_ecef.self_s", "s", "lower", False,
     _self("orbit.teme_to_ecef")),
    ("orbit.geodetic.points", "count", "lower", True,
     _work("orbit.geodetic", "points")),
    ("orbit.geodetic.self_s", "s", "lower", False, _self("orbit.geodetic")),
    ("orbit.geodetic.points_per_s", "1/s", "higher", False,
     _per(_work("orbit.geodetic", "points"), _self("orbit.geodetic"))),
    ("orbit.propagate.calls", "count", "lower", True,
     _calls("orbit.propagate")),
    ("orbit.propagate.self_s", "s", "lower", False,
     _self("orbit.propagate")),
    ("orbit.propagate_many.calls", "count", "lower", True,
     _calls("orbit.propagate_many")),
    ("orbit.propagate_many.self_s", "s", "lower", False,
     _self("orbit.propagate_many")),
    ("radiometer.footprints", "count", "lower", True,
     _work("radiometer.footprints", "footprints")),
    ("radiometer.footprints.calls", "count", "lower", True,
     _calls("radiometer.footprints")),
    ("radiometer.footprints.self_s", "s", "lower", False,
     _self("radiometer.footprints")),
    ("radiometer.footprints_per_s", "1/s", "higher", False,
     _per(_work("radiometer.footprints", "footprints"),
          _self("radiometer.footprints"))),
    ("radiometer.margins", "count", "lower", True,
     _work("radiometer.margins", "margins")),
    ("radiometer.margins.self_s", "s", "lower", False,
     _self("radiometer.margins")),
    ("radiometer.pixel_footprint.calls", "count", "lower", True,
     _calls("radiometer.pixel_footprint")),
    ("radiometer.pixel_footprint.self_s", "s", "lower", False,
     _self("radiometer.pixel_footprint")),
    ("radiometer.footprints_batch.footprints", "count", "lower", True,
     _work("radiometer.footprints_batch", "footprints")),
    ("radiometer.footprints_batch.self_s", "s", "lower", False,
     _self("radiometer.footprints_batch")),
    ("geofence.dark_intervals.calls", "count", "lower", True,
     _calls("geofence.dark_intervals")),
    ("geofence.dark_intervals.self_s", "s", "lower", False,
     _self("geofence.dark_intervals")),
    ("geofence.tx_sat_days", "day", "lower", True,
     _work("geofence.dark_intervals", "tx_sat_days")),
    ("geofence.tx_sat_days_per_s", "day/s", "higher", False,
     _per(_work("geofence.dark_intervals", "tx_sat_days"),
          _inclusive("geofence.dark_intervals"))),
    ("geofence.visibility.windows", "count", "lower", True,
     _work("geofence.visibility", "windows")),
    ("geofence.visibility.kept_s", "s", "lower", True,
     _work("geofence.visibility", "kept_s")),
    ("geofence.visibility.self_s", "s", "lower", False,
     _self("geofence.visibility")),
    ("geofence.margin_evals", "count", "lower", True,
     _work("geofence.margins", "evals")),
    ("geofence.margin_evals.bisect", "count", "lower", True,
     _work("geofence.margins@geofence.bisect", "evals")),
    ("geofence.margin_hit_ratio", "ratio", "higher", True,
     _per(_work("geofence.margins", "hits"),
          _work("geofence.margins", "evals"))),
    ("geofence.margins.self_s", "s", "lower", False,
     _self("geofence.margins")),
    ("geofence.bisect.calls", "count", "lower", True,
     _calls("geofence.bisect")),
    ("geofence.bisect.self_s", "s", "lower", False,
     _self("geofence.bisect")),
    ("geofence.intervals", "count", "lower", True,
     _work("geofence.dark_intervals", "intervals")),
    ("geofence.dark_s", "s", "lower", True,
     _work("geofence.dark_intervals", "dark_s")),
    ("experiment.plan.self_s", "s", "lower", False,
     _self("experiment.plan")),
    ("experiment.passes", "count", "higher", True,
     _work("experiment.plan", "passes")),
    ("experiment.pulses", "count", "higher", True,
     _work("experiment.plan", "pulses")),
    ("experiment.pulse_yield", "ratio", "higher", True,
     _per(_work("experiment.plan", "pulses"),
          _work("experiment.plan", "passes"))),
    ("experiment.overlap.calls", "count", "lower", True,
     _calls("experiment.overlap")),
    ("experiment.overlap.self_s", "s", "lower", False,
     _self("experiment.overlap")),
    ("experiment.audit.self_s", "s", "lower", False,
     _self("experiment.audit")),
    ("experiment.exclusions.records", "count", "lower", True,
     _work("experiment.exclusions", "records")),
    ("experiment.exclusions.self_s", "s", "lower", False,
     _self("experiment.exclusions")),
    ("propagation.deploy.emitters", "count", "lower", True,
     _work("propagation.deploy", "emitters")),
    ("propagation.deploy.self_s", "s", "lower", False,
     _self("propagation.deploy")),
    ("propagation.arrays.self_s", "s", "lower", False,
     _self("propagation.arrays")),
    ("propagation.aggregate.pixels", "count", "lower", True,
     _work("propagation.aggregate", "pixels")),
    ("propagation.aggregate.emitters_scanned", "count", "lower", True,
     _work("propagation.aggregate", "emitters_scanned")),
    ("propagation.aggregate.self_s", "s", "lower", False,
     _self("propagation.aggregate")),
    ("propagation.write_jsonl.bytes", "B", "lower", True,
     _work("propagation.write_jsonl", "bytes")),
    ("propagation.write_jsonl.self_s", "s", "lower", False,
     _self("propagation.write_jsonl")),
    ("propagation.write_grid.self_s", "s", "lower", False,
     _self("propagation.write_grid")),
    ("propagation.compliance.self_s", "s", "lower", False,
     _self("propagation.compliance")),
    ("linkbudget.fspl.calls", "count", "lower", True,
     _calls("linkbudget.fspl")),
    ("linkbudget.atmosphere.calls", "count", "lower", True,
     _calls("linkbudget.atmosphere")),
    ("linkbudget.self_s", "s", "lower", False,
     _self("linkbudget.fspl", "linkbudget.atmosphere")),
    ("cli.itu_pixels.footprinted", "count", "lower", True,
     _work("radiometer.footprints@cli.itu_pixels", "footprints")),
    ("cli.itu_pixels.kept", "count", "higher", True,
     _work("cli.itu_pixels", "kept")),
    ("cli.itu_pixels.keep_ratio", "ratio", "higher", True,
     _per(_work("cli.itu_pixels", "kept"),
          _work("radiometer.footprints@cli.itu_pixels", "footprints"))),
    ("cli.itu_pixels.self_s", "s", "lower", False, _self("cli.itu_pixels")),
    ("cli.darkspaces.self_s", "s", "lower", False, _self("cli.darkspaces")),
    ("cli.experiment.self_s", "s", "lower", False, _self("cli.experiment")),
    ("cli.itu_sim.self_s", "s", "lower", False, _self("cli.itu_sim")),
    ("config.calls", "count", "lower", True, _calls("config")),
    ("config.self_s", "s", "lower", False, _self("config")),
    ("trace.errors", "count", "lower", True,
     lambda a: sum(v.errors for k, v in a.items() if "@" not in k)),
)


def layer_metrics(agg) -> dict:
    """Metric name -> value; metrics whose spans are missing are dropped."""
    out = {}
    for name, _, _, _, value in LAYER_METRICS:
        try:
            out[name] = value(agg)
        except KeyError:
            continue
    return out
