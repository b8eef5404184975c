"""Output checks.  They run outside the timed region.

Each function returns None when the output is correct and a one-line
reason when it is not; the runner counts every call as one operation and
every reason as one failure.
"""
from __future__ import annotations

import hashlib
import json
import random
from datetime import datetime, timedelta
from pathlib import Path

from darkspace.config import ScenarioConfig
from darkspace.geofence import brute_force_oracle, dark_intervals

#: Oracle sampling step and the boundary tolerance that acceptance
#: criterion 5 (tests/test_acceptance.py) applies to the engine.
ORACLE_DT_S = 0.005
ORACLE_TOL_S = 0.010

#: Dark intervals closer than this belong to one pass; the oracle's
#: sub-window pads a pass by PASS_PAD_S, which must stay below the gap so
#: that no other interval is cut.
PASS_GAP_S = 120.0
PASS_PAD_S = 30.0

#: Files whose sha256 is recorded for suburban-itu (digests.json).
ITU_FILES = ("deployment.jsonl", "interference_grid.csv", "compliance.json")


def _parse_utc(text: str) -> datetime:
    return datetime.fromisoformat(text.replace("Z", "+00:00"))


def file_digests(out_dir: Path) -> dict:
    """File name -> sha256 hex digest, for every file in out_dir."""
    out = {}
    for path in sorted(p for p in Path(out_dir).iterdir() if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[path.name] = h.hexdigest()
    return out


def check_identical(first: dict, other: dict):
    """Two repetitions' digests must match file for file."""
    if first.keys() != other.keys():
        return f"file sets differ: {sorted(first)} vs {sorted(other)}"
    changed = [name for name in first if first[name] != other[name]]
    if changed:
        return f"files differ between repetitions: {changed}"
    return None


def check_digests(out_dir: Path, expected):
    """suburban-itu outputs must match the digests recorded for its seed."""
    if expected is None:
        return "no digests recorded for this config seed"
    got = file_digests(out_dir)
    changed = [name for name in expected if got.get(name) != expected[name]]
    if changed:
        return f"differs from recorded digest: {changed}"
    return None


def read_schedule(out_dir: Path) -> dict:
    """tx_id -> sorted [(start, end)] from darkspaces' schedule.jsonl."""
    schedule = {}
    with open(Path(out_dir) / "schedule.jsonl", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if "provenance" in row:
                continue
            schedule.setdefault(row["tx_id"], []).append(
                (_parse_utc(row["start_utc"]), _parse_utc(row["end_utc"])))
    for ivs in schedule.values():
        ivs.sort()
    return schedule


def sample_passes(schedule: dict, window, rng: random.Random, n: int):
    """n random passes as (tx_id, sub-window start, sub-window end).

    A pass is a run of one transmitter's intervals with gaps below
    PASS_GAP_S, padded by PASS_PAD_S and clipped to the window.
    """
    passes = []
    for tx_id in sorted(schedule):
        group = None
        for start, end in schedule[tx_id]:
            if group and (start - group[1]).total_seconds() < PASS_GAP_S:
                group[1] = max(group[1], end)
            else:
                if group:
                    passes.append((tx_id, *group))
                group = [start, end]
        if group:
            passes.append((tx_id, *group))
    pad = timedelta(seconds=PASS_PAD_S)
    chosen = rng.sample(passes, min(n, len(passes)))
    return [(tx_id, max(window[0], lo - pad), min(window[1], hi + pad))
            for tx_id, lo, hi in sorted(chosen)]


def check_oracle(config: ScenarioConfig, schedule: dict, tx_id: str,
                 lo: datetime, hi: datetime):
    """The engine's intervals in [lo, hi] against brute_force_oracle.

    Same rule as acceptance criterion 5: engine slivers that contain no
    oracle grid point are set aside, then the interval counts must match
    and every boundary must agree within ORACLE_TOL_S.  In addition every
    oracle-dark sample must lie inside an engine interval (within the same
    tolerance): the engine may never report white where the oracle is dark.
    """
    point = next(p for i, p, _ in config.transmitters() if i == tx_id)
    oracle = brute_force_oracle(point, config.satellites(), (lo, hi),
                                config.policy(), dt=ORACLE_DT_S, tx_id=tx_id,
                                ground_altitude=config.ground_altitude())
    dt = ORACLE_DT_S
    engine = [((s - lo).total_seconds(), (e - lo).total_seconds())
              for s, e in schedule.get(tx_id, []) if e > lo and s < hi]
    observable = [(a, b) for a, b in engine
                  if -(-a // dt) * dt <= b + 1e-9]
    reference = [((iv.start - lo).total_seconds(),
                  (iv.end - lo).total_seconds()) for iv in oracle.intervals]
    where = f"{tx_id} {lo.isoformat()}"
    if len(observable) != len(reference):
        return (f"{where}: {len(observable)} engine intervals vs "
                f"{len(reference)} oracle intervals")
    for (a, b), (c, d) in zip(observable, reference):
        if abs(a - c) > ORACLE_TOL_S or abs(b - d) > ORACLE_TOL_S:
            return (f"{where}: boundary off by "
                    f"{max(abs(a - c), abs(b - d)) * 1e3:.2f} ms")
    for c, d in reference:
        first, last = c + dt / 2.0, d - dt / 2.0
        if not any(a - ORACLE_TOL_S <= first and last <= b + ORACLE_TOL_S
                   for a, b in engine):
            return f"{where}: oracle-dark samples at +{first:.3f} s are white"
    return None


def engine_schedule(config: ScenarioConfig) -> dict:
    """The schedule ``experiment`` plans against, in read_schedule's form:
    the engine's dark intervals for its transmitter and satellite (the
    first of each)."""
    tx_id, point, _ = config.transmitters()[0]
    sched = dark_intervals(point, config.satellites()[:1], config.window(),
                           config.policy(), tx_id=tx_id,
                           ground_altitude=config.ground_altitude())
    return {tx_id: [(iv.start, iv.end) for iv in sched.intervals]}


def check_pulses(exp_dir: Path, schedule: dict, max_pulse_s: float):
    """Every pulse lies inside a dark interval of its transmitter and lasts
    no longer than max_pulse_s."""
    with open(Path(exp_dir) / "pulses.csv", encoding="utf-8") as fh:
        rows = [ln.rstrip("\n").split(",") for ln in fh
                if not ln.startswith("#")][1:]
    for row in rows:
        tx_id, on, off = row[0], _parse_utc(row[2]), _parse_utc(row[3])
        if (off - on).total_seconds() > max_pulse_s:
            return f"pulse at {row[2]} lasts {(off - on).total_seconds()} s"
        if not any(s <= on and off <= e for s, e in schedule.get(tx_id, [])):
            return f"pulse at {row[2]} is outside every dark interval"
    return None
