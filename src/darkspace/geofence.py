"""Dark-space scheduling: when must a transmitter pause for a radiometer.

The engine finds, for one ground transmitter against a constellation of
(TLE, radiometer) pairs, every interval during which a (buffered) pixel
footprint or scan-line strip subtends the transmitter.  For each
satellite it runs four stages:

1. Prefilter: visibility_windows keeps the times, on a COARSE_STEP_S
   grid, when the satellite is above HORIZON_GUARD_DEG at the transmitter
   (a satellite below the horizon cannot subtend anything).
2. Screen: _lines_near_tx keeps the scan lines of those windows whose
   scan plane passes close enough to the transmitter for a sample to
   subtend it, from one state and two edge footprints per line.
3. Sample margins: the subtension margin at the start and end of every
   sample dwell of the kept lines, on the scanner's own sample grid,
   MARGIN_CHUNK samples at a time.
4. Bisection: where the margin changes sign within a dwell, the boundary
   is refined to BISECT_TOL_S, well under 10 ms.

brute_force_oracle implements the same subtension predicate by dense time
sampling, without the screen; it is the reference semantics the engine is
tested against.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime
from typing import Sequence

import numpy as np

from .errors import EmptyConstellation, NotPhaseLocked, WindowTooLarge
from .orbit import GroundPoint, OrbitalElements, propagate_many, frames
from .radiometer import (BufferPolicy, PolicyKind, RadiometerSpec,
                         ScanLattice, _ellipse_margins, _footprint_arrays,
                         _scan_axis)
from .timeutil import add_seconds, ensure_utc, iso_utc

#: Coarse prefilter: step (s) and below-horizon guard (deg).  The
#: prefilter is exact only while every buffered footprint that contains
#: the transmitter is seen from a satellite above HORIZON_GUARD_DEG at the
#: transmitter.  BufferPolicy puts no upper bound on buffer_multiplier,
#: and a large enough multiplier inflates an edge footprint past the
#: transmitter's horizon: the margin predicate then holds at times the
#: prefilter drops, and the engine and the oracle both miss them.  The
#: screen's near-side argument (_lines_near_tx) relies on the same windows.
COARSE_STEP_S = 30.0
HORIZON_GUARD_DEG = -2.0

#: Boundary bisection stops when the bracket is this small (s).
BISECT_TOL_S = 0.002

#: Margins are evaluated this many samples at a time, which bounds the
#: footprint temporaries (a few dozen 3 x n float arrays) to a few MB.
MARGIN_CHUNK = 4096

#: Scan-plane screen (_lines_near_tx): relative allowance on the edge
#: semi-major for how it changes within one scan period, and a bound on
#: the Earth-fixed acceleration of a LEO satellite (m/s^2): gravity at the
#: surface, 9.8, plus Coriolis, 2 w |v| < 1.2, plus centrifugal, < 0.04.
_SCREEN_SLACK = 0.01
_ACCEL_BOUND = 12.0

MAX_WINDOW_DAYS = 30.0


@dataclass(frozen=True)
class DarkInterval:
    """One dark-space interval, attributed to the satellite and scan line
    that opened it."""
    start: datetime
    end: datetime
    satellite_id: str
    scan_line_index: int

    @property
    def duration(self) -> float:
        return (self.end - self.start).total_seconds()


@dataclass(frozen=True)
class DarkSchedule:
    """Merged, ordered dark intervals for one transmitter over a window."""
    tx_id: str
    intervals: tuple
    window: tuple[datetime, datetime]
    policy: BufferPolicy

    def total_dark_seconds(self) -> float:
        return sum(iv.duration for iv in self.intervals)

    def window_seconds(self) -> float:
        return (self.window[1] - self.window[0]).total_seconds()


@dataclass(frozen=True)
class AvailabilityReport:
    """White/dark accounting for a schedule.

    dark_mode records whether dark time is spent paused or migrated to
    another band (the traffic-migration hook); effective_availability is the
    service availability under that handling.
    """
    white_fraction: float
    dark_fraction: float
    white_to_dark_ratio: float
    per_satellite_breakdown: dict
    dark_mode: str = "paused"
    effective_availability: float = None

    def __post_init__(self):
        if self.effective_availability is None:
            eff = (1.0 if self.dark_mode == "migrated"
                   else self.white_fraction)
            object.__setattr__(self, "effective_availability", eff)


# --- internal machinery ------------------------------------------------------


class _SatGeometry:
    """Vectorized margin evaluation for one satellite/radiometer pair.

    Offsets are seconds from the window start; the scan lattice counts
    from the element set epoch, base seconds before the window start.
    """

    def __init__(self, elements: OrbitalElements, spec: RadiometerSpec,
                 window_start: datetime, tx: GroundPoint,
                 policy: BufferPolicy, ground_altitude: float):
        self.elements = elements
        self.spec = spec
        self.window_start = window_start
        self.tx = tx
        self.tx_ecef = tx.ecef()
        self.policy = policy
        self.ground_altitude = ground_altitude
        self.lattice = ScanLattice(spec, elements.epoch)
        self.base = self.lattice.offset(window_start)

    def tau(self, offsets):
        """Window offsets (s) -> scan-phase offsets from the epoch."""
        return self.base + np.asarray(offsets, dtype=float)

    def states(self, offsets):
        r, v = propagate_many(self.elements, self.window_start,
                              np.asarray(offsets, dtype=float))
        omega = np.array([0.0, 0.0, frames.OMEGA_EARTH]).reshape(3, 1)
        v_inertial = v + np.cross(omega, r, axis=0)
        return r, v_inertial

    def margins(self, offsets, boresight_deg):
        """Inflated-ellipse margin of the transmitter for given samples.

        Evaluated MARGIN_CHUNK samples at a time; footprints do not depend
        on which other samples are computed with them.
        """
        offsets = np.asarray(offsets, dtype=float)
        boresight_deg = np.asarray(boresight_deg, dtype=float)
        out = np.empty(offsets.shape)
        for i in range(0, offsets.size, MARGIN_CHUNK):
            part = slice(i, i + MARGIN_CHUNK)
            r, v = self.states(offsets[part])
            arrays = _footprint_arrays(r, v, boresight_deg[part], self.spec,
                                       self.ground_altitude)
            out[part] = _ellipse_margins(arrays, self.tx_ecef,
                                         self.policy.buffer_multiplier)
        return out

    def margins_at(self, offsets):
        """Margin of the sample active at each offset (its own pixel)."""
        offsets = np.asarray(offsets, dtype=float)
        _, idx = self.lattice.index(self.tau(offsets))
        return self.margins(offsets, self.spec.boresight_of(idx))

    def visibility_windows(self, duration_s: float):
        """Coarse intervals (s offsets) when the satellite may be in view."""
        n = int(np.ceil(duration_s / COARSE_STEP_S)) + 1
        offsets = np.minimum(np.arange(n + 1) * COARSE_STEP_S, duration_s)
        r, _ = self.states(offsets)
        el, _, _ = frames.look_angles_from_ecef(
            r, self.tx_ecef.reshape(3, 1), self.tx.latitude,
            self.tx.longitude)
        mask = np.atleast_1d(el) > HORIZON_GUARD_DEG
        windows = []
        i = 0
        while i < len(mask):
            if mask[i]:
                j = i
                while j + 1 < len(mask) and mask[j + 1]:
                    j += 1
                lo = max(0.0, offsets[i] - COARSE_STEP_S)
                hi = min(duration_s, offsets[j] + COARSE_STEP_S)
                if windows and lo <= windows[-1][1]:
                    windows[-1] = (windows[-1][0], hi)
                else:
                    windows.append((lo, hi))
                i = j + 1
            else:
                i += 1
        return windows


def _merge_spans(spans, gap: float = 0.0):
    """Merge overlapping/adjacent (start, end, *payload) spans, sorted."""
    if not spans:
        return []
    spans = sorted(spans, key=lambda s: (s[0], s[1]))
    merged = [spans[0]]
    for span in spans[1:]:
        last = merged[-1]
        if span[0] <= last[1] + gap:
            if span[1] > last[1]:
                merged[-1] = (last[0], span[1], *last[2:])
        else:
            merged.append(span)
    return merged


def _bisect_boundary(geom: _SatGeometry, boresight: np.ndarray,
                     lo: np.ndarray, hi: np.ndarray,
                     dark_at_lo: np.ndarray) -> np.ndarray:
    """Locate the margin zero crossing inside (lo, hi) per element.

    dark_at_lo says which end of the bracket is inside the subtension
    region; the returned offsets are accurate to BISECT_TOL_S.
    """
    lo = lo.copy()
    hi = hi.copy()
    while np.any(hi - lo > BISECT_TOL_S):
        mid = 0.5 * (lo + hi)
        dark_mid = geom.margins(mid, boresight) <= 0.0
        # When lo is dark the boundary sits where dark ends.
        go_right = dark_mid == dark_at_lo
        lo = np.where(go_right, mid, lo)
        hi = np.where(go_right, hi, mid)
    return 0.5 * (lo + hi)


def _lines_near_tx(geom: _SatGeometry, lines: np.ndarray) -> np.ndarray:
    """Keep-mask: True for each scan line that can subtend the transmitter.

    Take one state per line, at its first sample (time t0): r the
    satellite position, v the velocity that _SatGeometry.states returns
    (the inertial velocity in Earth-fixed axes), a = unit(v_perp) the scan
    axis as _footprint_arrays computes it (radiometer._scan_axis), tx the
    transmitter and T the scan period.  A sample of the line can have
    margin <= 0 only if

        |a . (tx - r)| <= R = (1 + s) A + zeta
                              + T (V + Omega (|tx - r| + V T))

    with A = buffer_multiplier * the larger semi_major of the two edge
    samples, s = _SCREEN_SLACK, V = |v| + w |r| + G T (w the Earth's
    rotation rate, G = _ACCEL_BOUND), M = B'**2 / A' the smallest radius
    of curvature of the ground-altitude ellipsoid (semi-axes A', B') and

        zeta  = |h_tx - h_ground| + ((1 + s) A)**2 / M
        Omega = 1.5 (n (1 + e)**2 / (1 - e**2)**1.5 + w)

    n the mean motion and e the eccentricity of the element set.  Why:

    - Every boresight is nadir rotated about a, and a is orthogonal to
      nadir, so every footprint centre c(t) lies in the scan plane through
      r(t) with normal a(t): a(t) . (tx - r(t)) = a(t) . (tx - c(t)).
    - margin <= 0 puts tx - c within m * semi_major of c in the tangent
      plane at c (m the buffer multiplier, the minor axis is shorter).
      semi_major is largest at the scan edges; s covers how it changes
      within one scan period as the altitude changes.
    - zeta bounds the offset of tx from that tangent plane along the
      surface normal at c.  The ellipsoid's curvature is at most 1 / M, so
      the ball of radius M tangent inside it at c lies inside it, and a
      surface point a tangent distance rho <= (1 + s) A from c lies at
      most M - sqrt(M**2 - rho**2) <= rho**2 / M below the plane; tx sits
      |h_tx - h_ground| off that surface.  This holds on the near side of
      the Earth only (the point where the normal line meets the surface
      first); a transmitter on the far side has the same tangent-plane
      offset.  The visibility windows guarantee the near side: the
      satellite is above HORIZON_GUARD_DEG at tx (a few degrees lower in
      the COARSE_STEP_S margins) and c is in its view, so the central
      angle between c and tx stays below 90 degrees for satellites below
      about 2,500 km.
    - The last term bounds how far the plane moves and turns within one
      scan period, through the last sample's end at t0 + T.  The
      Earth-fixed velocity is at most |v| + w |r| at t0 and changes by at
      most G per second (gravity plus Coriolis and centrifugal terms), so
      V bounds the speed and |tx - r| + V T the distance over the line.
      The scan axis turns no faster than the velocity direction of a
      Keplerian orbit at perigee plus the Earth's rotation; Omega adds
      half of that again for perturbations and the projection off nadir.

    A line whose edge rays miss the Earth gets R = inf.
    """
    spec = geom.spec
    period = spec.scan_period
    r, v = geom.states(geom.lattice.tau(lines) - geom.base)
    _, axis = _scan_axis(r, v)
    n = lines.size
    edges = spec.boresight_of(np.tile([0, spec.samples_per_scan - 1], n))
    edge = _footprint_arrays(np.repeat(r, 2, axis=1),
                             np.repeat(v, 2, axis=1), edges, spec,
                             geom.ground_altitude)
    reach = ((1.0 + _SCREEN_SLACK) * geom.policy.buffer_multiplier
             * edge["semi_major"].reshape(n, 2).max(axis=1))
    reach = np.where(edge["miss"].reshape(n, 2).any(axis=1), np.inf, reach)

    big_m = ((frames.WGS84_B + geom.ground_altitude) ** 2
             / (frames.WGS84_A + geom.ground_altitude))
    zeta = abs(geom.tx.altitude - geom.ground_altitude) + reach ** 2 / big_m
    mean_motion = geom.elements.mean_motion * 2.0 * np.pi / 86400.0
    ecc = geom.elements.eccentricity
    turn_rate = 1.5 * (mean_motion * (1.0 + ecc) ** 2
                       / (1.0 - ecc ** 2) ** 1.5 + frames.OMEGA_EARTH)
    speed = (np.linalg.norm(v, axis=0)
             + frames.OMEGA_EARTH * np.linalg.norm(r, axis=0)
             + _ACCEL_BOUND * period)
    to_tx = geom.tx_ecef.reshape(3, 1) - r
    bound = reach + zeta + period * (
        speed + turn_rate * (np.linalg.norm(to_tx, axis=0) + speed * period))
    return np.abs(np.sum(axis * to_tx, axis=0)) <= bound


def _screen_windows(geom: _SatGeometry, ranges):
    """Kept scan lines of each visibility window.

    ranges holds (w0, w1, first line, last line) per window; the lines of
    all windows are screened by _lines_near_tx in one call.  Returns
    (w0, w1, kept line ids) per window.
    """
    lines = [np.arange(first, last + 1) for _, _, first, last in ranges]
    if not lines:
        return []
    keep = np.split(_lines_near_tx(geom, np.concatenate(lines)),
                    np.cumsum([ids.size for ids in lines])[:-1])
    return [(w0, w1, ids[k])
            for (w0, w1, _, _), ids, k in zip(ranges, lines, keep)]


def _pixel_level_spans(geom: _SatGeometry, duration_s: float):
    """Dark (start, end, line) spans in window offsets, pixel granularity."""
    spec = geom.spec
    n = spec.samples_per_scan
    dwell = spec.sample_dwell
    ranges = []
    for w0, w1 in geom.visibility_windows(duration_s):
        first = int(geom.lattice.line_at(geom.tau(w0)))
        n_samples = int(np.ceil((w1 - w0) / dwell)) + n
        ranges.append((w0, w1, first, first + (n_samples - 1) // n))
    spans = []
    for w0, w1, kept in _screen_windows(geom, ranges):
        lines = np.repeat(kept, n)
        idx = np.tile(np.arange(n), kept.size)
        starts = geom.lattice.tau(lines, idx) - geom.base
        keep = (starts + dwell > w0) & (starts < w1)
        lines, idx, starts = lines[keep], idx[keep], starts[keep]
        if starts.size == 0:
            continue
        ends = starts + dwell
        boresight = spec.boresight_of(idx)

        m_start = geom.margins(starts, boresight)
        m_end = geom.margins(ends, boresight)
        in_start = m_start <= 0.0
        in_end = m_end <= 0.0

        full = in_start & in_end
        for s, e, ln in zip(starts[full], ends[full], lines[full]):
            spans.append((float(s), float(e), int(ln)))

        enters = ~in_start & in_end
        if np.any(enters):
            cross = _bisect_boundary(geom, boresight[enters],
                                     starts[enters], ends[enters],
                                     dark_at_lo=np.zeros(np.sum(enters),
                                                         dtype=bool))
            for s, e, ln in zip(cross, ends[enters], lines[enters]):
                spans.append((float(s), float(e), int(ln)))

        leaves = in_start & ~in_end
        if np.any(leaves):
            cross = _bisect_boundary(geom, boresight[leaves],
                                     starts[leaves], ends[leaves],
                                     dark_at_lo=np.ones(np.sum(leaves),
                                                        dtype=bool))
            for s, e, ln in zip(starts[leaves], cross, lines[leaves]):
                spans.append((float(s), float(e), int(ln)))
    return spans


def _line_dark_flags(geom: _SatGeometry, lines: np.ndarray):
    """Which whole scan lines subtend the transmitter (strip test).

    A line is dark when any of its samples' inflated pixels contains the
    transmitter at either end of the sample's dwell, which makes scan-line
    schedules an exact superset of pixel-level ones.
    """
    spec = geom.spec
    n = spec.samples_per_scan
    lines = np.asarray(lines, dtype=np.int64)
    if lines.size == 0:
        return np.zeros(0, dtype=bool)
    idx = np.tile(np.arange(n), lines.size)
    offsets = geom.lattice.tau(np.repeat(lines, n), idx) - geom.base
    boresight = spec.boresight_of(idx)
    m_start = geom.margins(offsets, boresight)
    m_end = geom.margins(offsets + spec.sample_dwell, boresight)
    dark = (m_start <= 0.0) | (m_end <= 0.0)
    return dark.reshape(lines.size, n).any(axis=1)


def _scan_line_spans(geom: _SatGeometry, duration_s: float):
    """Dark (start, end, line) spans at scan-line granularity."""
    period = geom.spec.scan_period
    ranges = [(w0, w1, int(geom.lattice.line_at(geom.tau(w0))),
               int(geom.lattice.line_at(geom.tau(w1))))
              for w0, w1 in geom.visibility_windows(duration_s)]
    spans = []
    for _, _, lines in _screen_windows(geom, ranges):
        dark = _line_dark_flags(geom, lines)
        for ln in lines[dark]:
            s = geom.lattice.tau(ln) - geom.base
            spans.append((float(s), float(s + period), int(ln)))
    return spans


#: Treat spans separated by less than this as touching (float slack, s).
_MERGE_EPS = 1.0e-9


def _finalize_schedule(per_sat_spans, tx_id, window, policy):
    """Pad, clip, merge and convert spans to a DarkSchedule."""
    start, end = window
    duration = (end - start).total_seconds()
    padded = []
    for sat_id, spans in per_sat_spans:
        spans = _merge_spans([(s, e, ln) for s, e, ln in spans],
                             gap=_MERGE_EPS)
        for s, e, ln in spans:
            s2 = max(0.0, s - policy.temporal_pad)
            e2 = min(duration, e + policy.temporal_pad)
            if e2 > s2:
                padded.append((s2, e2, (sat_id, ln)))
    merged = _merge_spans(padded, gap=_MERGE_EPS)
    intervals = tuple(
        DarkInterval(start=add_seconds(start, s), end=add_seconds(start, e),
                     satellite_id=payload[0], scan_line_index=payload[1])
        for s, e, payload in merged)
    return DarkSchedule(tx_id=tx_id, intervals=intervals, window=window,
                        policy=policy)


def _validate_inputs(sats, window, policy):
    if not sats:
        raise EmptyConstellation("at least one satellite is required")
    start, end = ensure_utc(window[0]), ensure_utc(window[1])
    if end <= start:
        raise WindowTooLarge("window end must be after start")
    if (end - start).total_seconds() > MAX_WINDOW_DAYS * 86400.0:
        raise WindowTooLarge(
            f"window exceeds {MAX_WINDOW_DAYS:.0f} days")
    if policy.kind is PolicyKind.PIXEL_LEVEL:
        for _, spec in sats:
            if not spec.phase_locked:
                raise NotPhaseLocked(
                    f"radiometer {spec.name} is not phase locked; "
                    "pixel-level geofencing is not available")
    return start, end


# --- public API --------------------------------------------------------------


def dark_intervals(tx: GroundPoint,
                   sats: Sequence[tuple[OrbitalElements, RadiometerSpec]],
                   window: tuple[datetime, datetime],
                   policy: BufferPolicy,
                   tx_id: str = "tx",
                   ground_altitude: float = 0.0) -> DarkSchedule:
    """Compute the dark-space schedule for one transmitter.

    The scan phase origin of each satellite is its element set epoch.
    Intervals are merged per satellite, padded by the policy's temporal pad,
    merged across satellites (attribution goes to the earliest contributor)
    and clipped to the window.
    """
    start, end = _validate_inputs(sats, window, policy)
    duration = (end - start).total_seconds()
    per_sat = []
    for elements, spec in sats:
        geom = _SatGeometry(elements, spec, start, tx, policy,
                            ground_altitude)
        if policy.kind is PolicyKind.PIXEL_LEVEL:
            spans = _pixel_level_spans(geom, duration)
        else:
            spans = _scan_line_spans(geom, duration)
        per_sat.append((elements.satellite_id, spans))
    return _finalize_schedule(per_sat, tx_id, (start, end), policy)


def brute_force_oracle(tx: GroundPoint,
                       sats: Sequence[tuple[OrbitalElements,
                                            RadiometerSpec]],
                       window: tuple[datetime, datetime],
                       policy: BufferPolicy,
                       dt: float,
                       tx_id: str = "tx",
                       ground_altitude: float = 0.0,
                       chunk: int = 200_000) -> DarkSchedule:
    """Reference schedule by dense time sampling every dt seconds.

    Evaluates the subtension predicate exactly at each sample and assembles
    maximal runs of subtended samples into intervals.  Samples where the
    satellite is provably below the horizon are skipped (they cannot
    subtend), which leaves the result identical to exhaustive sampling.
    Cost is O(window / dt); intervals shorter than dt can be missed, so
    tests must choose dt well below the expected interval durations.

    The oracle does not use the engine's scan-plane screen
    (_lines_near_tx): it evaluates every dt sample of every visibility
    window.  It does share visibility_windows (the horizon prefilter),
    _footprint_arrays and _ellipse_margins with the engine, so engine and
    oracle agree on a defect in those.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    start, end = _validate_inputs(sats, window, policy)
    duration = (end - start).total_seconds()
    per_sat = []
    for elements, spec in sats:
        geom = _SatGeometry(elements, spec, start, tx, policy,
                            ground_altitude)
        spans = []
        for w0, w1 in geom.visibility_windows(duration):
            i0 = int(np.ceil(w0 / dt))
            i1 = int(np.floor(w1 / dt))
            if i1 < i0:
                continue
            sub = None

            def _emit(run):
                # A run of dark samples stands for an interval reaching up
                # to half a step beyond its first and last sample; this
                # keeps single-sample runs non-degenerate and the boundary
                # estimate midpoint-unbiased.
                spans.append((run[0] - dt / 2.0, run[1] + dt / 2.0, run[2]))

            for c0 in range(i0, i1 + 1, chunk):
                c1 = min(c0 + chunk - 1, i1)
                offsets = np.arange(c0, c1 + 1) * dt
                if policy.kind is PolicyKind.PIXEL_LEVEL:
                    dark = geom.margins_at(offsets) <= 0.0
                else:
                    lines, _ = geom.lattice.index(geom.tau(offsets))
                    uniq, inverse = np.unique(lines, return_inverse=True)
                    dark = _line_dark_flags(geom, uniq)[inverse]
                # Assemble runs of consecutive dark samples.
                padded_mask = np.concatenate(([False], dark, [False]))
                edges = np.flatnonzero(np.diff(padded_mask.astype(np.int8)))
                for a, b in zip(edges[::2], edges[1::2]):
                    s = offsets[a]
                    e = offsets[b - 1]
                    line = int(geom.lattice.index(geom.tau(s))[0])
                    if sub is not None and s - sub[1] <= dt * 1.5:
                        sub = (sub[0], e, sub[2])
                    else:
                        if sub is not None:
                            _emit(sub)
                        sub = (float(s), float(e), line)
            if sub is not None:
                _emit(sub)
        per_sat.append((elements.satellite_id, spans))
    return _finalize_schedule(per_sat, tx_id, (start, end), policy)


def availability(schedule: DarkSchedule,
                 dark_mode: str = "paused") -> AvailabilityReport:
    """White/dark-space accounting for a schedule.

    dark_fraction is merged dark time over the window; the ratio is
    white/dark (infinite for an empty schedule).  Per-satellite dark seconds
    follow the interval attribution.
    """
    window_s = schedule.window_seconds()
    dark_s = schedule.total_dark_seconds()
    dark_fraction = dark_s / window_s
    white_fraction = 1.0 - dark_fraction
    ratio = float("inf") if dark_s == 0 else white_fraction / dark_fraction
    breakdown = {}
    for iv in schedule.intervals:
        breakdown[iv.satellite_id] = (breakdown.get(iv.satellite_id, 0.0)
                                      + iv.duration)
    return AvailabilityReport(
        white_fraction=white_fraction,
        dark_fraction=dark_fraction,
        white_to_dark_ratio=ratio,
        per_satellite_breakdown=breakdown,
        dark_mode=dark_mode,
    )


# --- serialization -----------------------------------------------------------

SCHEDULE_CSV_HEADER = "tx_id,satellite_id,scan_line_index,start_utc,end_utc,policy_kind"


def write_schedule_csv(schedules: Sequence[DarkSchedule], path,
                       provenance: Sequence[str] = ()) -> None:
    """CSV of the schedules' intervals, one schedule after the other;
    provenance lines become leading '#' comments."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in provenance:
            fh.write(f"# {line}\n")
        fh.write(SCHEDULE_CSV_HEADER + "\n")
        for schedule in schedules:
            for iv in schedule.intervals:
                fh.write(",".join([
                    schedule.tx_id,
                    iv.satellite_id,
                    str(iv.scan_line_index),
                    iso_utc(iv.start),
                    iso_utc(iv.end),
                    schedule.policy.kind.value,
                ]) + "\n")


def write_schedule_jsonl(schedules: Sequence[DarkSchedule], path,
                         provenance: dict = None) -> None:
    """JSONL mirror of the CSV; an optional provenance record leads."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if provenance is not None:
            fh.write(json.dumps({"provenance": provenance},
                                sort_keys=True) + "\n")
        for schedule in schedules:
            for iv in schedule.intervals:
                fh.write(json.dumps({
                    "tx_id": schedule.tx_id,
                    "satellite_id": iv.satellite_id,
                    "scan_line_index": iv.scan_line_index,
                    "start_utc": iso_utc(iv.start),
                    "end_utc": iso_utc(iv.end),
                    "policy_kind": schedule.policy.kind.value,
                }, sort_keys=True) + "\n")
