"""Dark-space scheduling: when must a transmitter pause for a radiometer.

The engine (dark_intervals_many; dark_intervals is its one-site case)
finds, for a network of ground transmitters against a constellation of
(TLE, radiometer) pairs, every interval during which a (buffered) pixel
footprint or scan-line strip subtends each transmitter.  For each
satellite it runs four stages.  What does not depend on the site is
computed once per satellite and window by
_SharedGeometry(elements, spec, window_start, duration_s, policy,
ground_altitude) and shared by every site; the rest runs per site, on a
_SatGeometry(shared, tx) that holds only its transmitter:

1. Prefilter.  Shared: one propagation on a COARSE_STEP_S grid.  Per
   site: visibility_windows keeps the times when the satellite is above
   HORIZON_GUARD_DEG at the transmitter (a satellite below the horizon
   cannot subtend anything).
2. Screen.  Shared: one state, scan axis and edge-footprint reach
   (edge_footprints) per scan line, for the union of the sites' window
   lines.  Per site:
   _lines_near_tx keeps the lines whose scan plane passes close enough to
   the transmitter for a sample to subtend it.
3. Sample margins.  Shared, a few passes at a time (_pass_batches):
   one state per boundary of the sample dwells that any site keeps (every
   sample of the kept lines in scan-line mode), on the scanner's own
   sample grid, where a dwell's end is the next dwell's start; from those,
   footprints at the start and end of every dwell, MARGIN_CHUNK samples at
   a time.  Per site (_dwell_dark): whether the transmitter is dark at
   each end of the dwells it kept.
4. Bisection, per site: a dwell dark at one end only has its boundary
   refined to BISECT_TOL_S, well under 10 ms, in one _bisect_boundary
   call per window.

Padding, merging and attribution (_finalize_schedule) run per site.
Propagation, frames and footprints are elementwise in the samples, so a
site's schedule does not depend on which other sites share the work.
Every state comes from inertial_states, which itu-sim's pixel search and
the flashlight planner call as well; the pixel search also screens scan
lines by their edge_footprints.

brute_force_oracle implements the same subtension predicate by dense time
sampling, without the screen; it is the reference semantics the engine is
tested against.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EmptyConstellation, NotPhaseLocked, WindowTooLarge
from .orbit import (GroundPoint, OrbitalElements, _check_epoch_offset,
                    propagate_many, frames)
from .output import write_csv, write_jsonl
from .radiometer import (BufferPolicy, PolicyKind, RadiometerSpec,
                         ScanLattice, _ellipse_margins,
                         _footprint_arrays, _scan_axis)
from .timeutil import add_seconds, ensure_utc, iso_utc, minutes_since

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

#: A batch of sites' windows (_pass_batches) closes once it holds this
#: many samples of kept lines, summed over sites, even within a pass.  The
#: sites' dwell arrays and margins take under 100 bytes per sample, so
#: this bounds them to about 10 MB however many sites share a pass.
BATCH_SAMPLES = 32 * MARGIN_CHUNK

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


def inertial_states(elements: OrbitalElements, start: datetime, offsets):
    """ECEF positions and inertial velocities (v + w x r, in Earth-fixed
    axes, as the footprint kernel takes them) at start + offsets (s).

    Propagated 4 * MARGIN_CHUNK offsets at a time, so the SGP4 temporaries
    stay bounded, with the bits of one call (pieces of MARGIN_CHUNK
    measured 10 % slower on a 2-day ATMS run).  The epoch guard sees every
    offset first, so a window too far from the epoch is reported by its
    farthest instant.
    """
    offsets = np.asarray(offsets, dtype=float)
    _check_epoch_offset(elements, minutes_since(start, elements.epoch)
                        + offsets / 60.0)
    r, v = np.empty((3, offsets.size)), np.empty((3, offsets.size))
    for i in range(0, offsets.size, 4 * MARGIN_CHUNK):
        part = slice(i, i + 4 * MARGIN_CHUNK)
        r[:, part], v[:, part] = propagate_many(elements, start,
                                                offsets[part])
    return r, frames.inertial_velocity(r, v)


def edge_footprints(r, v_inertial, spec: RadiometerSpec,
                    ground_altitude: float):
    """Footprints of the first and last sample of each scan line, from the
    line's one state (columns of inertial_states).

    Returns centres (3, n, 2), semi_major (n, 2) and miss (n, 2), [..., 0]
    for the first sample.  Footprinted 4 * MARGIN_CHUNK samples at a time
    (MARGIN_CHUNK measured 16 % slower), each piece from a copy of its own
    lines' states: repeating all states at once raised the page faults of
    a 2-day ATMS darkspaces run from 2.6 k to 13.6 k.
    """
    n = r.shape[1]
    boresight = spec.boresight_of(np.tile([0, spec.samples_per_scan - 1], n))
    center, semi_major = np.empty((3, 2 * n)), np.empty(2 * n)
    miss = np.empty(2 * n, dtype=bool)
    for i in range(0, 2 * n, 4 * MARGIN_CHUNK):
        part = slice(i, i + 4 * MARGIN_CHUNK)
        lines = slice(i // 2, (i + 4 * MARGIN_CHUNK) // 2)
        edge = _footprint_arrays(np.repeat(r[:, lines], 2, axis=1),
                                 np.repeat(v_inertial[:, lines], 2, axis=1),
                                 boresight[part], spec, ground_altitude)
        center[:, part] = edge["center"]
        semi_major[part], miss[part] = edge["semi_major"], edge["miss"]
    return (center.reshape(3, n, 2), semi_major.reshape(n, 2),
            miss.reshape(n, 2))


class _SharedGeometry:
    """The site-independent geometry of one satellite/radiometer pair.

    Every site of a network reads the same instance: the coarse
    propagation behind the visibility windows, the per-line state, scan
    axis and edge reach behind the screen, and the footprints behind the
    margins.  Offsets are seconds from the window start; the scan lattice
    counts from the element set epoch, base seconds before the window
    start.
    """

    def __init__(self, elements: OrbitalElements, spec: RadiometerSpec,
                 window_start: datetime, duration_s: float,
                 policy: BufferPolicy, ground_altitude: float):
        self.elements = elements
        self.spec = spec
        self.window_start = window_start
        self.duration_s = duration_s
        self.policy = policy
        self.ground_altitude = ground_altitude
        self.lattice = ScanLattice(spec, elements.epoch)
        self.base = self.lattice.offset(window_start)
        self._line_ids = np.zeros(0, dtype=np.int64)
        self._lines = {"r": np.zeros((3, 0)), "axis": np.zeros((3, 0)),
                       "speed": np.zeros(0), "reach": np.zeros(0)}

    def tau(self, offsets):
        """Window offsets (s) -> scan-phase offsets from the epoch."""
        return self.base + np.asarray(offsets, dtype=float)

    def states(self, offsets):
        """inertial_states at window offsets (s)."""
        return inertial_states(self.elements, self.window_start, offsets)

    @cached_property
    def coarse(self):
        """The COARSE_STEP_S grid over the window and the positions on it,
        propagated on first use."""
        n = int(np.ceil(self.duration_s / COARSE_STEP_S)) + 1
        offsets = np.minimum(np.arange(n + 1) * COARSE_STEP_S,
                             self.duration_s)
        return offsets, self.states(offsets)[0]

    def cache_lines(self, lines) -> None:
        """Compute the screen geometry of the lines not yet cached.

        Per line, at its first sample: the position r, the scan axis, the
        speed bound V and the edge reach (1 + s) A of _lines_near_tx, from
        the line's edge_footprints.

        The incremental, sorted cache stays although every caller passes
        the union of its lines once.  Keeping the first computed arrays
        as they are instead gave byte-identical schedules, but on a 2-day
        ATMS darkspaces run (seed 7, one Xeon core, 10 alternating runs)
        it raised the minor page faults from 10 k to 32 k and the median
        time from 0.45 s to 0.53 s; the margin stage alone went from about
        10 faults to 12-15 k (seeds 0 and 7).  The sorted copy is
        allocated late, above the line stage's freed temporaries, so glibc
        does not trim the top of the heap between the MARGIN_CHUNK pieces
        of the margin stage and fault it back in.  (With a 32 MB trim
        threshold both versions ran equally fast.)
        """
        new = _unique_ids(np.asarray(lines, dtype=np.int64))
        if self._line_ids.size:
            at = np.minimum(np.searchsorted(self._line_ids, new),
                            self._line_ids.size - 1)
            new = new[self._line_ids[at] != new]
        if new.size == 0:
            return
        r, v = self.states(self.lattice.tau(new) - self.base)
        _, axis = _scan_axis(r, v)
        _, semi_major, miss = edge_footprints(r, v, self.spec,
                                              self.ground_altitude)
        reach = ((1.0 + _SCREEN_SLACK) * self.policy.buffer_multiplier
                 * semi_major.max(axis=1))
        reach = np.where(miss.any(axis=1), np.inf, reach)
        speed = (np.linalg.norm(v, axis=0)
                 + frames.OMEGA_EARTH * np.linalg.norm(r, axis=0)
                 + _ACCEL_BOUND * self.spec.scan_period)
        computed = {"r": r, "axis": axis, "speed": speed, "reach": reach}
        ids = np.concatenate((self._line_ids, new))
        order = np.argsort(ids)
        self._line_ids = ids[order]
        self._lines = {key: np.concatenate((self._lines[key], value),
                                           axis=-1)[..., order]
                       for key, value in computed.items()}

    def line_geometry(self, lines) -> dict:
        """The screen geometry of each of the given lines (cache_lines)."""
        self.cache_lines(lines)
        at = np.searchsorted(self._line_ids, lines)
        return {key: value[..., at] for key, value in self._lines.items()}


class _SatGeometry:
    """One transmitter's view of a satellite/radiometer pair; the
    site-independent work lives in shared, which every site of a network
    reads."""

    def __init__(self, shared: _SharedGeometry, tx: GroundPoint):
        self.shared = shared
        self.tx = tx
        self.tx_ecef = tx.ecef()

    def margins(self, offsets, boresight_deg):
        """Inflated-ellipse margin of the transmitter for given samples,
        each propagated at its own offset."""
        offsets = np.asarray(offsets, dtype=float)
        return _margins_many(
            self.shared, [self], [np.arange(offsets.size)],
            np.asarray(boresight_deg, dtype=float),
            lambda part: self.shared.states(offsets[part]))[0]

    def visibility_windows(self):
        """Coarse intervals (s offsets) when the satellite may be in view."""
        offsets, r = self.shared.coarse
        el, _, _ = frames.look_angles_from_ecef(
            r, self.tx_ecef.reshape(3, 1), self.tx.latitude,
            self.tx.longitude)
        # Each run of grid points above the guard, widened by one step on
        # both sides; runs whose widened spans touch are merged.
        mask = np.concatenate(([False], np.atleast_1d(el) > HORIZON_GUARD_DEG,
                               [False]))
        edges = np.flatnonzero(mask[1:] != mask[:-1])
        if edges.size == 0:
            return []
        lo = np.maximum(0.0, offsets[edges[::2]] - COARSE_STEP_S)
        hi = np.minimum(self.shared.duration_s,
                        offsets[edges[1::2] - 1] + COARSE_STEP_S)
        apart = np.flatnonzero(lo[1:] > hi[:-1])
        return list(zip(lo[np.concatenate(([0], apart + 1))].tolist(),
                        hi[np.concatenate((apart, [hi.size - 1]))].tolist()))


#: The footprint fields _ellipse_margins reads.
_MARGIN_FIELDS = ("center", "u_major", "u_minor", "semi_major", "semi_minor",
                  "miss")


def _margins_many(shared: _SharedGeometry, geoms, columns, boresight_deg,
                  states):
    """Margins of several sites over one set of samples of a satellite.

    boresight_deg gives the samples' boresights and states(part) the
    ECEF positions and inertial velocities of the samples in slice part,
    each (3, part size); columns[k] lists the samples site geoms[k] needs.
    Footprints are built once per MARGIN_CHUNK samples, and every site
    that needs samples of the chunk evaluates its margins there.
    Footprints do not depend on which other samples are computed with
    them, so each site gets the margins of evaluating its own samples
    alone.
    """
    out = [np.empty(cols.size) for cols in columns]
    order = [np.argsort(cols, kind="stable") for cols in columns]
    columns = [cols[o] for cols, o in zip(columns, order)]
    for i in range(0, boresight_deg.size, MARGIN_CHUNK):
        part = slice(i, i + MARGIN_CHUNK)
        r, v = states(part)
        arrays = _footprint_arrays(r, v, boresight_deg[part], shared.spec,
                                   shared.ground_altitude)
        for geom, cols, o, margins in zip(geoms, columns, order, out):
            a, b = np.searchsorted(cols, (i, i + MARGIN_CHUNK))
            if a == b:
                continue
            at = cols[a:b] - i
            margins[o[a:b]] = _ellipse_margins(
                {key: arrays[key][..., at] for key in _MARGIN_FIELDS},
                geom.tx_ecef, shared.policy.buffer_multiplier)
    return out


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
    satellite position, v the velocity that _SharedGeometry.states returns
    (the inertial velocity in Earth-fixed axes), a = unit(v_perp) the scan
    axis, v_perp the part of v normal to the geodetic up at r (both from
    radiometer._scan_axis, whose up is the closed-form frames.geodetic_up,
    and about which _footprint_arrays rotates every boresight), tx the
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

    n the mean motion and e the eccentricity of the element set.  r, a, V
    and (1 + s) A do not depend on the transmitter: geom.shared computes
    them once per line for every site (_SharedGeometry.cache_lines), and
    only the terms in tx are evaluated here.  Why the bound holds:

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
    shared = geom.shared
    period = shared.spec.scan_period
    line = shared.line_geometry(lines)
    reach, speed = line["reach"], line["speed"]
    big_m = ((frames.WGS84_B + shared.ground_altitude) ** 2
             / (frames.WGS84_A + shared.ground_altitude))
    zeta = abs(geom.tx.altitude - shared.ground_altitude) + reach ** 2 / big_m
    mean_motion = shared.elements.mean_motion * 2.0 * np.pi / 86400.0
    ecc = shared.elements.eccentricity
    turn_rate = 1.5 * (mean_motion * (1.0 + ecc) ** 2
                       / (1.0 - ecc ** 2) ** 1.5 + frames.OMEGA_EARTH)
    to_tx = geom.tx_ecef.reshape(3, 1) - line["r"]
    bound = reach + zeta + period * (
        speed + turn_rate * (np.linalg.norm(to_tx, axis=0) + speed * period))
    return np.abs(np.sum(line["axis"] * to_tx, axis=0)) <= bound


def _screen_windows(shared: _SharedGeometry, geoms, cover):
    """Per site, (w0, w1, kept line ids) for each of its visibility windows.

    cover(w0, w1) gives the scan lines that cover a window.  The shared
    line geometry is computed for the union of every site's window lines
    at once; then each site screens the lines of all its windows with one
    _lines_near_tx call.
    """
    ranges = [[(w0, w1, cover(w0, w1))
               for w0, w1 in geom.visibility_windows()]
              for geom in geoms]
    shared.cache_lines(_concat_ids(ids for site in ranges
                                   for _, _, ids in site))
    out = []
    for geom, site in zip(geoms, ranges):
        lines = [ids for _, _, ids in site]
        keep = np.split(_lines_near_tx(geom, _concat_ids(lines)),
                        np.cumsum([ids.size for ids in lines])[:-1])
        out.append([(w0, w1, ids[k])
                    for (w0, w1, ids), k in zip(site, keep)])
    return out


def _pass_batches(sites, samples_per_scan: int):
    """Group the sites' screened windows into batches.

    A pass is a maximal run of windows, across all sites, that overlap or
    touch in time.  A batch takes windows in time order and closes at the
    end of a pass once its windows hold MARGIN_CHUNK samples of kept
    lines, so that footprints are built in full chunks and shared by the
    sites of each pass; it also closes within a pass at BATCH_SAMPLES, so
    that memory stays bounded by one batch rather than by the window or
    the number of sites.  sites[k] holds site k's (w0, w1, kept line ids)
    windows in time order.  Returns, per batch, (k, site k's windows in
    the batch) for every site with a window in it.
    """
    batches = []
    end = -np.inf
    size = MARGIN_CHUNK
    for w0, w1, k, j in sorted((w[0], w[1], k, j)
                               for k, windows in enumerate(sites)
                               for j, w in enumerate(windows)):
        if (w0 > end and size >= MARGIN_CHUNK) or size >= BATCH_SAMPLES:
            batches.append({})
            size = 0
        end = max(end, w1)
        size += sites[k][j][2].size * samples_per_scan
        batches[-1].setdefault(k, []).append(sites[k][j])
    return [sorted(batch.items()) for batch in batches]


def _unique_ids(ids):
    """The sorted distinct values of an integer array.

    np.unique gives the same, but its first call in a process imports
    numpy.ma, which takes about 20 ms: a fifth of a short darkspaces run.
    """
    ids = np.sort(ids)
    return ids[np.concatenate((ids[:1] == ids[:1], ids[1:] != ids[:-1]))]


def _concat_ids(parts):
    """np.concatenate for integer ids that also takes no parts."""
    return np.concatenate([np.zeros(0, dtype=np.int64), *parts])


def _dwell_dark(shared: _SharedGeometry, geoms, keys):
    """Whether each site is dark at the start and at the end of its dwells.

    keys[k] names the dwells site geoms[k] needs, as
    line * samples_per_scan + sample.  Dwell key j runs from boundary j to
    boundary j + 1 (ScanLattice.key_tau), so the sorted union of the
    sites' dwell boundaries is propagated once, one state per boundary,
    and every dwell of the sites' union is footprinted once at each end
    from the states of its two boundaries (_margins_many), gathered one
    chunk at a time.  Returns (dark at start, dark at end) boolean arrays
    per site, in the order of its keys.
    """
    union = _unique_ids(_concat_ids(keys))
    bounds = _unique_ids(np.concatenate((union, union + 1)))
    r, v = shared.states(shared.lattice.key_tau(bounds) - shared.base)
    boresight = shared.spec.boresight_of(union % shared.spec.samples_per_scan)
    columns = [np.searchsorted(union, k) for k in keys]
    dark = []
    for at in (np.searchsorted(bounds, union),
               np.searchsorted(bounds, union + 1)):
        margins = _margins_many(shared, geoms, columns, boresight,
                                lambda part, at=at: (r[:, at[part]],
                                                     v[:, at[part]]))
        dark.append([m <= 0.0 for m in margins])
    return list(zip(*dark))


def _pixel_level_spans(shared: _SharedGeometry, geoms):
    """Dark (start, end, line) spans in window offsets, pixel granularity,
    one list per site."""
    spec = shared.spec
    n = spec.samples_per_scan
    dwell = spec.sample_dwell

    def cover(w0, w1):
        first = int(shared.lattice.line_at(shared.tau(w0)))
        n_samples = int(np.ceil((w1 - w0) / dwell)) + n
        return np.arange(first, first + (n_samples - 1) // n + 1)

    out = [[] for _ in geoms]
    for group in _pass_batches(_screen_windows(shared, geoms, cover), n):
        # Per site and window: the dwells of the kept lines in the window,
        # as keys and their start and end offsets (the instants at which
        # _dwell_dark tests them).
        dwells = []
        for _, windows in group:
            site = []
            for w0, w1, kept in windows:
                keys = (kept[:, None] * n + np.arange(n)).ravel()
                starts = shared.lattice.key_tau(keys) - shared.base
                ends = shared.lattice.key_tau(keys + 1) - shared.base
                keep = (ends > w0) & (starts < w1)
                site.append((keys[keep], starts[keep], ends[keep]))
            dwells.append(site)
        flags = _dwell_dark(shared, [geoms[k] for k, _ in group],
                            [_concat_ids(keys for keys, _, _ in site)
                             for site in dwells])

        for (k, _), site, (at_start, at_end) in zip(group, dwells, flags):
            cuts = np.cumsum([keys.size for keys, _, _ in site])[:-1]
            for (keys, starts, ends), d0, d1 in zip(
                    site, np.split(at_start, cuts), np.split(at_end, cuts)):
                # A dwell dark at both ends is dark throughout; one dark at
                # one end only is dark up to or from its margin's crossing.
                dark = d0 | d1
                one = (d0 != d1)[dark]
                keys, d0 = keys[dark], d0[dark]
                s, e = starts[dark], ends[dark]
                if np.any(one):
                    cross = _bisect_boundary(
                        geoms[k], spec.boresight_of(keys[one] % n), s[one],
                        e[one], dark_at_lo=d0[one])
                    e[one] = np.where(d0[one], cross, e[one])
                    s[one] = np.where(d0[one], s[one], cross)
                out[k].extend(zip(s.tolist(), e.tolist(),
                                  (keys // n).tolist()))
    return out


def _line_dark_flags(shared: _SharedGeometry, geoms, lines):
    """Which whole scan lines subtend each site's transmitter (strip test).

    lines[k] holds the lines to test for geoms[k].  A line is dark when
    any of its samples' inflated pixels contains the transmitter at either
    end of the sample's dwell, which makes scan-line schedules an exact
    superset of pixel-level ones.
    """
    n = shared.spec.samples_per_scan
    lines = [np.asarray(ids, dtype=np.int64) for ids in lines]
    flags = _dwell_dark(shared, geoms, [
        (ids[:, None] * n + np.arange(n)).ravel() for ids in lines])
    return [(at_start | at_end).reshape(ids.size, n).any(axis=1)
            for ids, (at_start, at_end) in zip(lines, flags)]


def _scan_line_spans(shared: _SharedGeometry, geoms):
    """Dark (start, end, line) spans at scan-line granularity, one list
    per site."""
    period = shared.spec.scan_period

    def cover(w0, w1):
        return np.arange(int(shared.lattice.line_at(shared.tau(w0))),
                         int(shared.lattice.line_at(shared.tau(w1))) + 1)

    out = [[] for _ in geoms]
    for group in _pass_batches(
            _screen_windows(shared, geoms, cover),
            shared.spec.samples_per_scan):
        kept = [_concat_ids(ids for _, _, ids in windows)
                for _, windows in group]
        flags = _line_dark_flags(shared, [geoms[k] for k, _ in group], kept)
        for (k, _), lines, dark in zip(group, kept, flags):
            for ln in lines[dark]:
                s = shared.lattice.tau(ln) - shared.base
                out[k].append((float(s), float(s + period), int(ln)))
    return out


#: Treat spans separated by less than this as touching (float slack, s).
_MERGE_EPS = 1.0e-9


def _finalize_schedule(per_sat_spans, tx_id, window, policy):
    """Pad, clip, merge and convert spans to a DarkSchedule."""
    start, end = window
    duration = (end - start).total_seconds()
    padded = []
    for sat_id, spans in per_sat_spans:
        for s, e, ln in _merge_spans(spans, gap=_MERGE_EPS):
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


def dark_intervals_many(txs: Sequence[tuple[str, GroundPoint]],
                        sats: Sequence[tuple[OrbitalElements,
                                             RadiometerSpec]],
                        window: tuple[datetime, datetime],
                        policy: BufferPolicy,
                        ground_altitude: float = 0.0) -> list[DarkSchedule]:
    """Compute the dark-space schedules of a network of transmitters.

    txs holds (tx_id, GroundPoint) pairs; one DarkSchedule comes back per
    pair, in order.  Each satellite is propagated, screened and
    footprinted once for every site (see the module docstring), and each
    site's schedule is the one dark_intervals computes for it alone.

    The scan phase origin of each satellite is its element set epoch.
    Intervals are merged per satellite, padded by the policy's temporal pad,
    merged across satellites (attribution goes to the earliest contributor)
    and clipped to the window.
    """
    start, end = _validate_inputs(sats, window, policy)
    duration = (end - start).total_seconds()
    per_site = [[] for _ in txs]
    for elements, spec in sats:
        shared = _SharedGeometry(elements, spec, start, duration, policy,
                                 ground_altitude)
        geoms = [_SatGeometry(shared, point) for _, point in txs]
        if policy.kind is PolicyKind.PIXEL_LEVEL:
            spans = _pixel_level_spans(shared, geoms)
        else:
            spans = _scan_line_spans(shared, geoms)
        for site, site_spans in zip(per_site, spans):
            site.append((elements.satellite_id, site_spans))
    return [_finalize_schedule(site, tx_id, (start, end), policy)
            for (tx_id, _), site in zip(txs, per_site)]


def dark_intervals(tx: GroundPoint,
                   sats: Sequence[tuple[OrbitalElements, RadiometerSpec]],
                   window: tuple[datetime, datetime],
                   policy: BufferPolicy,
                   tx_id: str = "tx",
                   ground_altitude: float = 0.0) -> DarkSchedule:
    """Compute the dark-space schedule for one transmitter: the one-site
    case of dark_intervals_many."""
    return dark_intervals_many([(tx_id, tx)], sats, window, policy,
                               ground_altitude)[0]


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
        shared = _SharedGeometry(elements, spec, start, duration, policy,
                                 ground_altitude)
        geom = _SatGeometry(shared, tx)
        spans = []
        for w0, w1 in geom.visibility_windows():
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
                lines, idx = shared.lattice.index(shared.tau(offsets))
                if policy.kind is PolicyKind.PIXEL_LEVEL:
                    # Each offset's margin in the pixel active at it.
                    dark = geom.margins(offsets, spec.boresight_of(idx)) <= 0.0
                else:
                    uniq, inverse = np.unique(lines, return_inverse=True)
                    dark = _line_dark_flags(shared, [geom], [uniq])[0][inverse]
                # Assemble runs of consecutive dark samples.
                padded_mask = np.concatenate(([False], dark, [False]))
                edges = np.flatnonzero(np.diff(padded_mask.astype(np.int8)))
                for a, b in zip(edges[::2], edges[1::2]):
                    s = offsets[a]
                    e = offsets[b - 1]
                    line = int(lines[a])
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

SCHEDULE_FIELDS = ("tx_id", "satellite_id", "scan_line_index", "start_utc",
                   "end_utc", "policy_kind")


def _schedule_rows(schedules: Sequence[DarkSchedule]):
    """One SCHEDULE_FIELDS row per interval, one schedule after the other."""
    for schedule in schedules:
        for iv in schedule.intervals:
            yield (schedule.tx_id, iv.satellite_id, iv.scan_line_index,
                   iso_utc(iv.start), iso_utc(iv.end),
                   schedule.policy.kind.value)


def write_schedule_csv(schedules: Sequence[DarkSchedule], path,
                       provenance: dict = None) -> None:
    """CSV of the schedules' intervals in the output module's format."""
    write_csv(path, provenance, SCHEDULE_FIELDS, _schedule_rows(schedules))


def write_schedule_jsonl(schedules: Sequence[DarkSchedule], path,
                         provenance: dict = None) -> None:
    """JSONL mirror of the CSV."""
    write_jsonl(path, provenance, SCHEDULE_FIELDS, _schedule_rows(schedules))
