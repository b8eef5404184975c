"""Dark-space scheduling: when must a transmitter pause for a radiometer.

The engine (dark_intervals_many; dark_intervals is its one-site case)
finds, for a network of ground transmitters against a constellation of
(TLE, radiometer) pairs, every interval during which a (buffered) pixel
footprint or scan-line strip subtends each transmitter.  For each
satellite it runs the stages below on one object, _SatGeometry(elements,
spec, window_start, duration_s, policy, ground_altitude, points), which
computes what does not depend on the site once for every site and holds
the sites as columns.  Each stage runs once over the rows of all sites
(a row names its site by index), in blocks of rows (_chunks: of sites,
windows or kept lines) that keep the temporaries bounded.  From the
screen to the spans the windows stay columns, (site, w0, w1, kept dwell
count), and their kept dwell keys one flat array, window after window:

1. Prefilter.  Shared: one propagation on a COARSE_STEP_S grid.  Over
   (site, grid point): _visibility keeps, per site, the times when the
   satellite is above HORIZON_GUARD_DEG at the transmitter (a satellite
   below the horizon cannot subtend anything).
2. Screen.  Shared: one table (_SatGeometry.line_geometry) of the state,
   geodetic up, scan axis and edge-footprint reach (edge_footprints) of
   each distinct line of the sites' windows and of the line after each,
   computed once and dropped after the screen.  Over (site, window, line)
   rows, built one block of windows at a time, each gathering its line's
   column of the table and the larger reach of its line and the next:
   _dwells_near_tx keeps, on each line whose scan plane passes close
   enough to the site's transmitter for a sample to subtend it, the range
   of samples whose scan angle comes close enough to the transmitter's.
2b. Dwell bound.  Shared: the footprint reach of each sample that any
   site keeps on a line, at the line's first sample and at the next
   line's (_reach_ratios), once per dwell for every site.  Over (site,
   dwell) rows (_dwells_in_reach): whether the transmitter lies close
   enough to the dwell's own boresight for its footprint to reach it
   within the scan period.
3. Sample margins, a few passes at a time: _pass_batches numbers each
   window's batch, and a batch gathers its windows' rows by their
   offsets into the kept keys.  Shared: one state per boundary of the
   dwells the screens keep for any site (pixel level: only those that
   overlap a visibility window), on the scanner's own sample grid, where
   a dwell's end is the next dwell's start; from those, footprints at
   the start and end of every dwell, MARGIN_CHUNK samples at a time.
   Over (site, dwell) rows (_dwell_dark): whether the transmitter is
   dark at each end of the dwell.
4. Bisection, pixel level only: a dwell dark at one end only has its
   boundary refined to BISECT_TOL_S, well under 10 ms, in one
   _bisect_boundary call per batch over every site's brackets.

Both policies share one path through stages 3 and 4 (_dark_spans).
Padding, merging and attribution (_finalize_schedule) run per site.
Propagation, frames, screens and footprints are elementwise in the rows,
so a site's schedule does not depend on which other sites share the work
or a block.  Every call names a site by its index, one per row;
_SatGeometry.visibility_windows is the one-site view of stage 1, and
_SatGeometry.margins evaluates stage 3's margins at any instants.  Every
state comes from inertial_states, which the flashlight planner and
itu-sim's pixel search (pixels_in_box) call as well.  The pixel search
screens scan lines by their edge_footprints too, at both ends of each
line, with the same slack (_SCREEN_SLACK) and motion bound (_speed_bound)
as _dwells_near_tx.

brute_force_oracle implements the same subtension predicate by dense time
sampling, without the screens, one site at a time; it is the reference
semantics the engine is tested against.
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
                         ScanLattice, _ellipse_margins, _footprint_arrays,
                         _ranges, _scan_axis, footprints_batch)
from .timeutil import add_seconds, ensure_utc, iso_utc, minutes_since

#: Coarse prefilter: step (s) and below-horizon guard (deg).  The
#: prefilter is exact only while every buffered footprint that contains
#: the transmitter is seen from a satellite above HORIZON_GUARD_DEG at the
#: transmitter.  BufferPolicy puts no upper bound on buffer_multiplier,
#: and a large enough multiplier inflates an edge footprint past the
#: transmitter's horizon: the margin predicate then holds at times the
#: prefilter drops, and the engine and the oracle both miss them.  The
#: screens' near-side argument (_dwells_near_tx, _dwells_in_reach) relies
#: on the same windows.
COARSE_STEP_S = 30.0
HORIZON_GUARD_DEG = -2.0

#: Boundary bisection stops when the bracket is this small (s).
BISECT_TOL_S = 0.002

#: Margins are evaluated this many samples at a time, which bounds the
#: footprint temporaries (a few dozen 3 x n float arrays) to a few MB.
MARGIN_CHUNK = 4096

#: A batch of sites' windows (_pass_batches) closes once it holds this
#: many kept samples, summed over sites, even within a pass.  The
#: sites' dwell arrays and margins take under 100 bytes per sample, so
#: this bounds them to about 10 MB however many sites share a pass.
BATCH_SAMPLES = 32 * MARGIN_CHUNK

#: Line screens (_dwells_near_tx, pixels_in_box): relative allowance on a
#: line's edge reach for how far it rises within one scan period above
#: the larger of its values at the period's two ends, and a bound on the
#: Earth-fixed acceleration of a LEO satellite (m/s^2): gravity, 9.8, plus
#: Coriolis, 2 w |v| < 1.2, plus centrifugal, < 0.04.
_SCREEN_SLACK = 0.01
_ACCEL_BOUND = 12.0

#: brute_force_oracle evaluates a visibility window this many dt samples
#: at a time; a run of dark samples continues across the cut.
ORACLE_CHUNK = 200_000

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


def _speed_bound(r, v_inertial, period):
    """V = |v| + w |r| + G T, both line screens' bound on the Earth-fixed
    speed v - w x r over the T = period seconds after a state (columns of
    inertial_states): at most |v| + w |r| then, changing by at most
    G = _ACCEL_BOUND per second (w the Earth's rotation rate)."""
    return (np.linalg.norm(v_inertial, axis=0)
            + frames.OMEGA_EARTH * np.linalg.norm(r, axis=0)
            + _ACCEL_BOUND * period)


def pixels_in_box(satellite: tuple[OrbitalElements, RadiometerSpec],
                  window: tuple[datetime, datetime], bbox, max_pixels: int,
                  ground_altitude: float = 0.0):
    """The radiometer pixels of the window whose centres fall in the box.

    bbox is a propagation.GeoBox.  Returns (sat_r, footprints): the
    PixelFootprints (footprints_batch) of every sample whose dwell starts
    in the window and whose centre lies in the box, evenly strided down to
    max_pixels, and sat_r (3, n), the satellite's ECEF position at the
    start of each one's sample.  A centre is in the box when its latitude
    is, and its longitude or that longitude + 360 is, so a box that crosses
    the antimeridian (lon_max > 180) keeps the centres west of it.

    Only scan lines within swath reach of the box are footprinted.  Take
    one state per line, at its first sample: G the ground point beneath
    the satellite, c_first and c_last the footprint centres of the line's
    edge samples, E = max(|c_first - G|, |c_last - G|), E' the same at the
    next line's first state, V = _speed_bound, T the scan period.  Every
    footprint centre c of the line then satisfies

        |c - G| <= rho = (1 + s) max(E, E') + V T

    with s = _SCREEN_SLACK, because at one state the centre moves away
    from G monotonically with |boresight| (the scan plane cuts the
    ellipsoid in a convex curve); the line's last sample starts less than
    T later, in which time the satellite moves at most V T and G, its
    nearest point on the convex ground-altitude surface, no farther; and
    s covers the edge reach's rise within those T seconds above the
    larger of its two ends (one end alone may be exceeded by more than s
    on an eccentric orbit).  On that surface a chord rho reaches at most
    dlat in latitude and dlon in longitude (frames.surface_reach_deg), so
    a line can only have a centre in the box when G's geodetic latitude
    and longitude satisfy

        lat_min - dlat <= lat_G <= lat_max + dlat
        |lon_G - lon_mid| <= (lon_max - lon_min) / 2 + dlon

    with the longitude difference wrapped into [-180, 180].  A line whose
    edge rays miss the Earth gets rho = inf.  Every line that fails the
    test has no sample centred in the box, and footprints do not depend on
    which other samples are computed with them, so the pixels, the stride
    and their bits are those of footprinting every sample of the window.
    For the same reason the window's lines are screened 4 * MARGIN_CHUNK at
    a time, with the line after the chunk for its last line's E', keeping
    only the kept lines' ids, and the kept lines are propagated and
    footprinted about MARGIN_CHUNK samples at a time, keeping only the
    in-box samples' dwell keys (line * samples_per_scan + sample); the
    strided selection is propagated again.  Memory grows by 8 bytes per kept
    line and per in-box sample, not by the states and footprints of every
    line or sample of the window.
    """
    elements, spec = satellite
    start, end = window
    duration = (end - start).total_seconds()
    lattice = ScanLattice(spec, elements.epoch)
    base = lattice.offset(start)
    period, n = spec.scan_period, spec.samples_per_scan

    first, stop = (int(i) for i in lattice.line_span(base, base + duration))
    # The epoch guard of inertial_states, over every line the screen
    # propagates at once: the window's and the one after its last.
    _check_epoch_offset(elements, minutes_since(start, elements.epoch)
                        + (lattice.tau(np.array([first, stop])) - base)
                        / 60.0)
    kept = [np.zeros(0, dtype=np.int64)]
    for i in range(first, stop, 4 * MARGIN_CHUNK):
        line_ids = np.arange(i, min(i + 4 * MARGIN_CHUNK, stop) + 1)
        r, v = inertial_states(elements, start, lattice.tau(line_ids) - base)
        center, _, miss = edge_footprints(r, v, spec, ground_altitude)
        lat, lon, _ = frames.ecef_to_geodetic(r)
        ground = frames.geodetic_to_ecef(lat, lon, ground_altitude)
        reach = np.linalg.norm(center - ground[:, :, None], axis=0)
        reach = np.where(miss.any(axis=1), np.inf, reach.max(axis=1))
        reach = np.maximum(reach, np.append(reach[1:], np.inf))
        rho = ((1.0 + _SCREEN_SLACK) * reach
               + _speed_bound(r, v, period) * period)
        dlat, dlon = frames.surface_reach_deg(rho, bbox.lat_min,
                                              bbox.lat_max, ground_altitude)
        lon_off = np.abs(frames.wrap_longitude(
            lon - 0.5 * (bbox.lon_min + bbox.lon_max)))
        near = ((lat >= bbox.lat_min - dlat) & (lat <= bbox.lat_max + dlat)
                & (lon_off <= 0.5 * (bbox.lon_max - bbox.lon_min) + dlon))
        kept.append(line_ids[:-1][near[:-1]])
    line_ids = np.concatenate(kept)

    keys = [np.zeros(0, dtype=np.int64)]
    per = max(1, MARGIN_CHUNK // n)
    for i in range(0, line_ids.size, per):
        piece = (line_ids[i:i + per, None] * n + np.arange(n)).ravel()
        offsets = lattice.key_tau(piece) - base
        keep = (offsets >= 0) & (offsets <= duration)
        r, v = inertial_states(elements, start, offsets[keep])
        arrays = _footprint_arrays(r, v, spec.boresight_of(piece[keep] % n),
                                   spec, ground_altitude)
        lat, lon, _ = frames.ecef_to_geodetic(arrays["center"])
        # lon + 360 >= 180 >= lon_min (GeoBox), so only lon_max bounds it.
        inside = ((lat >= bbox.lat_min) & (lat <= bbox.lat_max)
                  & (((lon >= bbox.lon_min) & (lon <= bbox.lon_max))
                     | (lon + 360.0 <= bbox.lon_max))
                  & ~arrays["miss"])
        keys.append(piece[keep][inside])
    keys = np.concatenate(keys)
    if keys.size > max_pixels:
        keys = keys[::int(np.ceil(keys.size / max_pixels))]
    r, v = inertial_states(elements, start, lattice.key_tau(keys) - base)
    return r, footprints_batch(r, v, spec.boresight_of(keys % n), spec,
                               ground_altitude)


class _SatGeometry:
    """One satellite/radiometer pair over a window, and the sites it is
    geofenced against.

    The sites are held as columns in the style of
    propagation.DeploymentArrays: latitude, longitude and altitude (k,),
    their frames.site_trig and their ECEF positions tx_ecef (3, k).  Every
    stage runs once over the rows of all sites, each row naming its site by
    index; a one-site geometry gives the one-site view visibility_windows.
    The site-independent geometry is computed once for every site: the
    coarse propagation behind the visibility windows, the per-line state,
    scan axis and edge reach behind the screen, and the footprints behind
    the margins.  Offsets are seconds from the window start; the scan
    lattice counts from the element set epoch, base seconds before the
    window start.
    """

    def __init__(self, elements: OrbitalElements, spec: RadiometerSpec,
                 window_start: datetime, duration_s: float,
                 policy: BufferPolicy, ground_altitude: float,
                 points: Sequence[GroundPoint]):
        self.elements = elements
        self.spec = spec
        self.window_start = window_start
        self.duration_s = duration_s
        self.policy = policy
        self.ground_altitude = ground_altitude
        self.lattice = ScanLattice(spec, elements.epoch)
        self.base = self.lattice.offset(window_start)
        self.points = points
        self.lat = np.array([p.latitude for p in points], dtype=float)
        self.lon = np.array([p.longitude for p in points], dtype=float)
        self.alt = np.array([p.altitude for p in points], dtype=float)
        self.trig = frames.site_trig(self.lat, self.lon)
        self.tx_ecef = frames.trig_to_ecef(self.trig, self.alt)

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

    def line_geometry(self, lines) -> dict:
        """The screen geometry of each of the given scan lines, one column
        per line: at the line's first sample, the position r, the inertial
        velocity v, the geodetic up and the scan axis, the speed bound V and
        the edge reach (1 + s) m max(semi_major) of the line's
        edge_footprints (_dwells_near_tx reads the larger of a line's and
        the next line's).  Columns are elementwise: a line passed twice is
        computed twice."""
        r, v = self.states(self.lattice.tau(lines) - self.base)
        up, axis = _scan_axis(r, v)
        _, semi_major, miss = edge_footprints(r, v, self.spec,
                                              self.ground_altitude)
        reach = ((1.0 + _SCREEN_SLACK) * self.policy.buffer_multiplier
                 * semi_major.max(axis=1))
        return {"r": r, "v": v, "up": up, "axis": axis,
                "speed": _speed_bound(r, v, self.spec.scan_period),
                "reach": np.where(miss.any(axis=1), np.inf, reach)}

    def margins(self, offsets, boresight_deg, site):
        """Inflated-ellipse margin of site[i] in sample i, each sample
        propagated at its own offset."""
        offsets = np.asarray(offsets, dtype=float)
        return _margins_many(
            self, site, np.arange(offsets.size),
            np.asarray(boresight_deg, dtype=float),
            lambda part: self.states(offsets[part]))

    def visibility_windows(self):
        """Coarse intervals (s offsets) when the satellite may be in view of
        a one-site geometry's site (_visibility)."""
        _, lo, hi = _visibility(self)
        return list(zip(lo.tolist(), hi.tolist()))


def _chunks(counts, limit):
    """Non-empty slices of consecutive rows, in order, that cover every row
    once: cut after each row at which the running count (counts[i] for row
    i) reaches or passes a multiple of limit, and before each row of more
    than limit, so a chunk's count is at most limit plus its last row's,
    and a row of more than limit is a chunk of its own.  The stages are
    elementwise in their rows, so the cuts bound the temporaries and change
    no result."""
    total = np.cumsum(counts)
    cuts = np.searchsorted(total, np.arange(
        limit, total[-1] if total.size else 0, limit))
    bounds = _unique_ids(np.concatenate(
        ([0], cuts + 1, np.flatnonzero(counts > limit), [total.size])))
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _visibility(geom: _SatGeometry):
    """(site, lo, hi): every site's coarse windows (s offsets) when the
    satellite may be in view, site after site, each site's in time order.

    One frames.enu_look per block of sites (_chunks of MARGIN_CHUNK
    (site, coarse point) rows) gives the elevations; each run of a site's
    grid points above HORIZON_GUARD_DEG is widened by one step on both
    sides, and a site's runs whose widened spans touch are merged.
    """
    offsets, r = geom.coarse
    width = offsets.size + 2
    out = [(np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0))]
    for part in _chunks(np.full(geom.lat.size, offsets.size), MARGIN_CHUNK):
        rho = r[:, None, :] - geom.tx_ecef[:, part, None]
        _, _, el, _, _ = frames.enu_look(
            rho, [t[part, None] for t in geom.trig])
        # Each row starts and ends False, so no run crosses a site.
        mask = np.zeros((el.shape[0], width), dtype=bool)
        mask[:, 1:-1] = el > HORIZON_GUARD_DEG
        mask = mask.ravel()
        edges = np.flatnonzero(mask[1:] != mask[:-1])
        if edges.size == 0:
            continue
        row = edges[::2] // width
        lo = np.maximum(0.0, offsets[edges[::2] % width] - COARSE_STEP_S)
        hi = np.minimum(geom.duration_s,
                        offsets[edges[1::2] % width - 1] + COARSE_STEP_S)
        apart = np.flatnonzero((lo[1:] > hi[:-1]) | (row[1:] != row[:-1]))
        first = np.concatenate(([0], apart + 1))
        out.append((row[first] + part.start, lo[first],
                    hi[np.concatenate((apart, [hi.size - 1]))]))
    return tuple(np.concatenate(column) for column in zip(*out))


#: The footprint fields _ellipse_margins reads.
_MARGIN_FIELDS = ("center", "u_major", "u_minor", "semi_major", "semi_minor",
                  "miss")


def _margins_many(geom: _SatGeometry, site, columns, boresight_deg, states):
    """Margins of site[i] in sample columns[i], over one set of samples.

    boresight_deg gives the samples' boresights and states(part) the
    ECEF positions and inertial velocities of the samples in slice part,
    each (3, part size).  Footprints are built once per MARGIN_CHUNK
    samples; the rows that read samples of the chunk gather them,
    MARGIN_CHUNK rows at a time, with their sites' positions, for one
    _ellipse_margins call.  Footprints and margins are elementwise, so
    each row gets the bits of evaluating its sample for its site alone.
    """
    out = np.empty(columns.size)
    order = np.argsort(columns, kind="stable")
    columns, site = columns[order], site[order]
    for i in range(0, boresight_deg.size, MARGIN_CHUNK):
        a, b = np.searchsorted(columns, (i, i + MARGIN_CHUNK))
        if a == b:
            continue
        r, v = states(slice(i, i + MARGIN_CHUNK))
        arrays = _footprint_arrays(r, v, boresight_deg[i:i + MARGIN_CHUNK],
                                   geom.spec, geom.ground_altitude)
        for j in range(a, b, MARGIN_CHUNK):
            rows = slice(j, min(j + MARGIN_CHUNK, b))
            at = columns[rows] - i
            out[order[rows]] = _ellipse_margins(
                {key: arrays[key][..., at] for key in _MARGIN_FIELDS},
                geom.tx_ecef[:, site[rows]],
                geom.policy.buffer_multiplier)
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
                     dark_at_lo: np.ndarray, site: np.ndarray) -> np.ndarray:
    """Locate the margin zero crossing of site[i] inside (lo[i], hi[i]).

    dark_at_lo says which end of the bracket is inside the subtension
    region; the returned offsets are accurate to BISECT_TOL_S.  Each
    halving is one margins call over every element still wider than
    BISECT_TOL_S, whatever its site, and an element stops once its own
    bracket is that narrow, so it gets the bits of a call of its own.
    (Brackets one sample_dwell long differ in rounding: with a dwell of
    8 BISECT_TOL_S, about one in nine needs a halving fewer than the
    rest.)
    """
    lo = lo.copy()
    hi = hi.copy()
    active = np.flatnonzero(hi - lo > BISECT_TOL_S)
    while active.size:
        a_lo, a_hi = lo[active], hi[active]
        mid = 0.5 * (a_lo + a_hi)
        dark_mid = geom.margins(mid, boresight[active], site[active]) <= 0.0
        # When lo is dark the boundary sits where dark ends.
        go_right = dark_mid == dark_at_lo[active]
        lo[active] = np.where(go_right, mid, a_lo)
        hi[active] = np.where(go_right, a_hi, mid)
        active = active[hi[active] - lo[active] > BISECT_TOL_S]
    return 0.5 * (lo + hi)


def _turn_rate(elements: OrbitalElements) -> float:
    """Omega of _dwells_near_tx, a bound on the turn rate of the scan axis
    (rad/s)."""
    mean_motion = elements.mean_motion * 2.0 * np.pi / 86400.0
    ecc = elements.eccentricity
    return 1.5 * (mean_motion * (1.0 + ecc) ** 2 / (1.0 - ecc ** 2) ** 1.5
                  + frames.OMEGA_EARTH)


def _dwells_near_tx(geom: _SatGeometry, line: dict, site: np.ndarray):
    """Per row i, the range lo <= j < hi of the samples of row i's scan
    line, whose geometry is column i of line (_SatGeometry.line_geometry),
    that can subtend the transmitter of site[i]: empty (lo = hi = 0) where
    the line's scan plane passes too far from the transmitter (the line
    bound), else the samples whose scan angle comes close enough to the
    transmitter's (the sample bound), which is evaluated only on the rows
    that pass the line bound.  _dwells_in_reach then tightens the sample
    bound dwell by dwell.

    Take one state per line, at its first sample (time t0): r the
    satellite position, v the velocity that _SatGeometry.states returns
    (the inertial velocity in Earth-fixed axes), u the geodetic up at r
    (nadir = -u), a = unit(v_perp) the scan axis, v_perp the part of v
    normal to u (both from radiometer._scan_axis, whose up is the
    closed-form frames.geodetic_up, and about which _footprint_arrays
    rotates every boresight), tx the transmitter, w = tx - r its offset and
    T the scan period.  With A = buffer_multiplier * the largest semi_major
    of the two edge samples here and at the next line's first sample
    (line["reach"] is (1 + s) A), s = _SCREEN_SLACK, V = _speed_bound =
    |v| + w_E |r| + G T (w_E the Earth's rotation rate, G =
    _ACCEL_BOUND), M = B'**2 / A' the smallest radius of curvature of the
    ground-altitude ellipsoid (semi-axes A', B') and

        rho   = (1 + s) A + zeta
        zeta  = |h_tx - h_ground| + ((1 + s) A)**2 / M
        Omega = 1.5 (n (1 + e)**2 / (1 - e**2)**1.5 + w_E)

    (n the mean motion and e the eccentricity of the element set), rho
    bounds how far from a footprint centre of the line the transmitter can
    lie with margin <= 0.  r, u, a, V and each end's (1 + s) A do not
    depend on the transmitter: _SatGeometry.line_geometry computes them
    once per line for every site, and only the terms in tx are evaluated
    here, row by row; w and rho once for both bounds.

    Line bound.  A sample of the line can have margin <= 0 only if

        |a . w| <= R = rho + T (V + Omega (|w| + V T)).

    Why:

    - Every boresight is nadir rotated about a, and a is orthogonal to
      nadir, so every footprint centre c(t) lies in the scan plane through
      r(t) with normal a(t): a(t) . (tx - r(t)) = a(t) . (tx - c(t)).
    - margin <= 0 puts tx - c within m * semi_major of c in the tangent
      plane at c (m the buffer multiplier, the minor axis is shorter).
      semi_major is largest at the scan edges; s covers only its rise
      within the scan period above the larger of its two ends (one end
      alone may be exceeded by more than s on an eccentric orbit).
    - zeta bounds the offset of tx from that tangent plane along the
      surface normal at c.  The ellipsoid's curvature is at most 1 / M, so
      the ball of radius M tangent inside it at c lies inside it, and a
      surface point a tangent distance rho' <= (1 + s) A from c lies at
      most M - sqrt(M**2 - rho'**2) <= rho'**2 / M below the plane; tx sits
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
      Earth-fixed velocity is at most |v| + w_E |r| at t0 and changes by
      at most G per second (gravity plus Coriolis and centrifugal terms),
      so V bounds the speed and |w| + V T the distance over the line.
      The scan axis turns no faster than the velocity direction of a
      Keplerian orbit at perigee plus the Earth's rotation; Omega adds
      half of that again for perturbations and the projection off nadir.

    Sample bound.  Sample j's boresight is _rotate(nadir, a, theta_j) =
    cos(theta_j) nadir + sin(theta_j) (a x nadir), since a is orthogonal
    to nadir, so the transmitter's angle in the scan plane, in the same
    sense, is

        psi = atan2((a x nadir) . w, nadir . w).

    The line keeps the samples with |psi - theta_j| <= Delta, and
    boresight_of is linear in j, so they form one range.  With M0 the
    smallest radius of curvature of the WGS-84 ellipsoid, A' = WGS84_A +
    ground altitude and

        L      = |r| - A' - V T
        D      = |w| - V T
        Omega' = Omega + V / (M0 + |r| - V T - WGS84_A)
        Delta  = asin(rho / L) + T (V / D + Omega'),

    a sample has margin > 0 throughout its dwell, which lies in
    [t0, t0 + T], when |psi - theta_j| > Delta.  Why, at any t in
    [t0, t0 + T] (X(t) a quantity at t, X the one at t0):

    - Angle at the satellite.  margin <= 0 puts tx within rho of the
      footprint centre c (in the tangent plane at c within (1 + s) A, off
      it by at most zeta, as in the line bound).  c - r(t) lies along the
      boresight d_j(t), and |c - r(t)| >= |r(t)| - A' >= L, because c is
      on the ground-altitude ellipsoid and the satellite moves at most
      V T.  So w(t) and d_j(t) are at most asin(rho / L) apart.
    - Motion of w.  w changes at most V per second and stays at least D
      long, so its direction turns by at most V T / D.
    - Turn of the frame.  d_j is fixed in the orthonormal frame (nadir,
      a x nadir, a), whose angular speed is at most the turn rate of
      nadir plus that of a.  Geodetic up turns at most |dr/dt| over the
      radius of curvature of the surface at the point's height, which is
      at least M0 plus the height, and the height is at least
      |r(t)| - WGS84_A; a turns at most Omega (see the line bound).  So
      d_j(t) is within T Omega' of d_j.
    - So w and d_j are less than Delta apart, and when Delta < 90 degrees
      the projection of w into the scan plane is too: for an in-plane
      unit vector d, tan of the in-plane angle between w and d is at most
      tan of the angle itself.

    Every sample of a line that passes the line bound is kept where the
    sample bound does not apply: rho >= L, D <= 0, or Delta >= 90
    degrees.  A line whose edge rays miss the Earth gets rho = inf, so it
    passes the line bound and keeps every sample.  With one sample per
    scan theta_0 = 0, and the range is [0, 1) or empty.
    """
    spec, period = geom.spec, geom.spec.scan_period
    speed, reach = line["speed"], line["reach"]
    to_tx = geom.tx_ecef[:, site] - line["r"]
    distance = np.linalg.norm(to_tx, axis=0)
    rho = reach + (np.abs(geom.alt[site] - geom.ground_altitude)
                   + reach ** 2 / frames.min_curvature_radius(
                       geom.ground_altitude))
    in_plane = (np.abs(np.sum(line["axis"] * to_tx, axis=0))
                <= rho + period * (speed + _turn_rate(geom.elements)
                                   * (distance + speed * period)))
    i = np.flatnonzero(in_plane)
    line = {key: line[key][..., i] for key in ("r", "up", "axis", "speed")}
    to_tx, rho = to_tx[:, i], rho[i]
    near, far, drift = _sample_drift(geom, line, distance[i])
    ok = (rho < near) & (far > 0.0)
    delta = (np.arcsin(np.where(ok, rho, 0.0) / np.where(ok, near, 1.0))
             + drift)
    delta = np.where(ok & (delta < 0.5 * np.pi), np.degrees(delta), np.inf)
    up = line["up"]
    across = frames._cross(up, line["axis"])
    psi = np.degrees(np.arctan2(np.sum(across * to_tx, axis=0),
                                -np.sum(up * to_tx, axis=0)))
    n = spec.samples_per_scan
    first = float(spec.boresight_of(0))
    step = 2.0 * spec.scan_half_angle / max(n - 1, 1)
    lo, hi = np.zeros((2, site.size), dtype=np.int64)
    lo[i] = np.clip(np.ceil((psi - delta - first) / step), 0, n)
    hi[i] = np.clip(np.floor((psi + delta - first) / step) + 1, lo[i], n)
    return lo, hi


def _sample_drift(geom: _SatGeometry, line: dict, distance):
    """(L, D, T (V / D + Omega')) of the sample bound of _dwells_near_tx,
    one per row: line holds the rows' line_geometry columns r and speed,
    and distance their |w|.  The last is meaningless where D <= 0."""
    period, speed = geom.spec.scan_period, line["speed"]
    motion = speed * period
    height = np.linalg.norm(line["r"], axis=0) - motion
    far = distance - motion
    frame_rate = _turn_rate(geom.elements) + speed / (
        frames.min_curvature_radius(0.0) + height - frames.WGS84_A)
    return (height - (frames.WGS84_A + geom.ground_altitude), far,
            period * (speed / np.where(far > 0.0, far, 1.0) + frame_rate))


def _reach_ratios(geom: _SatGeometry, line: dict, at, samples):
    """rho_j / L_j of _dwells_in_reach for sample samples[i] from the state
    (r, v) of column at[i] of line (line_geometry), inf where the
    footprint's rays miss.  Gathered and footprinted MARGIN_CHUNK at a
    time, so the kernel's temporaries stay bounded."""
    boresight = geom.spec.boresight_of(samples)
    curvature = frames.min_curvature_radius(geom.ground_altitude)
    ratio = np.empty(samples.size)
    for i in range(0, samples.size, MARGIN_CHUNK):
        part = slice(i, i + MARGIN_CHUNK)
        r = line["r"][:, at[part]]
        fp = _footprint_arrays(r, line["v"][:, at[part]], boresight[part],
                               geom.spec, geom.ground_altitude)
        slant = np.where(fp["miss"], 1.0,
                         np.linalg.norm(fp["center"] - r, axis=0))
        reach = ((1.0 + _SCREEN_SLACK) * geom.policy.buffer_multiplier
                 * fp["semi_major"])
        ratio[part] = np.where(fp["miss"], np.inf,
                               (reach + reach ** 2 / curvature) / slant)
    return ratio


def _dwells_in_reach(geom: _SatGeometry, line: dict, site, dwell: dict):
    """Per dwell row k, whether the transmitter can lie in the buffered
    footprint of the row's sample at some instant of its scan line (the
    dwell bound): False only where that margin stays above 0 over the
    whole scan period.

    Dwell row k is sample j = dwell["sample"][k] on (site, line) row
    i = dwell["row"][k], whose line geometry is column i of line (the
    line_geometry columns r, up, axis and speed, at the line's first
    sample, time t0) and whose transmitter is that of site[i].  In the
    notation of _dwells_near_tx (w = tx - r, nadir, a, T, s, V, D, L,
    Omega', M and the buffer multiplier m), with h = |h_tx - h_ground|,
    c_j(t) and a_j(t) the centre and semi_major of sample j's footprint
    from the state at t, and

        R_j(t)   = (1 + s) m a_j(t)
        rho_j(t) = R_j(t) + R_j(t)**2 / M
        L_j(t)   = |c_j(t) - r(t)|
        q_j      = max(rho_j(t0) / L_j(t0), rho_j(t0 + T) / L_j(t0 + T))
        Delta_j  = asin((1 + s) q_j + h / L) + T (V / D + Omega'),

    the row is dropped when the angle at the satellite between w and the
    boresight d_j = cos(theta_j) nadir + sin(theta_j) (a x nadir), the
    direction of c_j(t0) - r, exceeds Delta_j.  This is the sample bound
    of _dwells_near_tx with the dwell's own reach and range in place of
    the line's edge reach and nadir distance; the w-motion and frame-turn
    terms are the same.  dwell["ratio"][k] is q_j (inf where a footprint
    misses): _screen_windows reads both ends from _reach_ratios, the end
    t0 + T at the next line's first sample, once per dwell for every site.
    Why, at any t in [t0, t0 + T]:

    - Reach.  margin <= 0 puts tx within m a_j(t) of c_j(t) in the tangent
      plane at c_j(t), and off that plane by at most
      h + (m a_j(t))**2 / M (zeta of _dwells_near_tx, on the near side
      that the visibility windows guarantee), so
      |tx - c_j(t)| <= rho_j(t) + h.
    - Continuity.  Claim: rho_j(t) / L_j(t) <= (1 + s) q_j.  The
      footprint's axes grow with its slant range, and within one scan
      period the view changes smoothly and almost linearly in t
      (altitude, incidence, position along the track), so the ratio
      stays within a small part of s of the larger of its two ends.
      test_dwell_reach_continuity measures the rise over accepted specs
      and eccentric orbits.  One end alone would not do: at grazing scan
      angles on an orbit of eccentricity 0.08 the ratio rose 1.3 % over
      a 6 s scan period.
    - Range.  L_j(t) >= |r(t)| - A' >= L, since c_j(t) lies on the
      ground-altitude ellipsoid (as in _dwells_near_tx), so
      h / L_j(t) <= h / L.  h does not grow with the range, so it takes
      this bound rather than the ratio's.
    - Angle at the satellite.  c_j(t) - r(t) lies along the boresight
      d_j(t), because the kernel centres the footprint on the boresight's
      ground hit, and |tx - c_j(t)| / L_j(t) <= (1 + s) q_j + h / L, so
      w(t) and d_j(t) are at most asin((1 + s) q_j + h / L) apart.
    - Motion of w and turn of the frame, as in the sample bound of
      _dwells_near_tx: w(t) is within T V / D of w, and d_j(t) within
      T Omega' of d_j.
    - So w and d_j are at most Delta_j apart.  A dropped row has margin
      > 0 at every instant of [t0, t0 + T], its dwell's interior
      included, so a check of dwell interiors needs only the kept rows.
      A footprint centred off the boresight must re-check the claim that
      c_j(t) - r(t) lies along d_j(t).

    A row is kept where the bound does not apply: (1 + s) q_j + h / L
    >= 1, L <= 0, D <= 0, Delta_j >= 90 degrees, or a footprint that
    misses.
    """
    to_tx = geom.tx_ecef[:, site] - line["r"]
    distance = np.linalg.norm(to_tx, axis=0)
    near, far, drift = _sample_drift(geom, line, distance)
    ok = (near > 0.0) & (far > 0.0)
    height = np.where(ok, np.abs(geom.alt[site] - geom.ground_altitude)
                      / np.where(ok, near, 1.0), np.inf)
    up = line["up"]
    # w's direction cosines on nadir and on a x nadir.
    on_nadir = -np.sum(up * to_tx, axis=0) / distance
    on_across = np.sum(frames._cross(up, line["axis"]) * to_tx,
                       axis=0) / distance
    theta = np.radians(geom.spec.boresight_of(
        np.arange(geom.spec.samples_per_scan)))
    row, sample = dwell["row"], dwell["sample"]
    angle = np.arccos(np.clip(on_nadir[row] * np.cos(theta)[sample]
                              + on_across[row] * np.sin(theta)[sample],
                              -1.0, 1.0))
    ratio = (1.0 + _SCREEN_SLACK) * dwell["ratio"] + height[row]
    ok = ratio < 1.0
    delta = np.arcsin(np.where(ok, ratio, 0.0)) + drift[row]
    return ~ok | (delta >= 0.5 * np.pi) | (angle <= delta)


def _screen_windows(geom: _SatGeometry):
    """(site, w0, w1, size, keys): every site's visibility windows as
    _visibility gives them, site after site, each window's count of kept
    dwells, and the kept dwell keys (as in _dwell_dark), window after
    window.

    A window's lines are those whose spans meet it (ScanLattice.lines),
    one row per (site, window, line).  One line_geometry call computes the
    geometry of the union of every window's lines and of the line after
    each, whose first sample ends it, once per line.  Then, one block of
    windows at a time (_chunks of MARGIN_CHUNK rows), the block builds its
    rows, which gather their lines' columns of the table, with the larger
    reach of the line's and the next line's, for one _dwells_near_tx call
    that screens the rows' lines and their samples.  Stage 2b (the dwell
    bound): once for every site, _reach_ratios footprints each sample of
    the hull of the ranges that any site keeps on a line or on the line
    before it, at the line's first sample; then, block by block, _chunks
    of the block's kept rows at a time hold at most 4 * MARGIN_CHUNK dwell
    keys and one row's, and their (site, dwell) rows read the ratios of
    both ends of their line for one _dwells_in_reach call.  Pixel level
    keeps only the dwells that overlap the window, before the dwell bound.
    Scan line keeps every dwell the screens keep, so a line that straddles
    the window start stays dark.
    """
    lattice, base = geom.lattice, geom.base
    n = geom.spec.samples_per_scan
    pixel = geom.policy.kind is PolicyKind.PIXEL_LEVEL
    site, w0, w1 = _visibility(geom)
    first, stop = lattice.line_span(geom.tau(w0), geom.tau(w1))
    union = _unique_ids(_ranges(first, stop + 1))
    table = geom.line_geometry(union)
    # Each block's kept rows, and per line of the union the hull
    # [hull_lo, hull_hi) of the samples any site keeps on it or on the
    # line before (at + 1 is the next line's column).
    blocks = []
    hull_lo = np.full(union.size, n, dtype=np.int64)
    hull_hi = np.zeros(union.size, dtype=np.int64)
    for part in _chunks(stop - first, MARGIN_CHUNK):
        window = np.repeat(np.arange(part.start, part.stop),
                           stop[part] - first[part])
        at = np.searchsorted(union, _ranges(first[part], stop[part]))
        line = {key: table[key][..., at]
                for key in ("r", "up", "axis", "speed")}
        line["reach"] = np.maximum(table["reach"][at], table["reach"][at + 1])
        lo, hi = _dwells_near_tx(geom, line, site[window])
        kept = hi > lo
        blocks.append((window[kept], at[kept], lo[kept], hi[kept]))
        for column in (at[kept], at[kept] + 1):
            np.minimum.at(hull_lo, column, lo[kept])
            np.maximum.at(hull_hi, column, hi[kept])
    # Hull sample j of union column u is at hull index start[u] + j.
    count = np.maximum(hull_hi - hull_lo, 0)
    start = np.cumsum(count) - count - hull_lo
    ratio = _reach_ratios(geom, table, np.repeat(np.arange(union.size), count),
                          _ranges(hull_lo, hull_lo + count))
    size = np.zeros(site.size, dtype=np.int64)
    out = [np.zeros(0, dtype=np.int64)]
    for block in blocks:
        for part in _chunks(block[3] - block[2], 4 * MARGIN_CHUNK):
            window, at, lo, hi = (column[part] for column in block)
            row = np.repeat(np.arange(at.size), hi - lo)
            sample = _ranges(lo, hi)
            keys = union[at][row] * n + sample
            if pixel:
                overlap = (
                    (lattice.key_tau(keys + 1) - base > w0[window[row]])
                    & (lattice.key_tau(keys) - base < w1[window[row]]))
                keys, row = keys[overlap], row[overlap]
                sample = sample[overlap]
            kept = _dwells_in_reach(
                geom, {key: table[key][..., at]
                       for key in ("r", "up", "axis", "speed")},
                site[window],
                {"row": row, "sample": sample,
                 "ratio": np.maximum(ratio[start[at][row] + sample],
                                     ratio[start[at + 1][row] + sample])})
            keys, row = keys[kept], row[kept]
            size += np.bincount(window[row], minlength=site.size)
            out.append(keys)
    return site, w0, w1, size, np.concatenate(out)


def _pass_batches(w0, w1, size):
    """Group the screened windows (w0[i], w1[i]) of every site, which keep
    size[i] dwells, into batches: one batch number per window.

    A pass is a maximal run of windows, across all sites, that overlap or
    touch in time.  A batch takes windows in time order and closes at the
    end of a pass once its windows hold MARGIN_CHUNK kept samples (dwell
    keys), so that footprints are built in full chunks and shared by the
    sites of each pass; it also closes within a pass at BATCH_SAMPLES, so
    that memory stays bounded by one batch rather than by the window or
    the number of sites.  Windows tied in time are taken in index order
    (np.lexsort is stable).
    """
    batch = np.empty(size.size, dtype=np.int64)
    order = np.lexsort((w1, w0))
    end, total, current = -np.inf, MARGIN_CHUNK, -1
    for i, a, b, kept in zip(order.tolist(), w0[order].tolist(),
                             w1[order].tolist(), size[order].tolist()):
        if (a > end and total >= MARGIN_CHUNK) or total >= BATCH_SAMPLES:
            current += 1
            total = 0
        end = max(end, b)
        total += kept
        batch[i] = current
    return batch


def _unique_ids(ids):
    """The sorted distinct values of an integer array.

    np.unique gives the same, but its first call in a process imports
    numpy.ma, which takes about 20 ms: a fifth of a short darkspaces run.
    """
    ids = np.sort(ids)
    return ids[np.concatenate((ids[:1] == ids[:1], ids[1:] != ids[:-1]))]


def _dwell_dark(geom: _SatGeometry, site, keys):
    """Whether site[i] is dark at the start and at the end of dwell keys[i].

    Keys name dwells as line * samples_per_scan + sample.  Dwell key j
    runs from boundary j to boundary j + 1 (ScanLattice.key_tau), so the
    sorted union of the rows' dwell boundaries is propagated once, one
    state per boundary, and every dwell of the union is footprinted once
    at each end from the states of its two boundaries (_margins_many),
    gathered one chunk at a time.  Returns (dark at start, dark at end),
    boolean arrays in the order of keys.
    """
    union = _unique_ids(keys)
    bounds = _unique_ids(np.concatenate((union, union + 1)))
    r, v = geom.states(geom.lattice.key_tau(bounds) - geom.base)
    boresight = geom.spec.boresight_of(union % geom.spec.samples_per_scan)
    columns = np.searchsorted(union, keys)
    return tuple(
        _margins_many(geom, site, columns, boresight,
                      lambda part, at=at: (r[:, at[part]], v[:, at[part]]))
        <= 0.0
        for at in (np.searchsorted(bounds, union),
                   np.searchsorted(bounds, union + 1)))


def _dark_spans(geom: _SatGeometry):
    """Dark (start, end, line) spans in window offsets, one list per site.

    Both policies take one path: per batch (_pass_batches), gather its
    windows' kept dwells (_screen_windows) by window offset as rows (site,
    key), make one _dwell_dark call, and read the spans off the flags.  Pixel level:
    a dwell dark at both ends is dark throughout, and one dark at one end
    only is dark up to or from its margin's crossing, found by one
    _bisect_boundary call per batch over every site's brackets, which
    gives each the bits of a call of its own.  Scan line: a line is dark,
    whole, when any of its kept dwells is dark at either end; the screen
    drops only dwells whose margin stays above 0, so scan-line schedules
    are an exact superset of pixel-level ones.  Each site's spans come in
    the order of its own keys, batch by batch.
    """
    spec, lattice, base = geom.spec, geom.lattice, geom.base
    n = spec.samples_per_scan
    pixel = geom.policy.kind is PolicyKind.PIXEL_LEVEL
    out = [[] for _ in geom.points]
    owner, w0, w1, size, kept = _screen_windows(geom)
    batch = _pass_batches(w0, w1, size)
    start = np.cumsum(size) - size
    for b in range(batch.max(initial=-1) + 1):
        # The batch's windows in index order: site after site.
        w = np.flatnonzero(batch == b)
        keys = kept[_ranges(start[w], start[w] + size[w])]
        site = np.repeat(owner[w], size[w])
        d0, d1 = _dwell_dark(geom, site, keys)
        dark = d0 | d1
        site, keys = site[dark], keys[dark]
        if not pixel:
            # Each site's dark lines, distinct and in order.
            order = np.lexsort((keys // n, site))
            site, lines = site[order], keys[order] // n
            new = np.concatenate((site[:1] == site[:1],
                                  (site[1:] != site[:-1])
                                  | (lines[1:] != lines[:-1])))
            site, lines = site[new], lines[new]
            s = lattice.tau(lines) - base
            spans = zip(s.tolist(), (s + spec.scan_period).tolist(),
                        lines.tolist())
        else:
            d0, one = d0[dark], (d0 != d1)[dark]
            s, e = (lattice.key_tau(keys + j) - base for j in (0, 1))
            if np.any(one):
                cross = _bisect_boundary(
                    geom, spec.boresight_of(keys[one] % n), s[one], e[one],
                    d0[one], site[one])
                e[one] = np.where(d0[one], cross, e[one])
                s[one] = np.where(d0[one], s[one], cross)
            spans = zip(s.tolist(), e.tolist(), (keys // n).tolist())
        for k, span in zip(site.tolist(), spans):
            out[k].append(span)
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
    points = [point for _, point in txs]
    for elements, spec in sats:
        spans = _dark_spans(_SatGeometry(elements, spec, start, duration,
                                         policy, ground_altitude, points))
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
                       ground_altitude: float = 0.0) -> DarkSchedule:
    """Reference schedule by dense time sampling every dt seconds.

    Evaluates the subtension predicate exactly at each sample and assembles
    maximal runs of subtended samples into intervals.  Samples where the
    satellite is provably below the horizon are skipped (they cannot
    subtend), which leaves the result identical to exhaustive sampling.
    Cost is O(window / dt); intervals shorter than dt can be missed, so
    tests must choose dt well below the expected interval durations.

    The oracle does not use the engine's screens (_dwells_near_tx,
    _dwells_in_reach): it evaluates every dt sample of every visibility
    window, and in scan-line mode every dwell of every line it meets, each
    row for site 0 of its one-site geometry.  It does share the horizon
    prefilter (_visibility, through visibility_windows), _footprint_arrays
    and _ellipse_margins with the engine, so engine and oracle agree on a
    defect in those.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    start, end = _validate_inputs(sats, window, policy)
    duration = (end - start).total_seconds()
    per_sat = []
    for elements, spec in sats:
        geom = _SatGeometry(elements, spec, start, duration, policy,
                            ground_altitude, [tx])
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

            for c0 in range(i0, i1 + 1, ORACLE_CHUNK):
                c1 = min(c0 + ORACLE_CHUNK - 1, i1)
                offsets = np.arange(c0, c1 + 1) * dt
                lines, idx = geom.lattice.index(geom.tau(offsets))
                if policy.kind is PolicyKind.PIXEL_LEVEL:
                    # Each offset's margin in the pixel active at it.
                    dark = geom.margins(
                        offsets, spec.boresight_of(idx),
                        np.zeros(offsets.size, dtype=np.int64)) <= 0.0
                else:
                    # A line is dark when any of its dwells is dark at
                    # either end.
                    uniq, inverse = np.unique(lines, return_inverse=True)
                    n = spec.samples_per_scan
                    keys = np.add.outer(uniq * n, np.arange(n)).ravel()
                    d0, d1 = _dwell_dark(
                        geom, np.zeros(keys.size, dtype=np.int64), keys)
                    dark = (d0 | d1).reshape(-1, n).any(axis=1)[inverse]
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
