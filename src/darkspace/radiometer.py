"""Cross-track scanning radiometer model.

Maps time to scan phase, scan samples to ground pixel footprints on the
WGS-84 ellipsoid, and decides whether a footprint subtends a ground
transmitter.  The footprint math is exact ray-ellipsoid geometry: the
boresight is the satellite's geodetic nadir (closed form,
frames.geodetic_up) rotated about the (inertial) velocity axis by the
scan angle, and the pixel ellipse axes come from intersecting the 3 dB
cone's edge rays with the altitude-shifted ellipsoid; they lie in that
ellipsoid's tangent plane at the centre, normal to its gradient.

The margin kernel (_footprint_arrays) computes only what containment
needs: centres, axes and misses, in ECEF.  The geodetic latitude and
longitude of the centres come from a thin layer on top of it
(_footprint_arrays_latlon), for itu-sim's pixel search and for
footprints_batch.  _footprints_from_arrays builds PixelFootprints from
those arrays: for footprints_batch (pixel_footprint and the flashlight
planner's ON/OFF pairs) and for the pixels itu-sim keeps from its search.

All heavy math is vectorized over samples; the dataclass API wraps single
samples of the same arrays so scalar and batched paths cannot diverge.
"""
from __future__ import annotations

import importlib.resources
import json
import math
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigError, NoIntersection
from .orbit import GroundPoint, SatelliteState, frames
from .orbit.frames import _cross
from .timeutil import add_seconds, ensure_utc


class PolicyKind(Enum):
    PIXEL_LEVEL = "pixel"
    SCAN_LINE = "scanline"


@dataclass(frozen=True)
class BufferPolicy:
    """How much protection padding to apply around raw pixel geometry.

    buffer_multiplier inflates the footprint ellipse axes; temporal_pad
    extends every dark interval at both ends.  Pixel-level policies are only
    valid for phase-locked scanners.
    """
    kind: PolicyKind = PolicyKind.PIXEL_LEVEL
    buffer_multiplier: float = 2.0
    temporal_pad: float = 0.0

    def __post_init__(self):
        # Written as "not >=" so that NaN fails too.
        if not self.buffer_multiplier >= 1.0:
            raise ValueError("buffer_multiplier must be >= 1")
        if not self.temporal_pad >= 0.0:
            raise ValueError("temporal_pad must be >= 0")


@dataclass(frozen=True)
class RadiometerSpec:
    """Sensor RF and scan geometry parameters.

    Frequencies in Hz, angles in degrees, scan_period in seconds, n_temp in
    kelvin.  phase_locked means the scan mechanism runs in closed loop with
    the satellite position so individual pixel times are predictable;
    otherwise geofencing must fall back to scan-line granularity.
    """
    name: str
    itu_sensor_id: str
    center_frequency: float
    bandwidth: float
    antenna_max_gain: float
    beamwidth_3db: float
    scan_period: float
    scan_half_angle: float
    samples_per_scan: int
    n_temp: float
    phase_locked: bool

    def __post_init__(self):
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be > 0")
        if not 0 < self.beamwidth_3db < 90:
            raise ValueError("beamwidth_3db must be in (0, 90)")
        if self.scan_period <= 0:
            raise ValueError("scan_period must be > 0")
        if self.samples_per_scan < 1:
            raise ValueError("samples_per_scan must be >= 1")
        if not 0 < self.scan_half_angle < 90:
            raise ValueError("scan_half_angle must be in (0, 90)")

    @property
    def sample_dwell(self) -> float:
        """Seconds spent on one sample."""
        return self.scan_period / self.samples_per_scan

    def boresight_of(self, sample_index: int):
        """Signed cross-track angle of a sample (linear sweep, degrees)."""
        n = self.samples_per_scan
        if n == 1:
            return 0.0 * np.asarray(sample_index)
        step = 2.0 * self.scan_half_angle / (n - 1)
        return -self.scan_half_angle + np.asarray(sample_index) * step


@dataclass(frozen=True)
class ScanSample:
    """One radiometer sample: scan line, sample slot, and its start time."""
    scan_line_index: int
    sample_index: int
    t: datetime
    boresight_angle: float


@dataclass(frozen=True)
class PixelFootprint:
    """Ground ellipse observed by one radiometer sample.

    center sits on the (altitude-shifted) WGS-84 surface and center_ecef
    is the same point in ECEF metres; the semi axes are in metres along
    the unit ECEF vectors u_major and u_minor, which span the tangent
    plane of that altitude-shifted ellipsoid at the center: the plane
    normal to its gradient (x / A**2, y / A**2, z / B**2), A and B its
    semi-axes.  Containment tests use this frame, so they see the ellipse
    exactly as it was built.
    """
    center: GroundPoint
    semi_major: float
    semi_minor: float
    center_ecef: tuple[float, float, float]
    u_major: tuple[float, float, float]
    u_minor: tuple[float, float, float]

    def __post_init__(self):
        if not self.semi_major >= self.semi_minor > 0:
            raise ValueError("footprint axes must satisfy major >= minor > 0")


#: Timestamps are whole microseconds, so an instant that lands within half
#: a microsecond of a dwell boundary stands for the boundary itself.
_HALF_US = 5.0e-7


class ScanLattice:
    """The scan grid of one radiometer, counted from a phase origin.

    The phase origin is the element set's epoch.  Offsets tau are seconds
    after it; dwell (line, sample) spans [tau(line, sample),
    tau(line, sample) + sample_dwell).  A dwell's key is line *
    samples_per_scan + sample.  This is the only code that maps time to
    scan line and sample, so schedules, pulses and exclusion records name
    the same dwells.  offset and dwells take one instant or pulse; tau,
    key_tau, line_at and index work elementwise on arrays.
    """

    def __init__(self, spec: RadiometerSpec, epoch: datetime):
        self.spec = spec
        self.epoch = ensure_utc(epoch)

    def offset(self, t: datetime) -> float:
        """Seconds from the phase origin to t."""
        return (ensure_utc(t) - self.epoch).total_seconds()

    def tau(self, line, sample=0):
        """Start offset of dwell (line, sample)."""
        return line * self.spec.scan_period + sample * self.spec.sample_dwell

    def key_tau(self, keys):
        """Start offset of the dwells with these keys.

        The dwell with key k ends at key_tau(k + 1), where the next dwell
        starts: at tau(line, sample + 1), or at tau(line + 1, 0) for a
        line's last sample, so a dwell's end and the next dwell's start
        are the same float.
        """
        n = self.spec.samples_per_scan
        return self.tau(keys // n, keys % n)

    def line_at(self, tau):
        """The line whose span holds tau, without the boundary snap.

        Only for covering a window with whole lines: the line that holds
        the window's first instant must not be dropped.  Use index to name
        the dwell active at an instant.
        """
        return np.floor(np.asarray(tau, dtype=float)
                        / self.spec.scan_period).astype(np.int64)

    def _locate(self, tau):
        line = np.floor(tau / self.spec.scan_period)
        frac = tau - line * self.spec.scan_period
        idx = np.clip(np.floor(frac / self.spec.sample_dwell), 0,
                      self.spec.samples_per_scan - 1)
        return line.astype(np.int64), idx.astype(np.int64)

    def index(self, tau):
        """(line, sample) of the dwell active at tau.

        An instant within half a microsecond before a dwell boundary
        belongs to the later dwell.
        """
        return self._locate(np.asarray(tau, dtype=float) + _HALF_US)

    def dwells(self, a, b):
        """(lines, samples) of the dwells a pulse [a, b) transmits into.

        They run from the dwell active at a + 0.5 us through the one
        active at b - 0.5 us; an empty pulse transmits into none.
        """
        n = self.spec.samples_per_scan
        line0, idx0 = self.index(a)
        line1, idx1 = self._locate(np.asarray(b, dtype=float) - _HALF_US)
        keys = np.arange(line0 * n + idx0, line1 * n + idx1 + 1)
        return keys // n, keys % n

    def scan_sample(self, line, sample) -> ScanSample:
        """The ScanSample of dwell (line, sample), its start in whole us."""
        line, sample = int(line), int(sample)
        return ScanSample(
            scan_line_index=line,
            sample_index=sample,
            t=add_seconds(self.epoch, self.tau(line, sample)),
            boresight_angle=float(self.spec.boresight_of(sample)),
        )


# --- vectorized footprint core ----------------------------------------------

def _rotate(vec, axis, angle_rad):
    """Rodrigues rotation of vec about unit axis; all shaped (3, n)."""
    c = np.cos(angle_rad)
    s = np.sin(angle_rad)
    k_cross_v = _cross(axis, vec)
    k_dot_v = np.sum(axis * vec, axis=0)
    return vec * c + k_cross_v * s + axis * (k_dot_v * (1.0 - c))


def _inverse_axes(ground_altitude):
    """(1/A, 1/A, 1/B) of the altitude-shifted WGS-84 ellipsoid, (3, 1)."""
    ax = frames.WGS84_A + ground_altitude
    bz = frames.WGS84_B + ground_altitude
    return np.array([1.0 / ax, 1.0 / ax, 1.0 / bz]).reshape(3, 1)


def _ray_ellipsoid(origin, direction, ground_altitude):
    """First intersection of rays with the altitude-shifted WGS-84 surface.

    origin/direction shaped (3, n), metres / unit vectors.  Returns the
    intersection points (3, n) and a boolean miss mask (n,).
    """
    scale = _inverse_axes(ground_altitude)
    o = origin * scale
    d = direction * scale
    a = np.sum(d * d, axis=0)
    b = 2.0 * np.sum(o * d, axis=0)
    c = np.sum(o * o, axis=0) - 1.0
    disc = b * b - 4.0 * a * c
    miss = disc < 0.0
    sqrt_disc = np.sqrt(np.where(miss, 0.0, disc))
    t_hit = (-b - sqrt_disc) / (2.0 * a)
    miss = miss | (t_hit <= 0.0)
    return origin + t_hit * direction, miss


def _unit(vec):
    return vec / np.linalg.norm(vec, axis=0)


def _scan_axis(sat_r, sat_v_inertial):
    """Geodetic up at the sub-satellite point and the scan rotation axis.

    Up is the closed-form frames.geodetic_up.  The axis is the along-track
    direction made exactly orthogonal to nadir, so a boresight rotation of
    theta subtends exactly theta.  Both are shaped (3, n) like the inputs.
    """
    up = frames.geodetic_up(sat_r)
    v_perp = sat_v_inertial - up * np.sum(sat_v_inertial * up, axis=0)
    return up, _unit(v_perp)


def _footprint_arrays(sat_r, sat_v_inertial, boresight_deg, spec,
                      ground_altitude):
    """Build footprint ellipses for many samples at once: the margin kernel.

    sat_r / sat_v_inertial shaped (3, n) metres resp. m/s, boresight_deg
    (n,).  Returns a dict of arrays: center, semi_major, semi_minor,
    u_major, u_minor, and miss, which flags rays that do not hit the
    ellipsoid.  The axes span the tangent plane of the altitude-shifted
    ellipsoid at the centre, whose normal is its gradient (x / A**2,
    y / A**2, z / B**2).  No geodetic coordinates are computed here;
    _footprint_arrays_latlon adds them.
    """
    sat_r = np.asarray(sat_r, dtype=float)
    sat_v = np.asarray(sat_v_inertial, dtype=float)
    theta = np.radians(np.atleast_1d(np.asarray(boresight_deg, dtype=float)))
    half_beam = math.radians(spec.beamwidth_3db / 2.0)

    up, axis = _scan_axis(sat_r, sat_v)
    nadir = -up

    d0 = _rotate(nadir, axis, theta)
    center, miss = _ray_ellipsoid(sat_r, d0, ground_altitude)

    d_scan_p = _rotate(nadir, axis, theta + half_beam)
    d_scan_m = _rotate(nadir, axis, theta - half_beam)
    p_plus, m1 = _ray_ellipsoid(sat_r, d_scan_p, ground_altitude)
    p_minus, m2 = _ray_ellipsoid(sat_r, d_scan_m, ground_altitude)

    w = _unit(_cross(d0, axis))
    d_cross_p = _rotate(d0, w, np.full_like(theta, half_beam))
    d_cross_m = _rotate(d0, w, np.full_like(theta, -half_beam))
    q_plus, m3 = _ray_ellipsoid(sat_r, d_cross_p, ground_altitude)
    q_minus, m4 = _ray_ellipsoid(sat_r, d_cross_m, ground_altitude)

    miss = miss | m1 | m2 | m3 | m4

    semi_scan = 0.5 * (np.linalg.norm(p_plus - center, axis=0)
                       + np.linalg.norm(p_minus - center, axis=0))
    semi_cross = 0.5 * (np.linalg.norm(q_plus - center, axis=0)
                        + np.linalg.norm(q_minus - center, axis=0))

    up_c = _unit(center * _inverse_axes(ground_altitude) ** 2)

    scan_dir = p_plus - p_minus
    cross_dir = q_plus - q_minus
    take_scan = semi_scan >= semi_cross
    major_dir = np.where(take_scan, scan_dir, cross_dir)
    # Project onto the tangent plane and orthonormalize.
    major_dir = major_dir - up_c * np.sum(major_dir * up_c, axis=0)
    u_major = _unit(major_dir)
    u_minor = _cross(up_c, u_major)

    return {
        "center": center,
        "semi_major": np.maximum(semi_scan, semi_cross),
        "semi_minor": np.minimum(semi_scan, semi_cross),
        "u_major": u_major,
        "u_minor": u_minor,
        "miss": miss,
    }


def _footprint_arrays_latlon(sat_r, sat_v_inertial, boresight_deg, spec,
                             ground_altitude):
    """_footprint_arrays plus center_lat and center_lon, the geodetic
    latitude and longitude (deg) of each centre, for the callers that
    place or select pixels by position."""
    arrays = _footprint_arrays(sat_r, sat_v_inertial, boresight_deg, spec,
                               ground_altitude)
    lat, lon, _ = frames.ecef_to_geodetic(arrays["center"])
    arrays["center_lat"] = np.atleast_1d(lat)
    arrays["center_lon"] = np.atleast_1d(lon)
    return arrays


def _ellipse_margins(arrays, tx_ecef, buffer_multiplier):
    """Inflated-ellipse containment margin of one point in n footprints,
    or of m points (tx_ecef shaped (3, m)) in one footprint.

    Negative or zero means the point is inside the inflated ellipse;
    misses map to +inf.  The margin is the quadratic form value minus one,
    which is the quantity the geofence boundary refinement bisects on.
    """
    delta = np.asarray(tx_ecef, dtype=float).reshape(3, -1) - arrays["center"]
    x = np.sum(delta * arrays["u_major"], axis=0)
    y = np.sum(delta * arrays["u_minor"], axis=0)
    a = arrays["semi_major"] * buffer_multiplier
    b = arrays["semi_minor"] * buffer_multiplier
    margin = (x / a) ** 2 + (y / b) ** 2 - 1.0
    return np.where(arrays["miss"], np.inf, margin)


def pixel_footprint(sat: SatelliteState, sample: ScanSample,
                    spec: RadiometerSpec,
                    ground_altitude: float = 0.0) -> PixelFootprint:
    """Project one scan sample onto the ground.

    Raises NoIntersection when the boresight (or a 3 dB cone edge ray)
    misses the Earth, which indicates a malformed scan configuration.
    """
    return footprints_batch(sat.r[:, None], sat.v_inertial[:, None],
                            [sample.boresight_angle], spec,
                            ground_altitude)[0]


def _frame(fp: PixelFootprint) -> dict:
    """The footprint as the one-column arrays _ellipse_margins reads."""
    return {"center": np.reshape(fp.center_ecef, (3, 1)),
            "u_major": np.reshape(fp.u_major, (3, 1)),
            "u_minor": np.reshape(fp.u_minor, (3, 1)),
            "semi_major": fp.semi_major,
            "semi_minor": fp.semi_minor,
            "miss": False}


def subtends(fp: PixelFootprint, tx: GroundPoint,
             policy: BufferPolicy) -> bool:
    """Does the footprint, its axes inflated by the buffer multiplier,
    contain the transmitter?

    This is the pixel-level question only.  Whether a scan line subtends
    a transmitter depends on the satellite's motion over the line's
    dwells, which geofence.dark_intervals follows.
    """
    if policy.kind is not PolicyKind.PIXEL_LEVEL:
        raise ValueError("subtends answers the pixel-level question; use "
                         "geofence.dark_intervals for scan-line policies")
    margin = _ellipse_margins(_frame(fp), tx.ecef(), policy.buffer_multiplier)
    return bool(margin[0] <= 0.0)


def footprints_batch(r_ecef, v_inertial, boresight_deg, spec: RadiometerSpec,
                     ground_altitude: float = 0.0) -> list[PixelFootprint]:
    """Construct many footprints at once from state arrays.

    r_ecef/v_inertial are (3, n) metre arrays matching the n boresights
    (deg).  Samples whose rays miss the ellipsoid raise NoIntersection, as
    in the scalar path.
    """
    arrays = _footprint_arrays_latlon(r_ecef, v_inertial, boresight_deg,
                                      spec, ground_altitude)
    if np.any(arrays["miss"]):
        bad = int(np.flatnonzero(arrays["miss"])[0])
        raise NoIntersection(
            f"boresight {boresight_deg[bad]:.2f} deg misses the Earth "
            "ellipsoid")
    return _footprints_from_arrays(arrays, ground_altitude,
                                   range(arrays["miss"].size))


def _footprints_from_arrays(arrays, ground_altitude, sel) -> list:
    """PixelFootprints of the samples sel of _footprint_arrays_latlon's
    arrays; none of them may be a miss."""
    return [PixelFootprint(
        center=GroundPoint(float(arrays["center_lat"][i]),
                           float(arrays["center_lon"][i]), ground_altitude),
        semi_major=float(arrays["semi_major"][i]),
        semi_minor=float(arrays["semi_minor"][i]),
        center_ecef=tuple(arrays["center"][:, i].tolist()),
        u_major=tuple(arrays["u_major"][:, i].tolist()),
        u_minor=tuple(arrays["u_minor"][:, i].tolist()),
    ) for i in sel]


# --- presets -----------------------------------------------------------------

_SPEC_FIELDS = {
    "name", "itu_sensor_id", "center_frequency", "bandwidth",
    "antenna_max_gain", "beamwidth_3db", "scan_period", "scan_half_angle",
    "samples_per_scan", "n_temp", "phase_locked",
}


def spec_from_dict(data: dict) -> RadiometerSpec:
    """Build a RadiometerSpec from preset JSON; unknown fields are rejected."""
    unknown = set(data) - _SPEC_FIELDS
    if unknown:
        raise ConfigError(
            f"unknown radiometer preset fields: {sorted(unknown)}")
    missing = _SPEC_FIELDS - set(data)
    if missing:
        raise ConfigError(
            f"radiometer preset missing fields: {sorted(missing)}")
    try:
        return RadiometerSpec(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid radiometer preset: {exc}") from exc


def load_preset(name_or_path: str) -> RadiometerSpec:
    """Load a radiometer preset by bundled name ('atms') or JSON file path."""
    path = Path(name_or_path)
    if path.suffix == ".json" and path.exists():
        data = json.loads(path.read_text())
        return spec_from_dict(data)
    resource = importlib.resources.files("darkspace.presets")
    candidate = resource / f"{name_or_path.lower()}.json"
    try:
        text = candidate.read_text()
    except FileNotFoundError:
        raise ConfigError(
            f"no radiometer preset named {name_or_path!r} and no such file")
    return spec_from_dict(json.loads(text))
