"""Aggregate interference at the radiometer under LOS-only and two-ray models.

The LOS-only path is the baseline regulatory accounting model: every
transmitter that subtends a measurement pixel contributes its EIRP density
attenuated by free-space loss, atmosphere, polarization mismatch, and the
radiometer antenna gain.  The two-ray model adds a single ground-reflected
ray with complex reflection coefficient, which modulates each contribution
by the coherent two-path gain.  Deployments are generated by a seeded Monte
Carlo so every report is exactly reproducible.
"""
from __future__ import annotations

import json
import math
import operator
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ConfigError, ElevationNonPositive, EmptyArea, NoSamples
from .linkbudget import SPEED_OF_LIGHT, fspl_db
from .orbit import frames
from .output import write_csv
from .radiometer import PixelFootprint, RadiometerSpec, _ellipse_margins, \
    _frame

#: Mean Earth radius used for bounding-box areas, km.
EARTH_RADIUS_AREA_KM = 6371.0088


class TransmitterKind(Enum):
    GNB = "gNB"
    UE = "UE"
    IAB = "IAB"
    FWA_CLASS_V = "FWA_ClassV"
    FLASHLIGHT = "Flashlight"


class PathModel(Enum):
    LOS_ONLY = "los"
    TWO_RAY = "two-ray"


@dataclass(frozen=True)
class InterferenceSample:
    """Aggregate interference seen in one pixel, with its contributors."""
    pixel: PixelFootprint
    aggregate: float
    contributors: tuple


@dataclass(frozen=True)
class ComplianceReport:
    """Quantile compliance of aggregate interference against a threshold.

    The rule is strict: a pixel complies only when its aggregate is strictly
    below the threshold; the report passes when the compliant fraction
    reaches the quantile.
    """
    area_km2: float
    n_pixels: int
    threshold: float
    quantile: float
    fraction_compliant: float
    passed: bool


def two_ray_gain_db(antenna_height, elevation_deg, frequency_hz: float,
                    reflection_coeff: complex,
                    floor_db: float = -60.0):
    """Coherent gain of LOS plus one ground reflection, relative to LOS, dB.

    The reflected ray travels delta = 2 h sin(elevation) further, a phase
    phi = k delta with k = 2 pi f / c, so with G the reflection
    coefficient the power relative to LOS is the real

        |1 + G exp(j phi)|**2 = 1 + |G|**2 + 2 |G| cos(phi + arg G).

    The gain is 10 log10(max(p, 0)) of that power p, clamped at floor_db:
    a deep interference null, where rounding can take p to 0 or just
    below, returns exactly floor_db, and G = 0 exactly 0.0.  Elementwise
    over antenna height and elevation; an elevation <= 0 raises
    ElevationNonPositive and |G| > 1 ConfigError.

    The three-term sum cancels near a null, so there the gain can differ
    from 20 log10|1 + G exp(j phi)| by a few ulps of 1 in power (about
    4 eps / p relative, against 2 eps / sqrt(p) for the complex form);
    elsewhere the two differ only in the last bits.
    """
    el = np.asarray(elevation_deg, dtype=float)
    if np.any(el <= 0):
        raise ElevationNonPositive("two-ray geometry needs elevation > 0")
    return _two_ray_gain_db(antenna_height, np.sin(np.radians(el)),
                            frequency_hz, reflection_coeff, floor_db)


def _two_ray_gain_db(antenna_height, sin_elevation, frequency_hz,
                     reflection_coeff, floor_db):
    """two_ray_gain_db from sin(elevation), which must be > 0.

    |G| cos(phi + arg G) is summed as Re G cos(phi) - Im G sin(phi), so
    phi takes no rounding from adding arg G (phi reaches 10**4 rad, where
    that rounding alone moves the gain by 1e-10 dB), and a real G, the
    only kind the CLI passes, costs one cosine pass.
    """
    gamma = complex(reflection_coeff)
    if abs(gamma) > 1.0:
        raise ConfigError("reflection coefficient magnitude must be <= 1")
    delta = 2.0 * np.asarray(antenna_height, dtype=float) * sin_elevation
    phase = 2.0 * math.pi * frequency_hz / SPEED_OF_LIGHT * delta
    cross = gamma.real * np.cos(phase)
    if gamma.imag:
        cross = cross - gamma.imag * np.sin(phase)
    power = 1.0 + abs(gamma) ** 2 + 2.0 * cross
    with np.errstate(divide="ignore"):
        gain = 10.0 * np.log10(np.maximum(power, 0.0))
    return np.maximum(gain, floor_db)[()]


# --- deployment generation ----------------------------------------------------


@dataclass(frozen=True)
class GeoBox:
    """Geodetic bounding box (degrees).  Latitudes lie in [-90, 90] and
    lon_min in [-180, 180]; lon_max may pass 180 (at most 360 degrees
    east of lon_min), for a box that crosses the antimeridian."""
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        for lat in (self.lat_min, self.lat_max):
            if not -90.0 <= lat <= 90.0:
                raise ValueError(f"latitude {lat} outside [-90, 90]")
        if not -180.0 <= self.lon_min <= 180.0:
            raise ValueError(f"lon_min {self.lon_min} outside [-180, 180]")
        if not self.lon_max - self.lon_min <= 360.0:
            raise ValueError("longitude span exceeds 360 degrees")
        if not (self.lat_max > self.lat_min and self.lon_max > self.lon_min):
            raise EmptyArea("bounding box is degenerate")

    @property
    def area_km2(self) -> float:
        lat1, lat2 = math.radians(self.lat_min), math.radians(self.lat_max)
        dlon = math.radians(self.lon_max - self.lon_min)
        return (EARTH_RADIUS_AREA_KM ** 2 * dlon
                * (math.sin(lat2) - math.sin(lat1)))


@dataclass(frozen=True)
class EmitterClass:
    """Density and emission statistics for one transmitter kind."""
    kind: TransmitterKind
    density_per_km2: float
    eirp_mean_dbm_mhz: float
    eirp_std_db: float = 0.0
    antenna_height_m: float = 10.0


#: Baseline emitter mixes; all values are scenario configuration, not
#: physical claims, and are meant to be overridden per study.
SCENARIOS = {
    "urban": (
        EmitterClass(TransmitterKind.GNB, 10.0, -25.0, 3.0, 15.0),
        EmitterClass(TransmitterKind.UE, 100.0, -35.0, 4.0, 1.5),
        EmitterClass(TransmitterKind.IAB, 1.0, -22.0, 3.0, 20.0),
    ),
    "suburban": (
        EmitterClass(TransmitterKind.GNB, 1.0, -25.0, 3.0, 20.0),
        EmitterClass(TransmitterKind.UE, 10.0, -35.0, 4.0, 1.5),
        EmitterClass(TransmitterKind.FWA_CLASS_V, 0.5, -18.0, 3.0, 8.0),
    ),
    "rural": (
        EmitterClass(TransmitterKind.GNB, 0.1, -25.0, 3.0, 30.0),
        EmitterClass(TransmitterKind.UE, 1.0, -35.0, 4.0, 1.5),
        EmitterClass(TransmitterKind.FWA_CLASS_V, 0.2, -18.0, 3.0, 8.0),
    ),
}


def generate_deployment(scenario, area: GeoBox, seed: int,
                        center_frequency: float = 24.0e9,
                        emission_bandwidth: float = 200.0e6,
                        classes=None) -> "DeploymentArrays":
    """Seeded Monte Carlo deployment inside a bounding box, as columns.

    scenario names one of SCENARIOS unless explicit emitter classes are
    given.  Placement is uniform per unit area (longitude uniform, sine of
    latitude uniform); the emitter count is floor(density*area + u) with u
    the first uniform draw of each class's stream, so expectations match the
    configured density exactly while staying integer and deterministic.
    Emitter ids are "<scenario>-<kind>-<index within the class>", the
    index as %06d; they come as GeneratedIds, built on demand.  The
    columns that hold one value for every emitter (alt, center_frequency,
    emission_bandwidth, pointing_az, pointing_el) are read-only views of
    that one value.
    """
    if classes is None:
        try:
            classes = SCENARIOS[scenario]
        except KeyError:
            raise ConfigError(
                f"unknown scenario {scenario!r}; expected one of "
                f"{sorted(SCENARIOS)}") from None
    if not emission_bandwidth > 0:
        raise ConfigError(f"deployment emission_bandwidth must be > 0, got "
                          f"{emission_bandwidth!r}")
    for cls in classes:
        if not cls.antenna_height_m >= 0:
            raise ConfigError(f"{cls.kind.value} antenna_height_m must be "
                              f">= 0, got {cls.antenna_height_m!r}")
    area_km2 = area.area_km2
    if area_km2 <= 0:
        raise EmptyArea("bounding box has zero area")

    rng = np.random.default_rng(seed)
    sin_lo = math.sin(math.radians(area.lat_min))
    sin_hi = math.sin(math.radians(area.lat_max))

    prefixes, counts, kinds = [], [], []
    lat, lon, eirp, height = ([np.zeros(0)] for _ in range(4))
    for cls in classes:
        count = int(math.floor(cls.density_per_km2 * area_km2
                               + rng.uniform()))
        lat.append(np.degrees(np.arcsin(rng.uniform(sin_lo, sin_hi, count))))
        lon.append(rng.uniform(area.lon_min, area.lon_max, count))
        if cls.eirp_std_db > 0:
            eirp.append(rng.normal(cls.eirp_mean_dbm_mhz, cls.eirp_std_db,
                                   count))
        else:
            eirp.append(np.full(count, cls.eirp_mean_dbm_mhz))
        height.append(np.full(count, cls.antenna_height_m))
        prefixes.append(f"{scenario}-{cls.kind.value}-")
        counts.append(count)
        kinds.extend([cls.kind.value] * count)

    def constant(value):
        return np.broadcast_to(float(value), len(kinds))

    return DeploymentArrays(
        GeneratedIds(prefixes, counts), kinds, lat=np.concatenate(lat),
        lon=frames.wrap_longitude(np.concatenate(lon)), alt=constant(0.0),
        antenna_height=np.concatenate(height), eirp=np.concatenate(eirp),
        center_frequency=constant(center_frequency),
        emission_bandwidth=constant(emission_bandwidth),
        pointing_az=constant(0.0), pointing_el=constant(0.0))


class GeneratedIds(Sequence):
    """The ids of a generated deployment: for each (prefix, count) in turn,
    prefix + "%06d" of 0, 1, ..., count - 1.

    A read-only sequence of str that builds the strings only for the index
    (an int or numpy integer), slice or iteration asked for.  It equals,
    under == from either side, the list of the same strings.
    """

    def __init__(self, prefixes, counts):
        self._prefixes = tuple(prefixes)
        self._ends = tuple(accumulate(counts, initial=0))

    def __len__(self):
        return self._ends[-1]

    def _build(self, lo, hi):
        """The ids of positions lo to hi - 1, for 0 <= lo, hi <= len."""
        out = []
        for prefix, start, end in zip(self._prefixes, self._ends,
                                      self._ends[1:]):
            out += [f"{prefix}{i - start:06d}"
                    for i in range(max(lo, start), min(hi, end))]
        return out

    def __getitem__(self, index):
        if isinstance(index, slice):
            lo, hi, step = index.indices(len(self))
            return self._build(lo, hi) if step == 1 else self[:][index]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("emitter id index out of range")
        k = bisect_right(self._ends, i) - 1
        return f"{self._prefixes[k]}{i - self._ends[k]:06d}"

    def __iter__(self):
        return iter(self[:])

    def __eq__(self, other):
        if isinstance(other, GeneratedIds):
            other = other[:]
        if not isinstance(other, list):
            return NotImplemented
        return self[:] == other


# --- deployment records and columns -------------------------------------------


#: deployment.jsonl records, the only outside form of an emitter: each key
#: in sorted order (the order json.dumps(..., sort_keys=True) writes), the
#: DeploymentArrays column it fills and its default (None: required).
_RECORD_FIELDS = (
    ("alt_m", "alt", 0.0),
    ("antenna_height_m", "antenna_height", 0.0),
    ("center_frequency_hz", "center_frequency", None),
    ("eirp_density_dbm_mhz", "eirp", None),
    ("emission_bandwidth_hz", "emission_bandwidth", None),
    ("id", "ids", None),
    ("kind", "kinds", TransmitterKind.GNB.value),
    ("lat", "lat", None),
    ("lon", "lon", None),
    ("pointing_az_deg", "pointing_az", 0.0),
    ("pointing_el_deg", "pointing_el", 0.0),
)


class DeploymentArrays:
    """A deployment as columns, one entry per emitter.

    generate_deployment builds one, and from_records (read_deployment_jsonl)
    fills one from deployment records.  Columns: ids and kinds (sequences
    of str, kinds as TransmitterKind values; ids are GeneratedIds, built
    on demand, in a generated deployment and a list otherwise) and the
    float arrays lat, lon, alt, antenna_height, eirp, center_frequency,
    emission_bandwidth, pointing_az and pointing_el, all in deployment
    order.  The sweep reads a SweepGeometry as well, the emitters in
    latitude order, which build_geometry computes on first use and keeps,
    so build one once and reuse it across pixels; a process that only
    writes the columns never computes it.
    """

    _FLOAT_COLUMNS = tuple(column for _, column, _ in _RECORD_FIELDS
                           if column not in ("ids", "kinds"))

    def __init__(self, ids, kinds, **floats):
        """Wrap columns of equal length: floats holds each float column,
        by name; longitudes must already be in (-180, 180]."""
        self.ids = ids if isinstance(ids, GeneratedIds) else list(ids)
        self.kinds = list(kinds)
        for name in self._FLOAT_COLUMNS:
            setattr(self, name, np.asarray(floats[name], dtype=float))
        self._geometry = None

    def build_geometry(self) -> "SweepGeometry":
        """The SweepGeometry of these columns, built on the first call and
        kept; call it before forking processes that share it."""
        if self._geometry is None:
            self._geometry = SweepGeometry(self)
        return self._geometry

    @classmethod
    def from_records(cls, records) -> "DeploymentArrays":
        """Columns from deployment records: dicts keyed as _RECORD_FIELDS
        says, as deployment.jsonl holds them one per line.

        Records stream into one list per column and are not kept, so any
        iterable of them will do.  An id goes through str() and every
        number through float(); a kind must be a TransmitterKind value;
        longitudes are wrapped into (-180, 180].  ConfigError names, by
        its position from 1, a record that is not an object, lacks a
        required key, holds a value that does not convert, a number that
        is not finite, a latitude outside [-90, 90], an
        emission_bandwidth_hz <= 0 or an antenna_height_m < 0.
        """
        convert = {"ids": str,  # float() for the others
                   "kinds": lambda value: TransmitterKind(value).value}
        columns = {column: [] if column in convert else array("d")
                   for _, column, _ in _RECORD_FIELDS}
        fields = [(key, default, columns[column].append,
                   convert.get(column, float))
                  for key, column, default in _RECORD_FIELDS]
        done = 0
        # An error of the iterable itself (a line that is not JSON) is
        # reported as the next record's.
        try:
            for record in records:
                if not isinstance(record, dict):
                    raise TypeError(f"not a JSON object: {record!r:.60}")
                for key, default, append, to_column in fields:
                    append(to_column(record[key] if default is None
                                     else record.get(key, default)))
                done += 1
        except KeyError as exc:
            raise ConfigError(f"bad transmitter record {done + 1}: missing "
                              f"key {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad transmitter record {done + 1}: "
                              f"{exc}") from exc

        floats = {column: np.frombuffer(columns.pop(column), dtype=float)
                  for column in cls._FLOAT_COLUMNS}
        lat, bandwidth, height = (floats[column] for column in (
            "lat", "emission_bandwidth", "antenna_height"))
        for key, values, ok, rule in (
                *((key, floats[column], np.isfinite(floats[column]), "finite")
                  for key, column, _ in _RECORD_FIELDS if column in floats),
                ("lat", lat, np.abs(lat) <= 90.0, "in [-90, 90]"),
                ("emission_bandwidth_hz", bandwidth, bandwidth > 0.0, "> 0"),
                ("antenna_height_m", height, height >= 0.0, ">= 0")):
            if not ok.all():
                i = int(np.argmin(ok))
                raise ConfigError(f"bad transmitter record {i + 1}: {key} "
                                  f"{values[i]} is not {rule}")
        floats["lon"] = frames.wrap_longitude(floats["lon"])
        return cls(columns.pop("ids"), columns.pop("kinds"), **floats)

    def __len__(self):
        return len(self.lat)

    def __eq__(self, other):
        if not isinstance(other, DeploymentArrays):
            return NotImplemented
        return (self.ids == other.ids and self.kinds == other.kinds
                and all(np.array_equal(getattr(self, c), getattr(other, c))
                        for c in self._FLOAT_COLUMNS))


#: Emitters whose geometry SweepGeometry computes at a time, so that its
#: temporaries stay small.
_GEOMETRY_CHUNK = 1 << 15


class SweepGeometry:
    """What the pixel sweep reads of a deployment, in latitude order.

    order = np.argsort(lat, kind="stable") holds the deployment index of
    each sweep position; equal latitudes keep deployment order, so the
    order is the same on every machine.  It is sorted without the stable
    sort unless two latitudes are equal (-0.0 and 0.0 among them): with
    distinct values the sorted order is unique.  In that order: lon,
    ground_ecef and antenna_ecef (rows x, y, z of each ground point and
    antenna) and trig (the rows of frames.site_trig), the columns read
    for every emitter near a pixel.  The rest is read in the
    deployment's own columns, with no sorted copy: the latitudes are
    searched through order, and antenna_height and eirp are gathered
    through it for the emitters that count.  alt_span is the largest
    |altitude| and sink how far the lowest antenna lies below the
    ellipsoid (each 0 if none), the bounds _near_pixel needs.  The ECEF
    rows and trig are computed _GEOMETRY_CHUNK emitters at a time.
    """

    def __init__(self, deployment: DeploymentArrays):
        self.order = np.argsort(deployment.lat)
        if np.any(np.diff(deployment.lat[self.order]) == 0.0):
            self.order = np.argsort(deployment.lat, kind="stable")
        self.lon = deployment.lon[self.order]
        n = len(self.order)
        self.ground_ecef, self.antenna_ecef, self.trig = (
            np.empty((rows, n)) for rows in (3, 3, 4))
        self.alt_span = self.sink = 0.0
        for lo in range(0, n, _GEOMETRY_CHUNK):
            rows = slice(lo, lo + _GEOMETRY_CHUNK)
            index = self.order[rows]
            alt = deployment.alt[index]
            antenna_alt = alt + deployment.antenna_height[index]
            trig = frames.site_trig(deployment.lat[index], self.lon[rows])
            self.ground_ecef[:, rows] = frames.trig_to_ecef(trig, alt)
            self.antenna_ecef[:, rows] = frames.trig_to_ecef(trig,
                                                             antenna_alt)
            self.trig[:, rows] = trig
            self.alt_span = max(self.alt_span, float(np.max(np.abs(alt))))
            self.sink = max(self.sink, -float(np.min(antenna_alt)))

    def __len__(self):
        return len(self.order)


# --- aggregation ---------------------------------------------------------------


#: Metres added to the screen's reach in _near_pixel, far above the
#: rounding of ECEF positions (nanometres) and of degrees (micrometres).
_SCREEN_SLACK_M = 1.0


def _screen_reach(pixel: PixelFootprint, sat_r, alt_span: float,
                  sink: float):
    """(dlat, dlon): the latitude and longitude reach, in degrees, around
    the pixel centre's, beyond which no emitter can count in this pixel,
    or None when the reach cannot be bounded so.

    An emitter counts when its ground point p is inside the pixel ellipse
    and its antenna sees the satellite S above the horizon.  Work on the
    WGS-84 ellipsoid K (semi-axes A, B), with c0 and q the feet of the
    pixel centre c and of p (same latitude and longitude), n the unit
    normal at c0, to which the ellipse axes are orthogonal, and
    M = B**2 / A, the smallest radius of curvature of K.  Take a the semi-
    major axis, H the largest |altitude| of the emitters (alt_span), sink
    how far their lowest antenna lies below K (0 if none does) and s the
    distance of q from the line c0 + t n.

    Since |u_major.(p - c)|**2 + |u_minor.(p - c)|**2 <= a**2 inside the
    ellipse and p - c = q - c0 + alt n_q - alt_c n, with n_q the normal
    at q, s <= a + H sin(n, n_q) <= a + H.  The ball of radius M tangent
    to K at c0 lies inside K, and q on the surface lies outside its
    interior, so with z = n.(q - c0) <= 0 either

        near:  z >= -(M - sqrt(M**2 - s**2)), or
        far:   z <= -M - sqrt(M**2 - s**2), q beyond the ball's centre.

    Far is ruled out when the satellite sees the pixel centre,
    n.(S - c0) >= 0, and s + (1 - M / (2A)) |S - c0| < M - sink (for a
    LEO satellite, thousands of km to spare); otherwise there is no
    reach (None).  The segment from a far q to S crosses the plane of the
    ball's centre o at w = q + t (S - q) with t <= 1 - M / (2A) (q lies
    at most 2A below c0), and |w - o| <= s + t |S - c0|, so w lies sink
    deep inside K, n_q.(S - q) < -sink and the antenna, at
    q + (alt + antenna_height) n_q, sees S below its horizon.

    Near: the chord is |q - c0| <= rho = sqrt(s**2 + (M - sqrt(M**2 -
    s**2))**2), and a surface path between points rho apart is at most
    2 M asin(rho / 2M) = M asin(s / M) long (frames.surface_reach_deg).
    The normal turns by at most 1/M per metre of path, so with s <= a + H
    first, sin(n, n_q) <= (a + H) / M and s <= a + H (a + H) / M.
    frames.surface_reach_deg turns rho into a latitude and longitude reach
    around c0's; a longitude difference d in [0, 360] passes when d or
    360 - d is within reach, and near a pole the reach waives that test.
    _SCREEN_SLACK_M covers rounding.
    """
    lat, lon = pixel.center.latitude, pixel.center.longitude
    _, _, up = frames.enu_basis(lat, lon)
    to_sat = sat_r - frames.geodetic_to_ecef(lat, lon, 0.0)
    big_a = frames.WGS84_A
    big_m = frames.min_curvature_radius(0.0)
    a = pixel.semi_major
    far = a + alt_span + _SCREEN_SLACK_M
    if (float(np.dot(up, to_sat)) < 0.0
            or far + (1.0 - big_m / (2.0 * big_a)) * np.linalg.norm(to_sat)
            + sink >= big_m):
        return None
    s = a + alt_span * (a + alt_span) / big_m + _SCREEN_SLACK_M
    chord = math.hypot(s, s * s / (big_m + math.sqrt(big_m ** 2 - s * s)))
    return frames.surface_reach_deg(chord, lat, lat, 0.0)


def _near_pixel(deployment: DeploymentArrays, pixel: PixelFootprint,
                sat_r):
    """Positions (ascending) in the deployment's SweepGeometry of the
    emitters that can count in this pixel: all of them when _screen_reach
    has no reach, else those whose latitude lat_e and longitude lon_e
    pass

        lat - dlat <= lat_e <= lat + dlat, and
        d <= dlon or d >= 360 - dlon, with d = |lon_e - lon|,

    (lat, lon) the pixel centre.  The geometry is in latitude order, so
    the latitude band is one run of positions, found by two binary
    searches of the latitudes through that order (side "left" keeps
    lat_e == lat - dlat, side "right" lat_e == lat + dlat), and only that
    run takes the longitude test: the cost grows with the emitters in the
    band, not with the deployment.
    """
    geometry = deployment.build_geometry()
    reach = _screen_reach(pixel, sat_r, geometry.alt_span, geometry.sink)
    if reach is None:
        return np.arange(len(geometry))
    dlat, dlon = reach
    lat, lon = pixel.center.latitude, pixel.center.longitude
    lo, hi = (np.searchsorted(deployment.lat, edge, side=side,
                              sorter=geometry.order)
              for edge, side in ((lat - dlat, "left"), (lat + dlat, "right")))
    lon_off = np.abs(geometry.lon[lo:hi] - lon)
    return lo + np.flatnonzero((lon_off <= dlon) | (lon_off >= 360.0 - dlon))


def aggregate_interference(pixel: PixelFootprint, sat_r,
                           deployment: DeploymentArrays,
                           model: PathModel, radiometer: RadiometerSpec,
                           atmosphere=None,
                           polarization_db: float = -3.0,
                           reflection_coeff: complex = -0.7,
                           two_ray_floor_db: float = -60.0,
                           include_contributors: bool = True
                           ) -> InterferenceSample:
    """Aggregate dBm/MHz at the radiometer from transmitters in one pixel.

    sat_r is the satellite's ECEF position (m) when it observes the pixel.
    Only transmitters inside the raw (unbuffered) pixel ellipse count;
    buffering is a protection concept, not an accounting one.  Each
    contribution is EIRP density plus the loss chain at that transmitter's
    own slant geometry, the two-ray path difference taken from the sine of
    each elevation that frames.enu_look returns (so a two-ray contribution
    can differ in the last bits from two_ray_gain_db of the elevation in
    degrees); the aggregate is their linear power sum.  Reuse one
    DeploymentArrays when sweeping many pixels; disable
    include_contributors to drop the per-transmitter audit tuples on large
    grids (the aggregate is unchanged).

    The sweep reads the deployment's SweepGeometry: only the emitters of
    the proven box of _near_pixel are tested against the ellipse, and
    every step is elementwise, so each contribution is that of testing
    all of them; antenna heights and EIRPs are read for the emitters
    that count only.  Contributions are summed in latitude order, so the
    aggregate can differ in its last bits from a sum in deployment order;
    contributors are listed in deployment order.
    """
    geometry = deployment.build_geometry()
    rows = _near_pixel(deployment, pixel, sat_r)
    rows = rows[_ellipse_margins(_frame(pixel),
                                 (column[rows]
                                  for column in geometry.ground_ecef),
                                 1.0) <= 0.0]
    _, _, elevation, slant, sin_el = frames.enu_look(
        [r - column[rows] for r, column in zip(sat_r, geometry.antenna_ecef)],
        [trig[rows] for trig in geometry.trig])
    visible = elevation > 0.0
    rows = rows[visible]
    if rows.size == 0:
        return InterferenceSample(pixel=pixel, aggregate=float("-inf"),
                                  contributors=())
    elevation = elevation[visible]
    slant = slant[visible]
    sin_el = sin_el[visible]
    index = geometry.order[rows]

    loss = np.asarray(fspl_db(slant, radiometer.center_frequency),
                      dtype=float)
    if atmosphere is not None:
        loss = loss + atmosphere.loss_db(elevation)
    loss = loss + polarization_db + radiometer.antenna_max_gain
    path = "LOS"
    if model is PathModel.TWO_RAY:
        loss = loss + _two_ray_gain_db(
            deployment.antenna_height[index], sin_el,
            radiometer.center_frequency, reflection_coeff, two_ray_floor_db)
        path = "TwoRay"

    contributions = deployment.eirp[index] + loss
    linear_sum = float(np.sum(10.0 ** (contributions / 10.0)))
    aggregate = (10.0 * math.log10(linear_sum) if linear_sum > 0.0
                 else float("-inf"))
    contributors = ()
    if include_contributors:
        by_index = np.argsort(index)
        contributors = tuple(
            (deployment.ids[i], float(c), path)
            for i, c in zip(index[by_index], contributions[by_index]))
    return InterferenceSample(pixel=pixel, aggregate=aggregate,
                              contributors=contributors)


def compliance(samples, threshold: float = -200.0, quantile: float = 0.9999,
               area_km2: float = 2.0e6) -> ComplianceReport:
    """Fraction of pixels whose aggregate is strictly below the threshold."""
    if not samples:
        raise NoSamples("compliance needs at least one interference sample")
    n = len(samples)
    compliant = sum(1 for s in samples if s.aggregate < threshold)
    fraction = compliant / n
    return ComplianceReport(
        area_km2=area_km2,
        n_pixels=n,
        threshold=threshold,
        quantile=quantile,
        fraction_compliant=fraction,
        passed=fraction >= quantile,
    )


# --- serialization -------------------------------------------------------------


_JSONL_CHUNK = 1 << 14

#: "%06d" pads the indices below this one.
_ID_PAD = 10 ** 6


def _numpy_json(values) -> bytes:
    """orjson's text of a numpy array, brackets included."""
    # (Imported here, so only the writer pays its start-up.)
    import orjson
    return orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)


def _json_texts(column):
    """JSON text of each value, as json.dumps writes it, encoded; a single
    bytes when the whole (non-empty) column holds one value, bit for bit.

    A float column is formatted by one orjson call (shortest round-trip
    digits, as repr), whose text equals json.dumps for ±0 and every
    1e-4 <= |x| < 1e16; the rest (NaN and ±inf, which orjson writes as
    null, and the exponent forms, which it writes otherwise) go through
    json.dumps one by one.
    """
    if isinstance(column, list):
        if len(set(column)) == 1:
            return encode_basestring_ascii(column[0]).encode()
        return [text.encode() for text in map(encode_basestring_ascii,
                                              column)]
    bits = column.view(np.int64)
    if np.all(bits == bits[0]):
        return json.dumps(float(column[0])).encode()
    column = np.ascontiguousarray(column)
    texts = _numpy_json(column)[1:-1].split(b",")
    size = np.abs(column)
    for i in np.flatnonzero(~((size >= 1e-4) & (size < 1e16))
                            & (column != 0.0)):
        texts[i] = json.dumps(float(column[i])).encode()
    return texts


def _id_digits(lo: int, hi: int) -> list:
    """b"%06d" % i for each i in range(lo, hi), 0 <= lo < hi, from one
    orjson call on each side of _ID_PAD: below it, the text of
    _ID_PAD + i is "1" and then the six padded digits of i."""
    if lo < _ID_PAD < hi:
        return _id_digits(lo, _ID_PAD) + _id_digits(_ID_PAD, hi)
    if hi <= _ID_PAD:
        return _numpy_json(np.arange(lo, hi) + _ID_PAD)[2:-1].split(b",1")
    return _numpy_json(np.arange(lo, hi))[1:-1].split(b",")


def _json_pieces(column, lo: int, hi: int) -> list:
    """The JSON texts of column[lo:hi] as literal text (bytes) and
    per-emitter texts (a list of bytes) in turn.  A GeneratedIds chunk
    lies in one run: its prefix, JSON-escaped, is literal text, and only
    the digits are per emitter (digits never need escaping)."""
    if not isinstance(column, GeneratedIds):
        return [_json_texts(column[lo:hi])]
    k = bisect_right(column._ends, lo) - 1
    start = column._ends[k]
    return [encode_basestring_ascii(column._prefixes[k])[:-1].encode(),
            _id_digits(lo - start, hi - start), b'"']


def write_deployment_jsonl(deployment: DeploymentArrays, path) -> None:
    """One deployment record per emitter and line, keys sorted.

    Each line equals json.dumps(record, sort_keys=True), the record keyed
    as _RECORD_FIELDS says.  Columns are formatted _JSONL_CHUNK emitters
    at a time, so memory does not grow with the file, and a chunk of
    GeneratedIds lies in one run (one emitter class).  Within a chunk, a
    column that holds one value joins the literal text around it, and so
    does a generated id's escaped prefix; in a generated deployment the
    kind and antenna height are constant within a class, so per emitter
    only the id's digits, the EIRP, the latitude and the longitude are
    formatted.  The record is then literal runs and per-emitter texts in
    turn, interleaved into one list of bytes and joined.
    """
    n = len(deployment)
    cuts = set(range(0, n, _JSONL_CHUNK))
    if isinstance(deployment.ids, GeneratedIds):
        cuts.update(deployment.ids._ends)
    cuts = sorted(cut for cut in cuts if cut < n) + [n]
    with open(path, "wb") as fh:
        for lo, hi in zip(cuts, cuts[1:]):
            pieces, literal = [], b"{"
            for i, (key, column, _) in enumerate(_RECORD_FIELDS):
                literal += f'{", " if i else ""}"{key}": '.encode()
                for texts in _json_pieces(getattr(deployment, column), lo,
                                          hi):
                    if isinstance(texts, bytes):
                        literal += texts
                    else:
                        pieces += [literal, texts]
                        literal = b""
            pieces.append(literal + b"}\n")
            step = len(pieces)
            flat = [None] * ((hi - lo) * step)
            for j, piece in enumerate(pieces):
                flat[j::step] = ([piece] * (hi - lo)
                                 if isinstance(piece, bytes) else piece)
            fh.write(b"".join(flat))


def read_deployment_jsonl(path) -> DeploymentArrays:
    """DeploymentArrays.from_records over the non-blank lines of a
    deployment.jsonl, so record n is its n-th non-blank line; a line that
    is not a valid record raises ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        return DeploymentArrays.from_records(
            json.loads(line) for line in map(str.strip, fh) if line)


GRID_FIELDS = ("pixel_lat", "pixel_lon", "aggregate_dbm_mhz", "model",
               "n_contributors")


def write_interference_grid_csv(samples, model: PathModel, path,
                                provenance: dict = None) -> None:
    write_csv(path, provenance, GRID_FIELDS, (
        (f"{s.pixel.center.latitude:.6f}", f"{s.pixel.center.longitude:.6f}",
         "-inf" if s.aggregate == float("-inf") else f"{s.aggregate:.6f}",
         model.value, len(s.contributors)) for s in samples))
