"""TLE ingestion, SGP4 propagation, and ground-relative look angles."""
from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from functools import lru_cache

import numpy as np

from ..errors import EpochTooFar
from ..timeutil import (JD_1949_DEC_31, ensure_utc, julian_date,
                        minutes_since, MINUTES_PER_DAY)
from . import frames
from .sgp4 import SGP4Model, TWOPI
from .tle import OrbitalElements, format_tle, load_tle_file, parse_tle

__all__ = [
    "OrbitalElements", "SatelliteState", "GroundPoint", "LookAngles",
    "parse_tle", "load_tle_file", "format_tle",
    "propagate", "propagate_many", "topocentric", "orbital_period_seconds",
    "frames",
]

#: Propagation accuracy guard: TLEs go stale; refuse to extrapolate further.
MAX_EPOCH_OFFSET_DAYS = 30.0


@dataclass(frozen=True)
class GroundPoint:
    """A WGS-84 ground location (degrees, degrees, metres)."""
    latitude: float
    longitude: float
    altitude: float = 0.0

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude {self.latitude} outside [-90, 90]")
        lon = (self.longitude + 180.0) % 360.0 - 180.0
        if lon == -180.0:
            lon = 180.0
        object.__setattr__(self, "longitude", lon)

    def ecef(self) -> np.ndarray:
        return frames.geodetic_to_ecef(self.latitude, self.longitude,
                                       self.altitude)


@dataclass(frozen=True)
class SatelliteState:
    """Propagated satellite state at one UTC instant.

    position_ecef/velocity_ecef are Earth-fixed metres and metres/second;
    geodetic is (latitude deg, longitude deg, altitude m) on WGS-84.
    """
    t: datetime
    position_ecef: tuple[float, float, float]
    velocity_ecef: tuple[float, float, float]
    geodetic: tuple[float, float, float]

    @property
    def r(self) -> np.ndarray:
        return np.array(self.position_ecef)

    @property
    def v(self) -> np.ndarray:
        return np.array(self.velocity_ecef)

    @property
    def v_inertial(self) -> np.ndarray:
        """Inertial velocity expressed in the Earth-fixed basis (m/s)."""
        omega = np.array([0.0, 0.0, frames.OMEGA_EARTH])
        return self.v + np.cross(omega, self.r)


@dataclass(frozen=True)
class LookAngles:
    """Target direction from a ground site: degrees, degrees, metres."""
    elevation: float
    azimuth: float
    slant_range: float


@lru_cache(maxsize=128)
def _model(elements: OrbitalElements) -> SGP4Model:
    return SGP4Model(
        epoch_days_1950=julian_date(elements.epoch) - JD_1949_DEC_31,
        bstar=elements.bstar,
        ecco=elements.eccentricity,
        argpo=np.radians(elements.arg_perigee),
        inclo=np.radians(elements.inclination),
        mo=np.radians(elements.mean_anomaly),
        no_kozai=elements.mean_motion * TWOPI / MINUTES_PER_DAY,
        nodeo=np.radians(elements.raan),
    )


def orbital_period_seconds(elements: OrbitalElements) -> float:
    """Orbital period implied by the TLE mean motion."""
    return 86400.0 / elements.mean_motion


def _check_epoch_offset(elements: OrbitalElements, minutes: np.ndarray):
    limit = MAX_EPOCH_OFFSET_DAYS * MINUTES_PER_DAY
    worst = float(np.max(np.abs(minutes), initial=0.0))
    if worst > limit:
        raise EpochTooFar(
            f"requested time is {worst / MINUTES_PER_DAY:.1f} days from the "
            f"element epoch; limit is {MAX_EPOCH_OFFSET_DAYS:.0f} days")


def propagate(elements: OrbitalElements, t: datetime) -> SatelliteState:
    """The Earth-fixed state at time t: propagate_many at one instant, with
    its geodetic position, and the same errors."""
    t = ensure_utc(t)
    r_ecef, v_ecef = propagate_many(elements, t, 0.0)
    lat, lon, alt = frames.ecef_to_geodetic(r_ecef)
    return SatelliteState(t=t, position_ecef=tuple(r_ecef.tolist()),
                          velocity_ecef=tuple(v_ecef.tolist()),
                          geodetic=(float(lat), float(lon), float(alt)))


def propagate_many(elements: OrbitalElements, t0: datetime,
                   offsets_s: np.ndarray):
    """Vectorized propagation at t0 + offsets (seconds).

    Returns (r_ecef, v_ecef) arrays of shape (3, n), or (3,) for a scalar
    offset, in metres and m/s.  Raises EpochTooFar beyond the 30-day guard
    and DecayedOrbit / PropagationError for SGP4's failure modes.
    """
    t0 = ensure_utc(t0)
    offsets_s = np.asarray(offsets_s, dtype=float)
    base_min = minutes_since(t0, elements.epoch)
    tsince = base_min + offsets_s / 60.0
    _check_epoch_offset(elements, tsince)
    model = _model(elements)
    r_teme, v_teme = model.position_velocity(tsince)
    jd = julian_date(t0) + offsets_s / 86400.0
    return frames.teme_to_ecef(r_teme, v_teme, jd)


def state_from_geodetic(t: datetime, latitude: float, longitude: float,
                        altitude_m: float,
                        velocity_ecef=(0.0, 0.0, 0.0)) -> SatelliteState:
    """Build a SatelliteState directly from geodetic coordinates.

    Useful for fixed-geometry link budget evaluations where no TLE is
    involved; the velocity defaults to zero.
    """
    r = frames.geodetic_to_ecef(latitude, longitude, altitude_m)
    return SatelliteState(
        t=ensure_utc(t),
        position_ecef=tuple(float(x) for x in r),
        velocity_ecef=tuple(float(x) for x in velocity_ecef),
        geodetic=(float(latitude), float(longitude), float(altitude_m)),
    )


def topocentric(sat: SatelliteState, ground: GroundPoint) -> LookAngles:
    """Look angles of a satellite from a ground point (local ENU frame).

    Elevation may be negative when the satellite is below the horizon.
    """
    elevation, azimuth, slant = frames.look_angles_from_ecef(
        sat.r, ground.ecef(), ground.latitude, ground.longitude)
    return LookAngles(elevation=float(elevation), azimuth=float(azimuth),
                      slant_range=float(slant))
