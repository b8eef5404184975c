"""Coordinate frame transforms: TEME -> ECEF, WGS-84 geodetic <-> ECEF, ENU.

Everything is vector-friendly: positions are numpy arrays shaped (3,) or
(3, n) and angles broadcast elementwise.  The Earth-fixed frame is the
pseudo-Earth-fixed frame reached by rotating TEME through GMST about the
pole; polar motion (tens of metres) is ignored, which is far below the
footprint scale this package works at.
"""
from __future__ import annotations

import numpy as np

from .sgp4 import gstime

# WGS-84 ellipsoid.
WGS84_A = 6378137.0                 # semi-major axis, m
WGS84_F = 1.0 / 298.257223563       # flattening
WGS84_B = WGS84_A * (1.0 - WGS84_F)
WGS84_E2 = WGS84_F * (2.0 - WGS84_F)

#: Earth rotation rate, rad/s (IAU-82/GMST consistent value).
OMEGA_EARTH = 7.292115146706979e-5


def teme_to_ecef(r_teme_km, v_teme_kms, jd_ut1):
    """Rotate TEME state vectors into the Earth-fixed frame.

    Args:
        r_teme_km: position, shape (3,) or (3, n), km.
        v_teme_kms: velocity, same shape, km/s.
        jd_ut1: julian date(s) matching the trailing dimension.

    Returns:
        (r_ecef_m, v_ecef_ms): metres and metres/second, same shapes.
    """
    r = np.asarray(r_teme_km, dtype=float) * 1000.0
    v = np.asarray(v_teme_kms, dtype=float) * 1000.0
    g = gstime(jd_ut1)
    cg, sg = np.cos(g), np.sin(g)

    rx = cg * r[0] + sg * r[1]
    ry = -sg * r[0] + cg * r[1]
    rz = r[2]

    # Earth-fixed velocity = rotated inertial velocity minus omega x r.
    vx = cg * v[0] + sg * v[1] + OMEGA_EARTH * ry
    vy = -sg * v[0] + cg * v[1] - OMEGA_EARTH * rx
    vz = v[2]

    return np.stack([rx, ry, rz]), np.stack([vx, vy, vz])


def geodetic_to_ecef(lat_deg, lon_deg, alt_m):
    """WGS-84 geodetic coordinates to ECEF metres; broadcasts elementwise."""
    lat = np.radians(np.asarray(lat_deg, dtype=float))
    lon = np.radians(np.asarray(lon_deg, dtype=float))
    alt = np.asarray(alt_m, dtype=float)
    sin_lat = np.sin(lat)
    n = WGS84_A / np.sqrt(1.0 - WGS84_E2 * sin_lat**2)
    x = (n + alt) * np.cos(lat) * np.cos(lon)
    y = (n + alt) * np.cos(lat) * np.sin(lon)
    z = (n * (1.0 - WGS84_E2) + alt) * sin_lat
    return np.stack([x, y, z])


def surface_reach_deg(chord, lat_lo, lat_hi, altitude):
    """(dlat, dlon): the latitude and longitude reach of a surface chord.

    On the altitude-shifted ellipsoid (semi-axes A, B) no radius of
    curvature is below M = B**2 / A, so the shortest surface path between
    points a chord rho apart is at most s = 2 M asin(rho / 2M) long; along
    it latitude changes by at most dlat = s / M and, at latitudes up to
    phi_far, longitude by at most dlon = s / (A cos phi_far), with
    phi_far = min(90, max(|lat_lo - dlat|, |lat_hi + dlat|)) for paths
    from latitudes in [lat_lo, lat_hi].  cos(90 deg) is a tiny positive
    number, so near a pole dlon exceeds 180 and waives any longitude test.
    Elementwise over chord; degrees in and out.
    """
    big_a = WGS84_A + altitude
    big_m = (WGS84_B + altitude) ** 2 / big_a
    path = 2.0 * big_m * np.arcsin(np.minimum(chord / (2.0 * big_m), 1.0))
    dlat = np.degrees(path / big_m)
    phi_far = np.maximum(np.abs(lat_lo - dlat), np.abs(lat_hi + dlat))
    dlon = np.degrees(path / (big_a * np.cos(np.radians(
        np.minimum(phi_far, 90.0)))))
    return dlat, dlon


def ecef_to_geodetic(r_ecef_m):
    """ECEF metres to WGS-84 (lat deg, lon deg, alt m).

    Fixed-point iteration on the geodetic latitude; twelve rounds converge
    far below the millimetre/nanodegree level for any point from the surface
    to LEO altitudes.
    """
    r = np.asarray(r_ecef_m, dtype=float)
    x, y, z = r[0], r[1], r[2]
    lon = np.arctan2(y, x)
    p = np.hypot(x, y)

    # Near-polar guard: p ~ 0 makes the iteration's atan2 arguments degenerate.
    polar = p < 1.0e-9

    lat = np.arctan2(z, p * (1.0 - WGS84_E2))
    alt = np.zeros_like(np.asarray(z, dtype=float))
    for _ in range(12):
        sin_lat = np.sin(lat)
        n = WGS84_A / np.sqrt(1.0 - WGS84_E2 * sin_lat**2)
        alt = p / np.cos(lat) - n
        lat = np.arctan2(z, p * (1.0 - WGS84_E2 * n / (n + alt)))

    lat = np.where(polar, np.where(z >= 0.0, np.pi / 2, -np.pi / 2), lat)
    alt = np.where(polar, np.abs(z) - WGS84_B, alt)
    return np.degrees(lat)[()], np.degrees(lon)[()], alt[()]


def enu_basis(lat_deg, lon_deg):
    """Unit east/north/up vectors of the local tangent frame.

    Returns three arrays shaped like geodetic_to_ecef output columns, i.e.
    (3,) for scalar inputs or (3, n) elementwise.
    """
    lat = np.radians(np.asarray(lat_deg, dtype=float))
    lon = np.radians(np.asarray(lon_deg, dtype=float))
    sin_lat, cos_lat = np.sin(lat), np.cos(lat)
    sin_lon, cos_lon = np.sin(lon), np.cos(lon)
    zero = np.zeros_like(lat)
    east = np.stack([-sin_lon, cos_lon, zero])
    north = np.stack([-sin_lat * cos_lon, -sin_lat * sin_lon, cos_lat])
    up = np.stack([cos_lat * cos_lon, cos_lat * sin_lon, sin_lat])
    return east, north, up


def look_angles_from_ecef(target_ecef_m, site_ecef_m, site_lat_deg,
                          site_lon_deg):
    """Elevation/azimuth (degrees) and slant range (m) of target from site.

    Elevation is measured from the local horizon (negative below it);
    azimuth clockwise from true north in [0, 360).
    """
    rho = np.asarray(target_ecef_m, dtype=float) - np.asarray(
        site_ecef_m, dtype=float)
    east, north, up = enu_basis(site_lat_deg, site_lon_deg)
    if rho.ndim == 2 and east.ndim == 1:
        east, north, up = east[:, None], north[:, None], up[:, None]
    e = np.sum(rho * east, axis=0)
    n = np.sum(rho * north, axis=0)
    u = np.sum(rho * up, axis=0)
    slant = np.sqrt(e * e + n * n + u * u)
    elevation = np.degrees(np.arcsin(np.clip(u / slant, -1.0, 1.0)))
    azimuth = np.degrees(np.arctan2(e, n)) % 360.0
    return elevation[()], azimuth[()], slant[()]
