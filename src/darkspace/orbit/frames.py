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

#: Earth rotation rate, rad/s (IAU-82/GMST consistent value), and vector.
OMEGA_EARTH = 7.292115146706979e-5
EARTH_ROTATION = np.array([0.0, 0.0, OMEGA_EARTH])


def wrap_longitude(lon):
    """Longitudes (deg) into (-180, 180], elementwise: in-range values keep
    their bits, others wrap (-180 to 180, +-inf to NaN, silently) in a copy;
    an in-range float array comes back as it is."""
    lon = np.asarray(lon, dtype=float)
    out = ~((lon > -180.0) & (lon <= 180.0))
    if out.any():
        lon = lon.copy()
        with np.errstate(invalid="ignore"):
            wrapped = (lon[out] + 180.0) % 360.0 - 180.0
        wrapped[wrapped == -180.0] = 180.0
        lon[out] = wrapped
    return lon[()]


def _cross(a, b):
    """np.cross(a, b, axis=0) for (3,), (3, n) or (3, 1) arrays, in its
    operation order (so its bits) but without its axis bookkeeping."""
    return np.stack((a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]))


def inertial_velocity(r, v):
    """v + w x r: inertial velocity in Earth-fixed axes, (3,) or (3, n)."""
    return v + _cross(EARTH_ROTATION, r)


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
    return trig_to_ecef(site_trig(lat_deg, lon_deg), alt_m)


def trig_to_ecef(trig, alt_m):
    """geodetic_to_ecef of the sites whose site_trig is trig, at altitude
    alt_m, so one site_trig serves several altitudes."""
    sin_lat, cos_lat, sin_lon, cos_lon = trig
    alt = np.asarray(alt_m, dtype=float)
    n = WGS84_A / np.sqrt(1.0 - WGS84_E2 * sin_lat**2)
    x = (n + alt) * cos_lat * cos_lon
    y = (n + alt) * cos_lat * sin_lon
    z = (n * (1.0 - WGS84_E2) + alt) * sin_lat
    return np.stack([x, y, z])


def min_curvature_radius(altitude):
    """M = (B + h)**2 / (A + h), the smallest radius of curvature of the
    WGS-84 ellipsoid shifted out by h = altitude (semi-axes A + h, B + h)."""
    return (WGS84_B + altitude) ** 2 / (WGS84_A + altitude)


def surface_reach_deg(chord, lat_lo, lat_hi, altitude):
    """(dlat, dlon): the latitude and longitude reach of a surface chord.

    On the altitude-shifted ellipsoid (semi-axes A, B) no radius of
    curvature is below M = min_curvature_radius, so the shortest surface
    path between points a chord rho apart is at most s = 2 M asin(rho / 2M)
    long; along it latitude changes by at most dlat = s / M and, at
    latitudes up to phi_far, longitude by at most dlon = s / (A cos
    phi_far), with phi_far = min(90, max(|lat_lo - dlat|, |lat_hi + dlat|))
    for paths from latitudes in [lat_lo, lat_hi].  cos(90 deg) is a tiny
    positive number, so near a pole dlon exceeds 180 and waives any
    longitude test.  Elementwise over chord; degrees in and out.
    """
    big_a = WGS84_A + altitude
    big_m = min_curvature_radius(altitude)
    path = 2.0 * big_m * np.arcsin(np.minimum(chord / (2.0 * big_m), 1.0))
    dlat = np.degrees(path / big_m)
    phi_far = np.maximum(np.abs(lat_lo - dlat), np.abs(lat_hi + dlat))
    dlon = np.degrees(path / (big_a * np.cos(np.radians(
        np.minimum(phi_far, 90.0)))))
    return dlat, dlon


def _bowring_normal(r_ecef_m):
    """(x, y, z, p2, k, zn): an ECEF point, p2 = x**2 + y**2, and the
    WGS-84 normal through it along (k x, k y, zn).  Two steps of Bowring's
    (1976) latitude iteration,

        tan(beta) = (B / A) tan(phi)
        tan(phi)  = (z + e'**2 B sin(beta)**3) / (p - e**2 A cos(beta)**3)

    from tan(beta) = A z / (B p), p = hypot(x, y), give the exact latitude
    to rounding from the surface to LEO; k (x, y) is never divided by p,
    so the polar axis needs no guard."""
    r = np.asarray(r_ecef_m, dtype=float)
    x, y, z = r[0], r[1], r[2]
    p2 = x * x + y * y
    ep2 = WGS84_E2 / (1.0 - WGS84_E2)
    # (k p, zn) points along the normal at latitude phi; the start
    # (p, z A**2 / B**2) is the one whose parametric latitude is beta_0.
    k = np.ones_like(z)
    zn = z * (WGS84_A / WGS84_B) ** 2
    for _ in range(2):
        h = np.sqrt(WGS84_A ** 2 * k * k * p2 + WGS84_B ** 2 * zn * zn)
        cos_beta_over_p = WGS84_A * k / h
        sin_beta = WGS84_B * zn / h
        k = 1.0 - WGS84_E2 * WGS84_A * cos_beta_over_p ** 3 * p2
        zn = z + ep2 * WGS84_B * sin_beta ** 3
    return x, y, z, p2, k, zn


def ecef_to_geodetic(r_ecef_m):
    """ECEF metres to WGS-84 (lat deg, lon deg, alt m): the latitude of
    _bowring_normal, and the height p cos(phi) + z sin(phi)
    - A sqrt(1 - e**2 sin(phi)**2), which needs no guard at the poles."""
    x, y, z, p2, k, zn = _bowring_normal(r_ecef_m)
    p = np.sqrt(p2)
    lat = np.arctan2(zn, k * p)
    sin_lat = np.sin(lat)
    alt = (p * np.cos(lat) + z * sin_lat
           - WGS84_A * np.sqrt(1.0 - WGS84_E2 * sin_lat ** 2))
    return np.degrees(lat)[()], np.degrees(np.arctan2(y, x))[()], alt[()]


def geodetic_up(r_ecef_m):
    """Unit geodetic up (the WGS-84 normal) through ECEF points, (3, n)."""
    x, y, _, p2, k, zn = _bowring_normal(r_ecef_m)
    norm = np.sqrt(k * k * p2 + zn * zn)
    return np.stack((k * x / norm, k * y / norm, zn / norm))


def site_trig(lat_deg, lon_deg):
    """(sin_lat, cos_lat, sin_lon, cos_lon) of sites (deg), elementwise."""
    lat = np.radians(np.asarray(lat_deg, dtype=float))
    lon = np.radians(np.asarray(lon_deg, dtype=float))
    return np.sin(lat), np.cos(lat), np.sin(lon), np.cos(lon)


def enu_basis(lat_deg, lon_deg):
    """Unit east/north/up vectors of the local tangent frame.

    Returns three arrays shaped like geodetic_to_ecef output columns, i.e.
    (3,) for scalar inputs or (3, n) elementwise.
    """
    sin_lat, cos_lat, sin_lon, cos_lon = site_trig(lat_deg, lon_deg)
    zero = np.zeros_like(sin_lat)
    east = np.stack([-sin_lon, cos_lon, zero])
    north = np.stack([-sin_lat * cos_lon, -sin_lat * sin_lon, cos_lat])
    up = np.stack([cos_lat * cos_lon, cos_lat * sin_lon, sin_lat])
    return east, north, up


def enu_look(rho, trig):
    """(east, north, elevation deg, range, sine of elevation) of rho, three
    ECEF rows, in the local frames whose site_trig is trig, elementwise.
    Each component adds one row's product at a time in
    np.sum(rho * basis, axis=0)'s order over the enu_basis vector (east
    skips its zero z term), so it can differ from that sum only in the sign
    of a zero.  The sine is up / range clipped to [-1, 1], the value whose
    arcsin is the elevation."""
    sin_lat, cos_lat, sin_lon, cos_lon = trig
    x, y, z = rho
    e = x * -sin_lon + y * cos_lon
    n = x * (-sin_lat * cos_lon) + y * (-sin_lat * sin_lon) + z * cos_lat
    u = x * (cos_lat * cos_lon) + y * (cos_lat * sin_lon) + z * sin_lat
    slant = np.sqrt(e * e + n * n + u * u)
    sin_el = np.clip(u / slant, -1.0, 1.0)
    return e, n, np.degrees(np.arcsin(sin_el)), slant, sin_el


def look_angles_from_ecef(target_ecef_m, site_ecef_m, site_lat_deg,
                          site_lon_deg):
    """Elevation/azimuth (degrees) and slant range (m) of target from site.

    Elevation is measured from the local horizon (negative below it);
    azimuth clockwise from true north in [0, 360).
    """
    rho = np.asarray(target_ecef_m, dtype=float) - np.asarray(
        site_ecef_m, dtype=float)
    e, n, elevation, slant, _ = enu_look(rho, site_trig(site_lat_deg,
                                                        site_lon_deg))
    azimuth = np.degrees(np.arctan2(e, n)) % 360.0
    return elevation[()], azimuth[()], slant[()]
