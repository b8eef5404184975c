"""Shared fixture generators for geofence and acceptance tests."""
from datetime import datetime, timezone

import numpy as np

from darkspace.orbit import GroundPoint, OrbitalElements, propagate, frames
from darkspace.radiometer import ScanLattice
from darkspace.timeutil import add_seconds

EPOCH = datetime(2023, 4, 23, 12, 0, tzinfo=timezone.utc)


def active_sample(spec, t, epoch):
    """The ScanSample active at t, phase origin epoch (ScanLattice.index)."""
    lattice = ScanLattice(spec, epoch)
    return lattice.scan_sample(*lattice.index(lattice.offset(t)))


def random_leo_elements(rng, catalog=90000):
    """A plausible near-circular LEO element set drawn from a seeded rng."""
    return OrbitalElements(
        catalog_number=catalog,
        epoch=EPOCH,
        inclination=float(rng.uniform(60.0, 100.0)),
        raan=float(rng.uniform(0.0, 360.0)),
        eccentricity=float(rng.uniform(0.0, 0.002)),
        arg_perigee=float(rng.uniform(0.0, 360.0)),
        mean_anomaly=float(rng.uniform(0.0, 360.0)),
        mean_motion=float(rng.uniform(13.8, 14.8)),
        bstar=2.0e-5,
        element_set_checksum_ok=True,
        name=f"SIM{catalog}",
    )


def transmitter_near_track(rng, elements, window, max_cross_km=900.0):
    """A ground point near the sub-satellite track somewhere in the window.

    Offsetting cross-track keeps subtension events likely without pinning
    them to the nadir pixel.
    """
    start, end = window
    t_mark = add_seconds(
        start, float(rng.uniform(0.2, 0.8))
        * (end - start).total_seconds())
    state = propagate(elements, t_mark)
    lat, lon, _ = state.geodetic

    east, north, _ = frames.enu_basis(lat, lon)
    v = state.v_inertial
    horiz = v - np.array([0, 0, 1]) * v[2]
    track_az = np.arctan2(horiz @ east, horiz @ north)
    cross_az = track_az + np.pi / 2

    offset_m = float(rng.uniform(-max_cross_km, max_cross_km)) * 1.0e3
    dlat = offset_m * np.cos(cross_az) / 111_320.0
    dlon = (offset_m * np.sin(cross_az)
            / (111_320.0 * max(np.cos(np.radians(lat)), 0.05)))
    new_lat = float(np.clip(lat + dlat, -89.0, 89.0))
    new_lon = float((lon + dlon + 180.0) % 360.0 - 180.0)
    return GroundPoint(new_lat, new_lon, 20.0)


def schedules_match(engine, oracle, tol_s=0.010, dt=None):
    """Same interval count and every boundary within tol_s.

    When dt is given, engine intervals that contain no oracle grid point
    (slivers strictly between adjacent samples, hence shorter than dt) are
    excluded before comparing: grid sampling cannot observe them, which is
    the oracle's documented limitation.  Every oracle interval must still
    pair with an engine interval.
    """
    engine_ivs = list(engine.intervals)
    excluded = 0
    if dt is not None:
        w0 = engine.window[0]
        observable = []
        for iv in engine_ivs:
            lo = (iv.start - w0).total_seconds()
            hi = (iv.end - w0).total_seconds()
            k = np.ceil(lo / dt - 1e-9)
            if k * dt <= hi + 1e-9:
                observable.append(iv)
            else:
                excluded += 1
        engine_ivs = observable
    if len(engine_ivs) != len(oracle.intervals):
        return False, (f"interval count {len(engine_ivs)} vs "
                       f"{len(oracle.intervals)} "
                       f"({excluded} sub-grid slivers excluded)")
    worst = 0.0
    for a, b in zip(engine_ivs, oracle.intervals):
        ds = abs((a.start - b.start).total_seconds())
        de = abs((a.end - b.end).total_seconds())
        worst = max(worst, ds, de)
        if ds > tol_s or de > tol_s:
            return False, (f"boundary mismatch {max(ds, de):.4f}s at "
                           f"{a.start.isoformat()}")
    detail = f"worst boundary delta {worst * 1e3:.2f} ms"
    if excluded:
        detail += f", {excluded} sub-grid sliver(s) excluded"
    return True, detail
