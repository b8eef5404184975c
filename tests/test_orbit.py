"""Frames, propagate() and topocentric look angles."""
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from darkspace.errors import EpochTooFar
from darkspace.orbit import (GroundPoint, LookAngles, frames, propagate,
                             propagate_many, state_from_geodetic,
                             topocentric, orbital_period_seconds)
from darkspace.timeutil import add_seconds

T0 = datetime(2023, 4, 23, 12, 0, tzinfo=timezone.utc)


def test_geodetic_ecef_round_trip():
    rng = np.random.default_rng(7)
    lats = rng.uniform(-89.9, 89.9, 200)
    lons = rng.uniform(-180.0, 180.0, 200)
    alts = rng.uniform(-100.0, 2.0e6, 200)
    r = frames.geodetic_to_ecef(lats, lons, alts)
    lat2, lon2, alt2 = frames.ecef_to_geodetic(r)
    assert np.max(np.abs(lat2 - lats)) < 1.0e-9
    assert np.max(np.abs(lon2 - lons)) < 1.0e-9
    assert np.max(np.abs(alt2 - alts)) < 1.0e-3  # 1 mm


def test_geodetic_poles():
    r = frames.geodetic_to_ecef(90.0, 0.0, 100.0)
    lat, lon, alt = frames.ecef_to_geodetic(r)
    assert lat == pytest.approx(90.0)
    assert alt == pytest.approx(100.0, abs=1e-3)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alt", [0.0, 1043.0, 100.0e3, 824.0e3, 2000.0e3])
def test_geodetic_up_matches_iterated_latitude(alt):
    """The closed-form up, and ecef_to_geodetic, agree with the inputs of
    geodetic_to_ecef (a closed form, so exact by construction): the up to
    1e-9 rad, the position to 1e-9 deg and 1 mm, at every latitude
    including the poles and next to them."""
    lat = np.concatenate((np.linspace(-90.0, 90.0, 721),
                          [90.0 - 1e-7, -90.0 + 1e-7, 1e-7, -1e-7]))
    for lon in (-180.0, -121.47, 0.0, 33.3, 90.0, 179.9):
        lons = np.full_like(lat, lon)
        r = frames.geodetic_to_ecef(lat, lons, alt)
        _, _, expected = frames.enu_basis(lat, lons)
        up = frames.geodetic_up(r)
        assert np.max(np.linalg.norm(up - expected, axis=0)) < 1e-9
        lat2, lon2, alt2 = frames.ecef_to_geodetic(r)
        assert np.max(np.abs(lat2 - lat)) < 1.0e-9
        assert np.max(np.abs(frames.wrap_longitude(lon2 - lon))) < 1.0e-9
        assert np.max(np.abs(alt2 - alt)) < 1.0e-3
    assert np.array_equal(frames.geodetic_up(np.array([[0.0], [0.0], [7e6]])),
                          [[0.0], [0.0], [1.0]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_wrap_longitude():
    """In-range longitudes keep their bits; -180 and whole turns past the
    range map to 180, and non-finite values to NaN without a warning."""
    assert np.array_equal(frames.wrap_longitude([-180.0, 540.0, -540.0]),
                          [180.0, 180.0, 180.0])
    assert np.isnan(frames.wrap_longitude([np.inf, -np.inf, np.nan])).all()
    lon = np.random.default_rng(3).uniform(-180.0, 180.0, 100_000)
    lon = lon[lon > -180.0]
    assert frames.wrap_longitude(lon).tobytes() == lon.tobytes()


def test_propagate_returns_leo_state(leo_tle):
    state = propagate(leo_tle, T0)
    lat, lon, alt = state.geodetic
    assert 200.0e3 < alt < 2000.0e3
    assert abs(lat) <= 90.0
    # Speed close to circular orbital speed at that altitude.
    speed = np.linalg.norm(state.v_inertial)
    assert 7.3e3 < speed < 7.6e3


def test_propagate_deterministic(leo_tle):
    s1 = propagate(leo_tle, T0)
    s2 = propagate(leo_tle, T0)
    assert s1.position_ecef == s2.position_ecef
    assert s1.velocity_ecef == s2.velocity_ecef


def test_propagate_epoch_guard(leo_tle):
    with pytest.raises(EpochTooFar):
        propagate(leo_tle, T0 + timedelta(days=45))


def test_decayed_orbit_detected():
    from darkspace.errors import DecayedOrbit
    from darkspace.orbit import OrbitalElements
    # Sub-orbital perigee: a(1-e) below the surface decays immediately.
    doomed = OrbitalElements(
        catalog_number=88888, epoch=T0, inclination=51.6, raan=100.0,
        eccentricity=0.05, arg_perigee=90.0, mean_anomaly=0.0,
        mean_motion=16.0, bstar=0.002, element_set_checksum_ok=True)
    with pytest.raises(DecayedOrbit):
        propagate(doomed, T0 + timedelta(hours=1))


def test_latitude_repeats_after_one_period(leo_tle):
    period = orbital_period_seconds(leo_tle)
    lat0 = propagate(leo_tle, T0).geodetic[0]
    lat1 = propagate(leo_tle, add_seconds(T0, period)).geodetic[0]
    assert abs(lat1 - lat0) < 0.2


def test_period_matches_ascending_nodes(leo_tle):
    """Mean-motion period vs time between successive ascending nodes."""
    period = orbital_period_seconds(leo_tle)
    offsets = np.arange(0.0, 3.0 * period, 5.0)
    r, _ = propagate_many(leo_tle, T0, offsets)
    z = r[2]
    crossings = []
    for i in range(len(z) - 1):
        if z[i] < 0.0 <= z[i + 1]:
            frac = -z[i] / (z[i + 1] - z[i])
            crossings.append(offsets[i] + frac * 5.0)
    assert len(crossings) >= 2
    nodal = crossings[1] - crossings[0]
    assert abs(nodal - period) / period < 0.01


def test_topocentric_table_geometries():
    sat = state_from_geodetic(T0, 40.774, -120.988, 832.1e3)
    look = topocentric(sat, GroundPoint(40.646, -121.637, 20.0))
    assert look.elevation == pytest.approx(85.6, abs=0.3)

    sat_edge = state_from_geodetic(T0, 40.828, -121.006, 832.1e3)
    look_edge = topocentric(sat_edge, GroundPoint(42.701, -105.927, 20.0))
    assert look_edge.elevation == pytest.approx(25.8, abs=0.3)
    assert look_edge.slant_range == pytest.approx(1578.0e3, abs=10.0e3)


def test_topocentric_straight_up():
    sat = state_from_geodetic(T0, 40.0, -105.0, 832.1e3)
    look = topocentric(sat, GroundPoint(40.0, -105.0, 0.0))
    assert look.elevation == pytest.approx(90.0, abs=1e-6)
    assert look.slant_range == pytest.approx(832.1e3, abs=1.0)


def test_topocentric_below_horizon_is_negative():
    sat = state_from_geodetic(T0, -40.0, 75.0, 832.1e3)
    look = topocentric(sat, GroundPoint(40.0, -105.0, 0.0))
    assert look.elevation < 0.0


def test_elevation_monotone_along_radial(leo_tle):
    """Closer ground points along the sub-satellite radial see the
    satellite higher in the sky."""
    state = propagate(leo_tle, T0)
    sub_lat, sub_lon, _ = state.geodetic
    looks = []
    for step_deg in (0.5, 2.0, 5.0, 8.0):
        ground = GroundPoint(max(min(sub_lat + step_deg, 90.0), -90.0),
                             sub_lon, 0.0)
        looks.append(topocentric(state, ground))
    for nearer, farther in zip(looks, looks[1:]):
        assert nearer.slant_range < farther.slant_range
        assert nearer.elevation >= farther.elevation


def test_propagate_many_matches_scalar(leo_tle):
    offsets = np.array([0.0, 60.0, 3600.0])
    r, v = propagate_many(leo_tle, T0, offsets)
    for i, dt in enumerate(offsets):
        state = propagate(leo_tle, add_seconds(T0, float(dt)))
        assert np.allclose(state.r, r[:, i], atol=1e-6)
        assert np.allclose(state.v, v[:, i], atol=1e-9)
