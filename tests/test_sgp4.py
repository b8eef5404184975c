"""Propagator fidelity against the published SGP4 verification vectors."""
import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from darkspace.errors import DeepSpaceUnsupported, PropagationError
from darkspace.orbit import parse_tle, sgp4
from darkspace.orbit.sgp4 import SGP4Model, TWOPI, gstime
from darkspace.timeutil import MINUTES_PER_DAY, julian_date


def _model(elements):
    return SGP4Model(
        epoch_days_1950=julian_date(elements.epoch) - 2433281.5,
        bstar=elements.bstar,
        ecco=elements.eccentricity,
        argpo=np.radians(elements.arg_perigee),
        inclo=np.radians(elements.inclination),
        mo=np.radians(elements.mean_anomaly),
        no_kozai=elements.mean_motion * TWOPI / MINUTES_PER_DAY,
        nodeo=np.radians(elements.raan),
    )


def _load_vectors(fixtures_dir):
    rows = []
    with open(fixtures_dir / "sgp4_00005_vectors.csv") as fh:
        for row in csv.DictReader(fh):
            rows.append({k: float(v) for k, v in row.items()})
    return rows


def test_verification_vectors(verification_tle, fixtures_dir):
    model = _model(verification_tle)
    for row in _load_vectors(fixtures_dir):
        r, v = model.position_velocity(row["t_offset_min"])
        expected_r = np.array([row["x_km"], row["y_km"], row["z_km"]])
        expected_v = np.array([row["vx_kms"], row["vy_kms"], row["vz_kms"]])
        err_km = np.linalg.norm(r - expected_r)
        # 1 m at epoch, 1 km out to a day (the published values carry
        # 8 decimals; the implementation reproduces them far tighter).
        limit_km = 0.001 if row["t_offset_min"] == 0.0 else 1.0
        assert err_km < limit_km, f"t={row['t_offset_min']}: {err_km} km"
        assert np.linalg.norm(v - expected_v) < 1.0e-3


def test_epoch_vector_sub_meter(verification_tle, fixtures_dir):
    model = _model(verification_tle)
    row = _load_vectors(fixtures_dir)[0]
    r, _ = model.position_velocity(0.0)
    err_m = np.linalg.norm(r - [row["x_km"], row["y_km"], row["z_km"]]) * 1e3
    assert err_m < 1.0


def test_vectorized_matches_scalar(verification_tle):
    model = _model(verification_tle)
    times = np.array([0.0, 10.0, 100.0, 720.0])
    r_batch, v_batch = model.position_velocity(times)
    for i, t in enumerate(times):
        r, v = model.position_velocity(float(t))
        assert np.array_equal(r, r_batch[:, i])
        assert np.array_equal(v, v_batch[:, i])


def test_deterministic(verification_tle):
    model = _model(verification_tle)
    r1, v1 = model.position_velocity(123.456)
    r2, v2 = model.position_velocity(123.456)
    assert np.array_equal(r1, r2) and np.array_equal(v1, v2)


def test_leo_radius_near_mean_motion_altitude(leo_tle):
    model = _model(leo_tle)
    radii = np.linalg.norm(
        model.position_velocity(np.linspace(0, 101, 64))[0], axis=0)
    target = 6371.0 + 832.1
    assert np.all(np.abs(radii - target) < 25.0)


def test_deep_space_rejected():
    # Geosynchronous-period element set: period ~1436 min >= 225 min.
    line1 = "1 99999U 24001A   24001.00000000  .00000000  00000-0  00000-0 0"
    line1 = line1.ljust(68, " ")
    line2 = "2 99999   0.0500  75.0000 0002000 180.0000 180.0000  1.00270000"
    line2 = line2.ljust(68, " ")
    from darkspace.orbit.tle import format_tle
    els = parse_tle(format_tle(None, line1, line2))
    with pytest.raises(DeepSpaceUnsupported):
        _model(els)


def test_bad_elements_rejected():
    with pytest.raises(PropagationError):
        SGP4Model(epoch_days_1950=18000.0, bstar=0.0, ecco=1.2, argpo=0.0,
                  inclo=0.5, mo=0.0, no_kozai=0.06, nodeo=0.0)


def test_gstime_range():
    jd = julian_date(__import__("datetime").datetime(
        2023, 4, 23, 12, tzinfo=__import__("datetime").timezone.utc))
    g = gstime(jd)
    assert 0.0 <= g < TWOPI
    assert gstime(np.array([jd, jd + 0.5])).shape == (2,)


def _kepler_ten_steps(u, axnl, aynl):
    """The reference implementation's Kepler solve: always ten Newton
    steps, each with the 0.95 rad correction clamp."""
    eo1 = np.array(u, dtype=float, copy=True)
    sineo1, coseo1 = np.sin(eo1), np.cos(eo1)
    for _ in range(10):
        sineo1 = np.sin(eo1)
        coseo1 = np.cos(eo1)
        tem5 = 1.0 - coseo1 * axnl - sineo1 * aynl
        tem5 = (u - aynl * coseo1 + axnl * sineo1 - eo1) / tem5
        tem5 = np.clip(tem5, -0.95, 0.95)
        eo1 = eo1 + tem5
    return sineo1, coseo1


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 64), seed=st.integers(0, 2 ** 32 - 1),
       ecc=st.floats(0.0, 0.9))
def test_kepler_has_the_bits_of_ten_steps(n, seed, ecc):
    """Stopping each element once a step leaves E unchanged gives the bits
    of all ten steps, for eccentricities far past near-Earth ones."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, TWOPI, n)
    u[rng.random(n) < 0.1] = 0.0
    e = ecc * rng.random(n)
    angle = rng.uniform(0.0, TWOPI, n)
    axnl, aynl = e * np.cos(angle), e * np.sin(angle)
    assert _bits(*sgp4._kepler(u, axnl, aynl)) == _bits(
        *_kepler_ten_steps(u, axnl, aynl))
    assert _bits(*sgp4._kepler(u[0], axnl[0], aynl[0])) == _bits(
        *_kepler_ten_steps(u[0], axnl[0], aynl[0]))


@settings(max_examples=30, deadline=None)
@given(times=hnp.arrays(float, st.integers(1, 300),
                        elements=st.floats(-5 * 1440.0, 25 * 1440.0)))
def test_propagation_has_the_bits_of_ten_kepler_steps(leo_tle, times):
    """Positions and velocities from -5 to 25 days, batched and one time
    at a time, are those of the ten-step Kepler solve."""
    model = _model(leo_tle)
    r, v = model.position_velocity(times)
    r0, v0 = model.position_velocity(times[0])
    real = sgp4._kepler
    try:
        sgp4._kepler = _kepler_ten_steps
        assert _bits(r, v) == _bits(*model.position_velocity(times))
        assert _bits(r0, v0) == _bits(*model.position_velocity(times[0]))
    finally:
        sgp4._kepler = real
