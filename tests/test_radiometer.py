"""Scan phase, footprints, and subtension."""
import dataclasses
import math
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from darkspace.errors import ConfigError, NoIntersection
from darkspace.orbit import (GroundPoint, frames, state_from_geodetic,
                             topocentric)
from darkspace.radiometer import (BufferPolicy, PolicyKind, RadiometerSpec,
                                  ScanLattice, ScanSample, _ellipse_margins,
                                  _footprint_arrays, footprints_batch,
                                  load_preset, pixel_footprint,
                                  spec_from_dict, subtends)

from helpers import active_sample

T0 = datetime(2023, 4, 23, 12, 0, tzinfo=timezone.utc)


@pytest.fixture
def nadir_state():
    # Horizontal, roughly polar velocity so scan geometry is realistic.
    return state_from_geodetic(T0, 40.774, -120.988, 832.1e3,
                               velocity_ecef=(1538.0, 2446.0, -6854.0))


def test_scan_phase_origin(atms):
    s = active_sample(atms, T0, T0)
    assert (s.scan_line_index, s.sample_index) == (0, 0)
    assert s.boresight_angle == pytest.approx(-atms.scan_half_angle)


def test_scan_phase_periodicity(atms):
    t = T0 + timedelta(seconds=atms.scan_period)
    s = active_sample(atms, t, T0)
    assert (s.scan_line_index, s.sample_index) == (1, 0)
    assert s.boresight_angle == pytest.approx(-atms.scan_half_angle)


def test_scan_phase_midway(atms):
    t = T0 + timedelta(seconds=atms.scan_period / 2)
    s = active_sample(atms, t, T0)
    assert s.sample_index == 48
    spacing = 2 * atms.scan_half_angle / (atms.samples_per_scan - 1)
    assert abs(s.boresight_angle) <= spacing


def test_scan_phase_line_offsets(atms):
    base = active_sample(atms, T0 + timedelta(seconds=1.0), T0)
    for k in (1, 7, 1000, -3):
        t = T0 + timedelta(seconds=1.0 + k * atms.scan_period)
        s = active_sample(atms, t, T0)
        assert s.scan_line_index == base.scan_line_index + k
        assert s.sample_index == base.sample_index
        assert s.boresight_angle == base.boresight_angle


@pytest.mark.parametrize("preset", ["atms", "amsua"])
def test_scan_phase_matches_lattice(preset):
    """ScanLattice.index and exact rational arithmetic name the same
    dwell at random instants and within a microsecond of dwell
    boundaries, and ScanLattice.scan_sample starts it at its exact start.
    Exactly, dwell k spans [k d, (k + 1) d) with d the exact value of
    scan_period / samples_per_scan, and a whole-microsecond instant t
    belongs to the dwell holding t + 0.5 us."""
    spec = dataclasses.replace(load_preset(preset), phase_locked=True)
    n = spec.samples_per_scan
    d_us = Fraction(spec.scan_period) * 10 ** 6 / n
    rng = np.random.default_rng(20230423)
    us = [int(u) for u in rng.integers(-2 * 10 ** 12, 2 * 10 ** 12, 300)]
    for k in rng.integers(-10 ** 7, 10 ** 7, 300):
        edge = math.floor(int(k) * d_us)
        us += [edge - 1, edge, edge + 1]
    instants = [T0 + timedelta(microseconds=u) for u in us]
    lattice = ScanLattice(spec, T0)
    lines, idx = lattice.index([lattice.offset(t) for t in instants])
    for u, line, sample in zip(us, lines.tolist(), idx.tolist()):
        k = math.floor((u + Fraction(1, 2)) / d_us)
        assert (line, sample) == divmod(k, n)
        s = lattice.scan_sample(line, sample)
        start_us = (s.t - T0) // timedelta(microseconds=1)
        assert abs(start_us - k * d_us) <= Fraction(51, 100)


@pytest.mark.parametrize("preset", ["atms", "amsua"])
def test_scan_lattice_lines(preset):
    """ScanLattice.lines(a, b) names the lines whose spans meet [a, b]:
    the floor of a through the floor of b, in scan periods, the cover the
    geofence and itu-sim's pixel search use."""
    lattice = ScanLattice(load_preset(preset), T0)
    tau = lattice.tau
    cases = [
        ((tau(5), tau(5) + 3.5 * lattice.spec.scan_period), range(5, 9)),
        ((tau(7) + 0.3, tau(7) + 0.3), [7]),
        ((tau(7.1), tau(7.9)), [7]),
        ((tau(2.5), tau(4)), [2, 3, 4]),
        ((tau(-3.5), tau(-0.8)), [-4, -3, -2, -1]),
        ((tau(-0.5), tau(0.5)), [-1, 0]),
    ]
    for (a, b), expected in cases:
        lines = lattice.lines(a, b)
        assert lines.dtype == np.int64
        assert lines.tolist() == list(expected)
        # The spans [tau(l), tau(l + 1)) of exactly these lines meet [a, b].
        assert np.all((tau(lines) <= b) & (tau(lines + 1) > a))
        assert tau(lines[0]) <= a and tau(lines[-1] + 1) > b
        # That is floor(a / T) through floor(b / T), T the scan period.
        floor = np.floor(np.array([a, b]) / lattice.spec.scan_period)
        assert lines.tolist() == list(range(int(floor[0]),
                                            int(floor[1]) + 1))


def test_nadir_footprint_centers_on_subsatellite_point(atms, nadir_state):
    fp = pixel_footprint(nadir_state, ScanSample(0, 48, T0, 0.0), atms)
    sub = GroundPoint(nadir_state.geodetic[0], nadir_state.geodetic[1], 0.0)
    dist = np.linalg.norm(fp.center.ecef() - sub.ecef())
    assert dist < 100.0
    look = topocentric(nadir_state, fp.center)
    assert look.elevation == pytest.approx(90.0, abs=0.01)


def test_nadir_footprint_diameter(atms, nadir_state):
    fp = pixel_footprint(nadir_state, ScanSample(0, 48, T0, 0.0), atms)
    expected = 2 * 832.1e3 * np.tan(np.radians(atms.beamwidth_3db / 2))
    assert 2 * fp.semi_major == pytest.approx(expected, abs=1.0e3)
    assert 2 * fp.semi_minor == pytest.approx(expected, abs=1.0e3)


def test_swath_edge_elongation(atms, nadir_state):
    edge = pixel_footprint(
        nadir_state, ScanSample(0, 0, T0, -atms.scan_half_angle), atms)
    assert edge.semi_major / edge.semi_minor > 1.0


def test_consecutive_pixels_overlap(atms, nadir_state):
    """Oversampled scan: adjacent samples' footprints intersect."""
    a = pixel_footprint(nadir_state,
                        ScanSample(0, 48, T0, float(atms.boresight_of(48))),
                        atms)
    b = pixel_footprint(nadir_state,
                        ScanSample(0, 49, T0, float(atms.boresight_of(49))),
                        atms)
    from darkspace.experiment import ellipse_overlap_fraction
    assert ellipse_overlap_fraction(a, b) > 0.0


def test_footprints_batch_keeps_kernel_frame(atms, nadir_state):
    """footprints_batch keeps the kernel's centres, axes and unit vectors
    bit for bit, adds the centres' geodetic latitude and longitude, and
    the axes lie in the tangent plane of the altitude-shifted ellipsoid at
    the centre."""
    altitude = 1043.0
    boresight = atms.boresight_of(np.arange(atms.samples_per_scan))
    r = np.repeat(nadir_state.r[:, None], boresight.size, axis=1)
    v = np.repeat(nadir_state.v_inertial[:, None], boresight.size, axis=1)
    kernel = _footprint_arrays(r, v, boresight, atms, altitude)
    footprints = footprints_batch(r, v, boresight, atms, altitude)
    lat, lon, alt = frames.ecef_to_geodetic(kernel["center"])
    assert len(footprints) == boresight.size
    for i, fp in enumerate(footprints):
        assert fp.center == GroundPoint(lat[i], lon[i], altitude)
        assert fp.semi_major == kernel["semi_major"][i]
        assert fp.semi_minor == kernel["semi_minor"][i]
        for key, field in (("center", fp.center_ecef),
                           ("u_major", fp.u_major), ("u_minor", fp.u_minor)):
            assert field == tuple(kernel[key][:, i]), key
    assert np.allclose(alt, altitude, atol=0.5)

    a, b = frames.WGS84_A + altitude, frames.WGS84_B + altitude
    normal = kernel["center"] / np.array([[a * a], [a * a], [b * b]])
    normal /= np.linalg.norm(normal, axis=0)
    for axis in ("u_major", "u_minor"):
        assert np.max(np.abs(np.sum(kernel[axis] * normal, axis=0))) < 1e-12
    assert np.allclose(np.sum(kernel["u_major"] * kernel["u_minor"], axis=0),
                       0.0, atol=1e-12)


def test_boresight_miss_raises(nadir_state):
    wide = RadiometerSpec(
        name="broken", itu_sensor_id="X", center_frequency=23.8e9,
        bandwidth=0.2e9, antenna_max_gain=30.0, beamwidth_3db=5.2,
        scan_period=8 / 3, scan_half_angle=75.0, samples_per_scan=96,
        n_temp=500.0, phase_locked=True)
    with pytest.raises(NoIntersection):
        pixel_footprint(nadir_state, ScanSample(0, 0, T0, -75.0), wide)


def test_subtends_center_all_policies(atms, nadir_state):
    """Every pixel-level buffer contains the centre; a scan-line policy is
    the engine's question (geofence.dark_intervals), not a footprint's."""
    fp = pixel_footprint(nadir_state, ScanSample(0, 48, T0, 0.0), atms)
    for policy in (BufferPolicy(PolicyKind.PIXEL_LEVEL, 1.0),
                   BufferPolicy(PolicyKind.PIXEL_LEVEL, 2.0)):
        assert subtends(fp, fp.center, policy)
    with pytest.raises(ValueError, match="dark_intervals"):
        subtends(fp, fp.center, BufferPolicy(PolicyKind.SCAN_LINE, 1.0))


def _point_along_major(fp, factor):
    p = (np.array(fp.center_ecef)
         + np.array(fp.u_major) * factor * fp.semi_major)
    lat, lon, _ = frames.ecef_to_geodetic(p)
    return GroundPoint(float(lat), float(lon), 0.0)


def test_subtends_buffer_semantics(atms, nadir_state):
    fp = pixel_footprint(nadir_state, ScanSample(0, 48, T0, 0.0), atms)
    near = _point_along_major(fp, 1.5)
    far = _point_along_major(fp, 10.0)
    assert subtends(fp, near, BufferPolicy(PolicyKind.PIXEL_LEVEL, 2.0))
    assert not subtends(fp, near, BufferPolicy(PolicyKind.PIXEL_LEVEL, 1.0))
    assert not subtends(fp, far, BufferPolicy(PolicyKind.PIXEL_LEVEL, 2.0))


def test_preset_rejects_unknown_fields(atms):
    data = dict(
        name="x", itu_sensor_id="x", center_frequency=1.0, bandwidth=1.0,
        antenna_max_gain=1.0, beamwidth_3db=5.0, scan_period=1.0,
        scan_half_angle=50.0, samples_per_scan=10, n_temp=500.0,
        phase_locked=True, surprise=1)
    with pytest.raises(ConfigError):
        spec_from_dict(data)


def test_preset_rejects_missing_fields():
    with pytest.raises(ConfigError):
        spec_from_dict({"name": "x"})


def test_bundled_presets_load():
    atms = load_preset("atms")
    assert atms.phase_locked and atms.itu_sensor_id == "F5"
    assert atms.center_frequency == pytest.approx(23.8e9)
    assert atms.bandwidth == pytest.approx(0.2e9)
    assert atms.antenna_max_gain == pytest.approx(30.0)
    amsua = load_preset("amsua")
    assert not amsua.phase_locked


def test_preset_unknown_name():
    with pytest.raises(ConfigError):
        load_preset("does-not-exist")


def _summed_margins(arrays, tx_ecef, buffer_multiplier):
    """The containment margin in its np.sum(delta * u, axis=0) form."""
    delta = np.asarray(tx_ecef, dtype=float).reshape(3, -1) - arrays["center"]
    x = np.sum(delta * arrays["u_major"], axis=0)
    y = np.sum(delta * arrays["u_minor"], axis=0)
    a = arrays["semi_major"] * buffer_multiplier
    b = arrays["semi_minor"] * buffer_multiplier
    margin = (x / a) ** 2 + (y / b) ** 2 - 1.0
    return np.where(arrays["miss"], np.inf, margin)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


_COORD = st.floats(-1.0e7, 1.0e7)


def _vectors(n, elements=_COORD):
    return hnp.arrays(float, (3, n), elements=elements)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 8),
       buffer_multiplier=st.floats(1.0, 4.0))
def test_margins_of_one_point_in_many_footprints_match_summed_form(
        data, n, buffer_multiplier):
    """n footprints, some of them misses, against one point: the same
    bits as the np.sum form."""
    semi = hnp.arrays(float, n, elements=st.floats(1.0, 1.0e6))
    arrays = {"center": data.draw(_vectors(n)),
              "u_major": data.draw(_vectors(n, st.floats(-1.0, 1.0))),
              "u_minor": data.draw(_vectors(n, st.floats(-1.0, 1.0))),
              "semi_major": data.draw(semi), "semi_minor": data.draw(semi),
              "miss": data.draw(hnp.arrays(bool, n))}
    point = data.draw(hnp.arrays(float, 3, elements=_COORD))
    assert _same_bits(_ellipse_margins(arrays, point, buffer_multiplier),
                      _summed_margins(arrays, point, buffer_multiplier))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), m=st.integers(1, 8),
       buffer_multiplier=st.floats(1.0, 4.0),
       miss=st.sampled_from([False, np.array([False]), np.array([True])]))
def test_margins_of_many_points_in_one_footprint_match_summed_form(
        data, m, buffer_multiplier, miss):
    """One footprint, as radiometer._frame builds it or as a missed
    kernel column, against m points given as a (3, m) array or as three
    rows read once (the itu-sim sweep's form): the same bits as the
    np.sum form."""
    arrays = {"center": data.draw(_vectors(1)),
              "u_major": data.draw(_vectors(1, st.floats(-1.0, 1.0))),
              "u_minor": data.draw(_vectors(1, st.floats(-1.0, 1.0))),
              "semi_major": data.draw(st.floats(1.0, 1.0e6)),
              "semi_minor": data.draw(st.floats(1.0, 1.0e6)),
              "miss": miss}
    points = data.draw(_vectors(m))
    expected = _summed_margins(arrays, points, buffer_multiplier)
    assert _same_bits(_ellipse_margins(arrays, points, buffer_multiplier),
                      expected)
    assert _same_bits(_ellipse_margins(arrays, (row for row in points),
                                       buffer_multiplier), expected)
