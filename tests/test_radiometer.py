"""Scan phase, footprints, and subtension."""
import dataclasses
import math
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import numpy as np
import pytest

from darkspace.errors import ConfigError, NoIntersection, NotPhaseLocked
from darkspace.orbit import GroundPoint, frames, propagate, state_from_geodetic, topocentric
from darkspace.radiometer import (BufferPolicy, PolicyKind, RadiometerSpec,
                                  ScanLattice, ScanSample, load_preset,
                                  pixel_footprint, scan_phase, spec_from_dict,
                                  subtends)

T0 = datetime(2023, 4, 23, 12, 0, tzinfo=timezone.utc)


@pytest.fixture
def nadir_state():
    # Horizontal, roughly polar velocity so scan geometry is realistic.
    return state_from_geodetic(T0, 40.774, -120.988, 832.1e3,
                               velocity_ecef=(1538.0, 2446.0, -6854.0))


def test_scan_phase_origin(atms):
    s = scan_phase(atms, T0, T0)
    assert (s.scan_line_index, s.sample_index) == (0, 0)
    assert s.boresight_angle == pytest.approx(-atms.scan_half_angle)


def test_scan_phase_periodicity(atms):
    t = T0 + timedelta(seconds=atms.scan_period)
    s = scan_phase(atms, t, T0)
    assert (s.scan_line_index, s.sample_index) == (1, 0)
    assert s.boresight_angle == pytest.approx(-atms.scan_half_angle)


def test_scan_phase_midway(atms):
    t = T0 + timedelta(seconds=atms.scan_period / 2)
    s = scan_phase(atms, t, T0)
    assert s.sample_index == 48
    spacing = 2 * atms.scan_half_angle / (atms.samples_per_scan - 1)
    assert abs(s.boresight_angle) <= spacing


def test_scan_phase_line_offsets(atms):
    base = scan_phase(atms, T0 + timedelta(seconds=1.0), T0)
    for k in (1, 7, 1000, -3):
        t = T0 + timedelta(seconds=1.0 + k * atms.scan_period)
        s = scan_phase(atms, t, T0)
        assert s.scan_line_index == base.scan_line_index + k
        assert s.sample_index == base.sample_index
        assert s.boresight_angle == base.boresight_angle


@pytest.mark.parametrize("preset", ["atms", "amsua"])
def test_scan_phase_matches_lattice(preset):
    """scan_phase, ScanLattice.index and exact rational arithmetic name the
    same dwell at random instants and within a microsecond of dwell
    boundaries.  Exactly, dwell k spans [k d, (k + 1) d) with d the exact
    value of scan_period / samples_per_scan, and a whole-microsecond
    instant t belongs to the dwell holding t + 0.5 us."""
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
    for u, t, line, sample in zip(us, instants, lines, idx):
        s = scan_phase(spec, t, T0)
        assert (s.scan_line_index, s.sample_index) == (line, sample)
        k = math.floor((u + Fraction(1, 2)) / d_us)
        assert (s.scan_line_index, s.sample_index) == divmod(k, n)
        start_us = (s.t - T0) // timedelta(microseconds=1)
        assert abs(start_us - k * d_us) <= Fraction(51, 100)


def test_scan_phase_requires_lock(amsua):
    with pytest.raises(NotPhaseLocked):
        scan_phase(amsua, T0, T0)


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


def test_boresight_miss_raises(nadir_state):
    wide = RadiometerSpec(
        name="broken", itu_sensor_id="X", center_frequency=23.8e9,
        bandwidth=0.2e9, antenna_max_gain=30.0, beamwidth_3db=5.2,
        scan_period=8 / 3, scan_half_angle=75.0, samples_per_scan=96,
        n_temp=500.0, phase_locked=True)
    with pytest.raises(NoIntersection):
        pixel_footprint(nadir_state, ScanSample(0, 0, T0, -75.0), wide)


def test_subtends_center_all_policies(atms, nadir_state):
    fp = pixel_footprint(nadir_state, ScanSample(0, 48, T0, 0.0), atms)
    for policy in (BufferPolicy(PolicyKind.PIXEL_LEVEL, 1.0),
                   BufferPolicy(PolicyKind.PIXEL_LEVEL, 2.0),
                   BufferPolicy(PolicyKind.SCAN_LINE, 1.0)):
        assert subtends(fp, fp.center, policy)


def _point_along_major(fp, factor):
    geom = fp._geom
    p = (np.array(geom.center_ecef)
         + np.array(geom.u_major) * factor * fp.semi_major)
    lat, lon, _ = frames.ecef_to_geodetic(p)
    return GroundPoint(float(lat), float(lon), 0.0)


def test_subtends_buffer_semantics(atms, nadir_state):
    fp = pixel_footprint(nadir_state, ScanSample(0, 48, T0, 0.0), atms)
    near = _point_along_major(fp, 1.5)
    far = _point_along_major(fp, 10.0)
    assert subtends(fp, near, BufferPolicy(PolicyKind.PIXEL_LEVEL, 2.0))
    assert not subtends(fp, near, BufferPolicy(PolicyKind.PIXEL_LEVEL, 1.0))
    assert not subtends(fp, far, BufferPolicy(PolicyKind.PIXEL_LEVEL, 2.0))


def test_pixel_subtension_implies_scanline(atms, leo_tle):
    state = propagate(leo_tle, T0 + timedelta(minutes=40))
    rng = np.random.default_rng(11)
    for _ in range(25):
        idx = int(rng.integers(0, atms.samples_per_scan))
        fp = pixel_footprint(
            state, ScanSample(0, idx, T0, float(atms.boresight_of(idx))),
            atms)
        factor = rng.uniform(-2.5, 2.5)
        tx = _point_along_major(fp, factor)
        pol_px = BufferPolicy(PolicyKind.PIXEL_LEVEL, 2.0)
        pol_sl = BufferPolicy(PolicyKind.SCAN_LINE, 2.0)
        if subtends(fp, tx, pol_px):
            assert subtends(fp, tx, pol_sl)


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
