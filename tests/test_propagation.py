"""Two-ray model, Monte Carlo deployments, aggregation, compliance."""
import json
import math
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkspace import propagation
from darkspace.errors import (ConfigError, ElevationNonPositive, EmptyArea,
                              NoSamples)
from darkspace.linkbudget import SPEED_OF_LIGHT
from darkspace.orbit import GroundPoint, frames, state_from_geodetic
from darkspace.propagation import (DeploymentArrays, GeoBox,
                                   InterferenceSample, PathModel,
                                   TransmitterKind, TransmitterSpec,
                                   aggregate_interference, compliance,
                                   generate_deployment,
                                   read_deployment_jsonl, two_ray_gain_db,
                                   transmitter_from_dict,
                                   transmitter_to_dict,
                                   write_deployment_jsonl)
from darkspace.radiometer import ScanSample, _ray_ellipsoid, pixel_footprint

T0 = datetime(2023, 4, 23, 12, 0, tzinfo=timezone.utc)
F = 23.8e9


def _tx(i, lat, lon, eirp=-20.0, height=10.0):
    return TransmitterSpec(
        id=f"t{i}", location=GroundPoint(lat, lon, 0.0),
        antenna_height=height, eirp_density=eirp, center_frequency=24.0e9,
        emission_bandwidth=200.0e6)


@pytest.fixture
def pixel_and_sat(atms):
    sat = state_from_geodetic(T0, 40.0, -105.0, 832.1e3,
                              velocity_ecef=(1538.0, 2446.0, -6854.0))
    fp = pixel_footprint(sat, ScanSample(0, 48, T0, 0.0), atms)
    return fp, sat


# --- two-ray ----------------------------------------------------------------

def test_two_ray_zero_gamma_is_los():
    assert two_ray_gain_db(10.0, 30.0, F, 0.0) == 0.0


def test_two_ray_constructive():
    # Perfect reflector with half-wavelength path difference: fields add.
    lam = SPEED_OF_LIGHT / F
    el = 30.0
    h = lam / 2 / (2 * math.sin(math.radians(el)))
    gain = two_ray_gain_db(h, el, F, -1.0)
    assert gain == pytest.approx(20 * math.log10(2), abs=1e-9)


def test_two_ray_null_clamped():
    lam = SPEED_OF_LIGHT / F
    el = 30.0
    h = lam / (2 * math.sin(math.radians(el)))
    assert two_ray_gain_db(h, el, F, -1.0) == -60.0
    assert two_ray_gain_db(h, el, F, -1.0, floor_db=-80.0) == -80.0


def test_two_ray_validation():
    with pytest.raises(ElevationNonPositive):
        two_ray_gain_db(10.0, 0.0, F, -0.7)
    with pytest.raises(ConfigError):
        two_ray_gain_db(10.0, 30.0, F, -1.5)


# --- deployments --------------------------------------------------------------

def test_deployment_count_contract():
    box = GeoBox(40.0, 40.0899322, -105.1173, -105.0)
    # Roughly 100 km^2 at this latitude; use an explicit class for an exact
    # density of 1 per km^2.
    from darkspace.propagation import EmitterClass
    cls = (EmitterClass(TransmitterKind.GNB, 1.0, -20.0, 0.0, 10.0),)
    dep = generate_deployment("custom", box, seed=5, classes=cls)
    assert len(dep) == int(math.floor(box.area_km2 + 0.0)) or \
        len(dep) == int(math.floor(box.area_km2)) + 1
    # Exact contract: floor(density*area + u) with u from the seeded stream.
    rng = np.random.default_rng(5)
    assert len(dep) == int(math.floor(1.0 * box.area_km2 + rng.uniform()))


def test_deployment_determinism():
    box = GeoBox(39.5, 40.5, -106.0, -104.0)
    a = generate_deployment("rural", box, seed=77)
    b = generate_deployment("rural", box, seed=77)
    assert a == b
    c = generate_deployment("rural", box, seed=78)
    assert a != c


def test_deployment_inside_box():
    box = GeoBox(39.5, 40.5, -106.0, -104.0)
    dep = generate_deployment("suburban", box, seed=3)
    assert len(dep) > 0
    assert np.all((box.lat_min <= dep.lat) & (dep.lat <= box.lat_max))
    assert np.all((box.lon_min <= dep.lon) & (dep.lon <= box.lon_max))


def _reference_deployment(scenario, area, seed):
    """One TransmitterSpec per emitter from the same draws, in the same
    order, as generate_deployment documents them."""
    from darkspace.propagation import SCENARIOS
    rng = np.random.default_rng(seed)
    sin_lo = math.sin(math.radians(area.lat_min))
    sin_hi = math.sin(math.radians(area.lat_max))
    out = []
    for cls in SCENARIOS[scenario]:
        count = int(math.floor(cls.density_per_km2 * area.area_km2
                               + rng.uniform()))
        lats = np.degrees(np.arcsin(rng.uniform(sin_lo, sin_hi, count)))
        lons = rng.uniform(area.lon_min, area.lon_max, count)
        eirps = rng.normal(cls.eirp_mean_dbm_mhz, cls.eirp_std_db, count)
        out += [TransmitterSpec(
            id=f"{scenario}-{cls.kind.value}-{i:06d}",
            location=GroundPoint(float(lats[i]), float(lons[i]), 0.0),
            antenna_height=cls.antenna_height_m,
            eirp_density=float(eirps[i]), center_frequency=24.0e9,
            emission_bandwidth=200.0e6, kind=cls.kind)
            for i in range(count)]
    return out


def test_deployment_columns_match_transmitter_specs(tmp_path):
    # The box crosses the antimeridian, so GroundPoint's longitude
    # normalisation has to be applied to the columns as well.
    box = GeoBox(-10.0, -9.0, 179.5, 180.5)
    dep = generate_deployment("rural", box, seed=21)
    ref = _reference_deployment("rural", box, seed=21)
    assert np.any(dep.lon < 0) and np.any(dep.lon > 179.5)
    assert dep == DeploymentArrays(ref)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_deployment_jsonl(dep, a)
    write_deployment_jsonl(ref, b)
    assert a.read_bytes() == b.read_bytes()


def test_deployment_rejects_bad_emission_parameters():
    box = GeoBox(39.5, 40.5, -106.0, -104.0)
    with pytest.raises(ConfigError, match="emission_bandwidth"):
        generate_deployment("rural", box, seed=1, emission_bandwidth=0.0)
    from darkspace.propagation import EmitterClass
    cls = (EmitterClass(TransmitterKind.UE, 1.0, -20.0, 0.0, -1.0),)
    with pytest.raises(ConfigError, match="antenna_height"):
        generate_deployment("custom", box, seed=1, classes=cls)


def test_unknown_scenario():
    with pytest.raises(ConfigError):
        generate_deployment("megacity", GeoBox(0, 1, 0, 1), seed=1)


def test_degenerate_area():
    with pytest.raises(EmptyArea):
        GeoBox(40.0, 40.0, -105.0, -104.0)


def test_deployment_jsonl_round_trip(tmp_path):
    box = GeoBox(39.5, 40.5, -106.0, -104.0)
    dep = generate_deployment("rural", box, seed=9)
    path = tmp_path / "dep.jsonl"
    write_deployment_jsonl(dep, path)
    again = read_deployment_jsonl(path)
    assert again == dep


def test_deployment_jsonl_lines_match_json_dumps(tmp_path):
    # Quote, backslash and non-ASCII ids; floats whose repr is exponential,
    # a negative zero and non-finite values; a kind shared by two records.
    txs = [
        TransmitterSpec(id='q"uote\\back é ☃ 100%',
                        location=GroundPoint(-0.0, 1e-05, 1e16),
                        antenna_height=1e16, eirp_density=-0.0,
                        center_frequency=1e-05, emission_bandwidth=1e16,
                        pointing=(float("nan"), float("-inf")),
                        kind=TransmitterKind.UE),
        TransmitterSpec(id="plain", location=GroundPoint(12.5, -180.0, 0.0),
                        antenna_height=0.0, eirp_density=0.1 + 0.2,
                        center_frequency=24.0e9, emission_bandwidth=2.0e8,
                        kind=TransmitterKind.UE),
        _tx(2, 40.0, -105.0),
    ]
    for dep in (txs, txs[:1], txs[1:2] * 3):
        path = tmp_path / "dep.jsonl"
        write_deployment_jsonl(dep, path)
        expected = "".join(json.dumps(transmitter_to_dict(tx), sort_keys=True)
                           + "\n" for tx in dep)
        assert path.read_text(encoding="utf-8") == expected
        write_deployment_jsonl(DeploymentArrays(dep), path)
        assert path.read_text(encoding="utf-8") == expected


def test_deployment_jsonl_spans_chunks(tmp_path, monkeypatch):
    import darkspace.propagation as propagation
    monkeypatch.setattr(propagation, "_JSONL_CHUNK", 7)
    box = GeoBox(39.5, 39.7, -106.0, -105.7)
    dep = generate_deployment("rural", box, seed=4)
    path = tmp_path / "dep.jsonl"
    write_deployment_jsonl(dep, path)
    ref = _reference_deployment("rural", box, seed=4)
    assert len(ref) > 7
    assert path.read_text() == "".join(
        json.dumps(transmitter_to_dict(tx), sort_keys=True) + "\n"
        for tx in ref)
    assert read_deployment_jsonl(path) == dep


def test_read_deployment_jsonl_bad_record(tmp_path):
    path = tmp_path / "dep.jsonl"
    record = transmitter_to_dict(_tx(0, 40.0, -105.0))
    record["emission_bandwidth_hz"] = 0.0
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ConfigError, match="bad transmitter record"):
        read_deployment_jsonl(path)


def test_transmitter_dict_round_trip():
    tx = _tx(0, 40.0, -105.0)
    assert transmitter_from_dict(transmitter_to_dict(tx)) == tx


# --- aggregation ---------------------------------------------------------------

def test_empty_deployment(pixel_and_sat, atms):
    fp, sat = pixel_and_sat
    s = aggregate_interference(fp, sat.r, [], PathModel.LOS_ONLY, atms)
    assert s.aggregate == float("-inf")
    assert s.contributors == ()


def test_single_transmitter_exact(pixel_and_sat, atms):
    fp, sat = pixel_and_sat
    tx = _tx(0, fp.center.latitude, fp.center.longitude)
    s = aggregate_interference(fp, sat.r, [tx], PathModel.LOS_ONLY, atms)
    assert len(s.contributors) == 1
    assert s.aggregate == pytest.approx(s.contributors[0][1], abs=1e-12)
    # Re-derive: EIRP + FSPL + polarization + radiometer gain.
    from darkspace.linkbudget import fspl_db
    from darkspace.orbit import frames, topocentric
    look = topocentric(sat, GroundPoint(fp.center.latitude,
                                        fp.center.longitude, 10.0))
    expected = (-20.0 + float(fspl_db(look.slant_range, F)) - 3.0 + 30.0)
    assert s.aggregate == pytest.approx(expected, abs=1e-6)


def test_aggregate_is_power_sum(pixel_and_sat, atms):
    fp, sat = pixel_and_sat
    rng = np.random.default_rng(123)
    txs = [_tx(i, fp.center.latitude + float(rng.uniform(-0.2, 0.2)),
               fp.center.longitude + float(rng.uniform(-0.2, 0.2)),
               eirp=float(rng.uniform(-40, -10)))
           for i in range(30)]
    s = aggregate_interference(fp, sat.r, txs, PathModel.LOS_ONLY, atms)
    # Brute-force re-summation in reversed and shuffled orders.
    contributions = [c for _, c, _ in s.contributors]
    for order in (contributions[::-1],
                  list(np.array(contributions)[rng.permutation(
                      len(contributions))])):
        resum = 10.0 * math.log10(sum(10.0 ** (c / 10.0) for c in order))
        assert abs(resum - s.aggregate) < 1e-9


def test_aggregate_outside_pixel_ignored(pixel_and_sat, atms):
    fp, sat = pixel_and_sat
    far = _tx(0, fp.center.latitude + 8.0, fp.center.longitude)
    s = aggregate_interference(fp, sat.r, [far], PathModel.LOS_ONLY, atms)
    assert s.aggregate == float("-inf")


def test_adding_transmitter_monotone(pixel_and_sat, atms):
    fp, sat = pixel_and_sat
    one = [_tx(0, fp.center.latitude, fp.center.longitude)]
    two = one + [_tx(1, fp.center.latitude + 0.05, fp.center.longitude)]
    a = aggregate_interference(fp, sat.r, one, PathModel.LOS_ONLY, atms)
    b = aggregate_interference(fp, sat.r, two, PathModel.LOS_ONLY, atms)
    assert b.aggregate >= a.aggregate


def test_two_ray_gamma_zero_equals_los(pixel_and_sat, atms):
    fp, sat = pixel_and_sat
    rng = np.random.default_rng(5)
    txs = [_tx(i, fp.center.latitude + float(rng.uniform(-0.3, 0.3)),
               fp.center.longitude + float(rng.uniform(-0.3, 0.3)))
           for i in range(20)]
    los = aggregate_interference(fp, sat.r, txs, PathModel.LOS_ONLY, atms)
    tr0 = aggregate_interference(fp, sat.r, txs, PathModel.TWO_RAY, atms,
                                 reflection_coeff=0.0)
    assert tr0.aggregate == los.aggregate


def test_deployment_arrays_reused(pixel_and_sat, atms):
    fp, sat = pixel_and_sat
    txs = [_tx(i, fp.center.latitude, fp.center.longitude + 0.01 * i)
           for i in range(5)]
    arrays = DeploymentArrays(txs)
    a = aggregate_interference(fp, sat.r, arrays, PathModel.LOS_ONLY, atms)
    b = aggregate_interference(fp, sat.r, txs, PathModel.LOS_ONLY, atms)
    assert a.aggregate == b.aggregate


def _ground_point_at(center, u_major, u_minor, x, y, alt):
    """Geodetic (lat, lon) of the point at altitude alt whose offset from
    center, projected on the ellipse plane, is (x, y)."""
    target = center + x * u_major + y * u_minor
    p = target
    for _ in range(4):
        lat, lon, _ = frames.ecef_to_geodetic(p)
        d = frames.geodetic_to_ecef(lat, lon, alt) - target
        p = p - u_major * np.dot(d, u_major) - u_minor * np.dot(d, u_minor)
    lat, lon, _ = frames.ecef_to_geodetic(p)
    return float(lat), float(lon)


@settings(max_examples=40, deadline=None)
@given(lat=st.floats(0.0, 85.0), lon=st.floats(178.0, 182.0),
       heading=st.floats(0.0, 360.0), sample=st.integers(0, 95),
       seed=st.integers(0, 2 ** 32 - 1))
def test_screen_keeps_every_contributor(atms, lat, lon, heading, sample,
                                        seed):
    """The proven lat/lon box of _near_pixel drops no contributor: with
    emitters just inside and just outside each ellipse edge, at 0-5 km,
    around footprints at 0-85 degrees latitude and across +-180 degrees,
    the screened and unscreened sums agree bit for bit."""
    east, north, up = frames.enu_basis(lat, lon)
    h = math.radians(heading)
    sat = state_from_geodetic(
        T0, lat, lon, 832.1e3,
        velocity_ecef=tuple(7.4e3 * (math.sin(h) * east
                                     + math.cos(h) * north)))
    fp = pixel_footprint(sat, ScanSample(0, sample, T0,
                                         float(atms.boresight_of(sample))),
                         atms)
    center, u1, u2 = (np.array(v) for v in (fp.center_ecef, fp.u_major,
                                            fp.u_minor))
    rng = np.random.default_rng(seed)
    cols = {k: [] for k in ("lat", "lon", "alt")}
    for theta in np.concatenate((np.arange(8) * np.pi / 4,
                                 rng.uniform(0, 2 * np.pi, 8))):
        for scale in (0.999, 1.001):
            alt = float(rng.uniform(0.0, 5000.0))
            p_lat, p_lon = _ground_point_at(
                center, u1, u2, scale * fp.semi_major * math.cos(theta),
                scale * fp.semi_minor * math.sin(theta), alt)
            cols["lat"].append(p_lat)
            cols["lon"].append(p_lon)
            cols["alt"].append(alt)
    # The far side of the ellipse cylinder, which the satellite cannot see.
    normal = np.cross(u1, u2)
    far, _ = _ray_ellipsoid((center - 2.0e7 * normal).reshape(3, 1),
                            normal.reshape(3, 1), 0.0)
    far_lat, far_lon, _ = frames.ecef_to_geodetic(far[:, 0])
    cols["lat"].append(float(far_lat))
    cols["lon"].append(float(far_lon))
    cols["alt"].append(0.0)
    n = len(cols["lat"])
    arrays = DeploymentArrays.from_columns(
        ids=[f"t{i}" for i in range(n)], kinds=["gNB"] * n,
        lat=cols["lat"], lon=cols["lon"], alt=cols["alt"],
        antenna_height=rng.uniform(0.0, 30.0, n),
        eirp=rng.uniform(-40.0, -10.0, n), center_frequency=np.full(n, F),
        emission_bandwidth=np.full(n, 2.0e8), pointing_az=np.zeros(n),
        pointing_el=np.zeros(n))

    assert n - 1 not in propagation._near_pixel(arrays, fp, sat.r)

    def run():
        return aggregate_interference(fp, sat.r, arrays, PathModel.TWO_RAY,
                                      atms)
    screened = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(propagation, "_near_pixel",
                   lambda arrays, pixel, sat_r: np.arange(len(arrays)))
        unscreened = run()
    assert len(unscreened.contributors) >= 16
    assert screened.contributors == unscreened.contributors
    assert screened.aggregate == unscreened.aggregate


# --- compliance ------------------------------------------------------------------

def _fake_samples(values):
    return [InterferenceSample(pixel=None, aggregate=v, contributors=())
            for v in values]


def test_compliance_boundary_pass():
    samples = _fake_samples([-199.0] + [-210.0] * 9999)
    report = compliance(samples)
    assert report.fraction_compliant == pytest.approx(0.9999)
    assert report.passed


def test_compliance_two_violations_fail():
    samples = _fake_samples([-199.0, -150.0] + [-210.0] * 9998)
    report = compliance(samples)
    assert report.fraction_compliant == pytest.approx(0.9998)
    assert not report.passed


def test_compliance_strictly_less():
    samples = _fake_samples([-200.0] * 100)
    report = compliance(samples)
    assert report.fraction_compliant == 0.0
    assert not report.passed


def test_compliance_requires_samples():
    with pytest.raises(NoSamples):
        compliance([])
