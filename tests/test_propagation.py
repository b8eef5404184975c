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
                                   TransmitterKind, aggregate_interference,
                                   compliance, generate_deployment,
                                   read_deployment_jsonl, two_ray_gain_db,
                                   write_deployment_jsonl)
from darkspace.radiometer import ScanSample, _ray_ellipsoid, pixel_footprint

T0 = datetime(2023, 4, 23, 12, 0, tzinfo=timezone.utc)
F = 23.8e9


def _tx(i, lat, lon, eirp=-20.0, height=10.0):
    """A deployment record with every key."""
    return {"id": f"t{i}", "lat": lat, "lon": lon, "alt_m": 0.0,
            "antenna_height_m": height, "eirp_density_dbm_mhz": eirp,
            "center_frequency_hz": 24.0e9, "emission_bandwidth_hz": 200.0e6,
            "pointing_az_deg": 0.0, "pointing_el_deg": 0.0, "kind": "gNB"}


def _jsonl(records):
    """deployment.jsonl text of records, one json.dumps line each."""
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


_dep = DeploymentArrays.from_records


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
    """One record per emitter from the same draws, in the same order, as
    generate_deployment documents them, each longitude wrapped by
    GroundPoint's scalar rule."""
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
        out += [dict(
            _tx(0, float(lats[i]),
                GroundPoint(float(lats[i]), float(lons[i])).longitude,
                eirp=float(eirps[i]), height=cls.antenna_height_m),
            id=f"{scenario}-{cls.kind.value}-{i:06d}", kind=cls.kind.value)
            for i in range(count)]
    return out


def test_deployment_columns_match_transmitter_specs(tmp_path):
    """The columnar generator agrees with per-emitter reference records.
    The box crosses the antimeridian, so GroundPoint's longitude
    normalisation has to be applied to the columns as well."""
    box = GeoBox(-10.0, -9.0, 179.5, 180.5)
    dep = generate_deployment("rural", box, seed=21)
    ref = _reference_deployment("rural", box, seed=21)
    assert np.any(dep.lon < 0) and np.any(dep.lon > 179.5)
    assert dep == _dep(ref)
    path = tmp_path / "dep.jsonl"
    write_deployment_jsonl(dep, path)
    assert path.read_text() == _jsonl(ref)


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
    for box in (GeoBox(39.5, 40.5, -106.0, -104.0),
                GeoBox(30.0, 31.0, 120.0, 122.0)):
        dep = generate_deployment("rural", box, seed=9)
        path = tmp_path / "dep.jsonl"
        write_deployment_jsonl(dep, path)
        again = read_deployment_jsonl(path)
        assert again == dep


def test_in_range_longitude_keeps_its_bits(tmp_path):
    """A longitude already in (-180, 180] is not rounded by the wrap, on a
    GroundPoint or through a deployment's records and file."""
    lon = 154.63026961265697
    assert GroundPoint(30.0, lon).longitude == lon
    dep = _dep([_tx(0, 30.0, lon)])
    assert dep.lon[0] == lon
    path = tmp_path / "dep.jsonl"
    write_deployment_jsonl(dep, path)
    assert path.read_text() == _jsonl([_tx(0, 30.0, lon)])
    assert read_deployment_jsonl(path).lon[0] == lon


def test_deployment_jsonl_lines_match_json_dumps(tmp_path):
    # Quote, backslash and non-ASCII ids; floats whose repr is exponential,
    # a negative zero and non-finite values; a kind shared by two records.
    # Longitudes are already in (-180, 180], so the records are the lines.
    records = [
        dict(_tx(0, -0.0, 0.25, eirp=-0.0, height=1e16),
             id='q"uote\\back é ☃ 100%', alt_m=1e16,
             center_frequency_hz=1e-05, emission_bandwidth_hz=1e16,
             pointing_az_deg=float("nan"), pointing_el_deg=float("-inf"),
             kind="UE"),
        dict(_tx(1, 12.5, 180.0, eirp=0.1 + 0.2, height=0.0),
             id="plain", emission_bandwidth_hz=2.0e8, kind="UE"),
        _tx(2, 40.0, -105.0),
    ]
    for dep in (records, records[:1], records[1:2] * 3):
        path = tmp_path / "dep.jsonl"
        write_deployment_jsonl(_dep(dep), path)
        assert path.read_text(encoding="utf-8") == _jsonl(dep)


def test_deployment_jsonl_spans_chunks(tmp_path, monkeypatch):
    import darkspace.propagation as propagation
    monkeypatch.setattr(propagation, "_JSONL_CHUNK", 7)
    box = GeoBox(39.5, 39.7, -106.0, -105.7)
    dep = generate_deployment("rural", box, seed=4)
    path = tmp_path / "dep.jsonl"
    write_deployment_jsonl(dep, path)
    ref = _reference_deployment("rural", box, seed=4)
    assert len(ref) > 7
    assert path.read_text() == _jsonl(ref)
    assert read_deployment_jsonl(path) == dep


_GOOD_LINE = json.dumps(_tx(0, 40.0, -105.0))


@pytest.mark.parametrize("line", [
    json.dumps(dict(_tx(0, 40.0, -105.0), emission_bandwidth_hz=0.0)),
    json.dumps({k: v for k, v in _tx(0, 40.0, -105.0).items() if k != "lat"}),
    json.dumps(dict(_tx(0, 40.0, -105.0), lat=float("nan"))),
    json.dumps(dict(_tx(0, 40.0, -105.0), antenna_height_m=-1.0)),
    json.dumps(dict(_tx(0, 40.0, -105.0), kind="Jammer")),
    json.dumps(dict(_tx(0, 40.0, -105.0), lat=None)),
    "[1, 2, 3]",
    _GOOD_LINE[:30],
], ids=["zero-bandwidth", "missing-key", "nan-latitude",
        "negative-antenna-height", "unknown-kind", "null-field",
        "not-an-object", "truncated"])
def test_read_deployment_jsonl_bad_record(tmp_path, line):
    path = tmp_path / "dep.jsonl"
    path.write_text(f"{_GOOD_LINE}\n{line}\n")
    with pytest.raises(ConfigError, match="bad transmitter record"):
        read_deployment_jsonl(path)


def test_from_records_names_the_bad_record(tmp_path):
    """Records count from 1, and a file's blank lines are not records."""
    records = [_tx(0, 40.0, -105.0), _tx(1, 40.0, -105.0, height=-1.0)]
    with pytest.raises(ConfigError, match="record 2: antenna_height_m"):
        _dep(records)
    with pytest.raises(ConfigError, match="record 3: not a JSON object"):
        _dep(iter([_tx(0, 1.0, 2.0), _tx(1, 1.0, 2.0), "text"]))
    path = tmp_path / "dep.jsonl"
    path.write_text("\n" + _jsonl(records[:1]) + "  \n" + _jsonl(records[1:]))
    with pytest.raises(ConfigError, match="record 2: antenna_height_m"):
        read_deployment_jsonl(path)


def test_from_records_defaults_and_conversions():
    """Optional keys take their defaults, an id goes through str() and a
    number through float(), and longitudes are wrapped on read."""
    record = {"id": 7, "lat": "12.5", "lon": 190, "eirp_density_dbm_mhz": -20,
              "center_frequency_hz": 2.4e10, "emission_bandwidth_hz": 2e8}
    dep = _dep([record])
    assert dep == _dep([dict(_tx(0, 12.5, -170.0, height=0.0), id="7",
                             eirp_density_dbm_mhz=-20.0,
                             center_frequency_hz=2.4e10)])
    assert dep.ids == ["7"] and dep.kinds == ["gNB"]
    assert dep.lon.tolist() == [-170.0] and dep.lon.dtype == float
    assert len(_dep([])) == 0


# --- aggregation ---------------------------------------------------------------

def test_empty_deployment(pixel_and_sat, atms):
    fp, sat = pixel_and_sat
    s = aggregate_interference(fp, sat.r, _dep([]), PathModel.LOS_ONLY, atms)
    assert s.aggregate == float("-inf")
    assert s.contributors == ()


def test_single_transmitter_exact(pixel_and_sat, atms):
    fp, sat = pixel_and_sat
    tx = _tx(0, fp.center.latitude, fp.center.longitude)
    s = aggregate_interference(fp, sat.r, _dep([tx]), PathModel.LOS_ONLY,
                               atms)
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
    s = aggregate_interference(fp, sat.r, _dep(txs), PathModel.LOS_ONLY,
                               atms)
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
    s = aggregate_interference(fp, sat.r, _dep([far]), PathModel.LOS_ONLY,
                               atms)
    assert s.aggregate == float("-inf")


def test_adding_transmitter_monotone(pixel_and_sat, atms):
    fp, sat = pixel_and_sat
    one = [_tx(0, fp.center.latitude, fp.center.longitude)]
    two = one + [_tx(1, fp.center.latitude + 0.05, fp.center.longitude)]
    a = aggregate_interference(fp, sat.r, _dep(one), PathModel.LOS_ONLY,
                               atms)
    b = aggregate_interference(fp, sat.r, _dep(two), PathModel.LOS_ONLY,
                               atms)
    assert b.aggregate >= a.aggregate


def test_two_ray_gamma_zero_equals_los(pixel_and_sat, atms):
    fp, sat = pixel_and_sat
    rng = np.random.default_rng(5)
    txs = [_tx(i, fp.center.latitude + float(rng.uniform(-0.3, 0.3)),
               fp.center.longitude + float(rng.uniform(-0.3, 0.3)))
           for i in range(20)]
    los = aggregate_interference(fp, sat.r, _dep(txs), PathModel.LOS_ONLY,
                                 atms)
    tr0 = aggregate_interference(fp, sat.r, _dep(txs), PathModel.TWO_RAY,
                                 atms, reflection_coeff=0.0)
    assert tr0.aggregate == los.aggregate


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
    arrays = DeploymentArrays(
        [f"t{i}" for i in range(n)], ["gNB"] * n,
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
