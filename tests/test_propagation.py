"""Two-ray model, Monte Carlo deployments, aggregation, compliance."""
import json
import math
from array import array
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


def _unchecked(records):
    """Columns of complete records as DeploymentArrays holds them, without
    from_records' checks, for values (NaN, infinities) it rejects."""
    return DeploymentArrays(
        [r["id"] for r in records], [r["kind"] for r in records],
        **{column: [r[key] for r in records]
           for key, column, _ in propagation._RECORD_FIELDS
           if column not in ("ids", "kinds")})


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


def test_two_ray_matches_complex_reference():
    """The real identity 1 + |G|**2 + 2 Re(G exp(j phi)) against
    20 log10|1 + G exp(j k delta)| over |G|, arg G, heights and
    elevations.  Above the floor the gains agree within 1e-9 dB, or, so
    near a null that 1e-9 dB is below the rounding of that three-term sum
    (terms up to 4), within 8 ulps of 1 in power.  A null of the reference
    gives exactly the floor, and G = 0 exactly 0.0."""
    h, el = (a.ravel() for a in np.meshgrid(np.linspace(0.0, 50.0, 101),
                                            np.linspace(0.5, 90.0, 90)))
    k = 2.0 * math.pi * F / SPEED_OF_LIGHT
    delta = 2.0 * h * np.sin(np.radians(el))
    eps = np.finfo(float).eps
    for magnitude in (0.0, 0.3, 0.7, 1.0):
        for angle in (0.0, math.pi / 2, math.pi, -math.pi / 3):
            gamma = magnitude * complex(math.cos(angle), math.sin(angle))
            gain = two_ray_gain_db(h, el, F, gamma)
            if magnitude == 0.0:
                assert np.all(gain == 0.0)
                continue
            with np.errstate(divide="ignore"):
                ref = 20.0 * np.log10(np.abs(1.0 + gamma
                                             * np.exp(1j * k * delta)))
            null = ref <= -60.0
            assert np.all(gain[null] == -60.0)
            power = 10.0 ** (ref[~null] / 10.0)
            tol = np.maximum(1e-9, 10.0 * np.log10(1.0 + 8.0 * eps / power))
            assert np.all(np.abs(gain[~null] - ref[~null]) <= tol)
    # A perfect reflector at h = 0: the reflection cancels the LOS ray.
    assert np.any(two_ray_gain_db(h, el, F, -1.0) == -60.0)


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


def _eager_ids(scenario, dep):
    """The ids as a list, "<scenario>-<kind>-%06d" numbered within each
    run of one kind."""
    from itertools import groupby
    return [f"{scenario}-{kind}-{i:06d}"
            for kind, run in groupby(dep.kinds) for i, _ in enumerate(run)]


@pytest.mark.parametrize("scenario", ["urban", "suburban", "rural"])
def test_generated_ids_equal_the_eager_list(tmp_path, scenario):
    """The ids built on demand read as the list of every id does: length,
    numpy integer and negative indices, slices (one across each class
    boundary, one with a step), iteration and == from either side."""
    box = GeoBox(39.9, 40.0, -105.1, -105.0)
    dep = generate_deployment(scenario, box, seed=11)
    ids = dep.ids
    eager = _eager_ids(scenario, dep)
    assert isinstance(ids, propagation.GeneratedIds)
    assert len(ids) == len(eager) == len(dep) > 0
    assert len(set(dep.kinds)) == 3
    for k in (0, len(eager) - 1, len(eager) // 2):
        assert ids[np.int64(k)] == ids[k] == eager[k]
    assert ids[-1] == eager[-1]
    with pytest.raises(IndexError):
        ids[len(eager)]
    ends = np.flatnonzero(np.array(dep.kinds[1:]) != np.array(dep.kinds[:-1]))
    for end in ends:
        assert ids[end - 2:end + 3] == eager[end - 2:end + 3]
    assert ids[::7] == eager[::7]
    assert ids[5:2] == [] and ids[:] == eager
    assert list(ids) == eager
    assert ids == eager and eager == ids
    assert not (ids != eager) and ids != eager[:-1] and eager[1:] != ids
    assert ids == generate_deployment(scenario, box, seed=11).ids

    path = tmp_path / "dep.jsonl"
    write_deployment_jsonl(dep, path)
    again = read_deployment_jsonl(path)
    assert again.ids == eager
    assert again == dep and dep == again


def test_generated_ids_skip_empty_classes():
    ids = propagation.GeneratedIds(["a-", "b-", "c-", "d-"], [0, 2, 0, 1])
    eager = ["b-000000", "b-000001", "d-000000"]
    assert [ids[k] for k in range(-3, 3)] == eager + eager
    assert ids == eager and ids[1:] == eager[1:]
    assert propagation.GeneratedIds([], []) == []


def test_generated_constant_columns_are_read_only():
    """The columns that hold one value for every emitter are read-only
    views of it, equal to the full columns."""
    dep = generate_deployment("rural", GeoBox(39.9, 40.0, -105.1, -105.0),
                              seed=11, center_frequency=2.0e10,
                              emission_bandwidth=1.0e8)
    for column, value in (("alt", 0.0), ("center_frequency", 2.0e10),
                          ("emission_bandwidth", 1.0e8),
                          ("pointing_az", 0.0), ("pointing_el", 0.0)):
        values = getattr(dep, column)
        assert np.array_equal(values, np.full(len(dep), value))
        assert not values.flags.writeable


def test_generated_ids_name_the_contributors(pixel_and_sat, atms):
    """include_contributors gives the same id strings from the ids built on
    demand as from the eager list."""
    fp, sat = pixel_and_sat
    lat, lon = fp.center.latitude, fp.center.longitude
    dep = generate_deployment("suburban",
                              GeoBox(lat - 0.1, lat + 0.1, lon - 0.1,
                                     lon + 0.1), seed=2)
    eager = DeploymentArrays(
        _eager_ids("suburban", dep), dep.kinds,
        **{c: getattr(dep, c) for c in DeploymentArrays._FLOAT_COLUMNS})
    lazy = aggregate_interference(fp, sat.r, dep, PathModel.TWO_RAY, atms)
    assert len(lazy.contributors) > 10
    assert lazy == aggregate_interference(fp, sat.r, eager,
                                          PathModel.TWO_RAY, atms)


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
        write_deployment_jsonl(_unchecked(dep), path)
        assert path.read_text(encoding="utf-8") == _jsonl(dep)


#: Floats at the edges of the range orjson formats as json.dumps does
#: (1e-4 <= |x| < 1e16, and +-0): each bound and its neighbours, the
#: non-finite values and subnormals.
_EDGE_FLOATS = [
    sign * value for sign in (1.0, -1.0) for value in (
        0.0, math.nan, math.inf, 5e-324, 2.225073858507201e-308,
        math.ulp(0.0) * 12345, 1e-5, 1e17, *(
            np.nextafter(bound, toward)
            for bound in (1e-4, 1e16) for toward in (0.0, bound, math.inf)))]


def _texts_of(column):
    """_json_texts of column, one text per value."""
    texts = propagation._json_texts(column)
    return [texts] * len(column) if isinstance(texts, bytes) else texts


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats() | st.sampled_from(_EDGE_FLOATS),
                       min_size=1, max_size=40),
       read_only=st.booleans())
def test_json_texts_match_json_dumps(values, read_only):
    """Every float64 column, as an array or read-only over a buffer as
    from_records builds it, formats as json.dumps formats each value."""
    column = (np.frombuffer(array("d", values), dtype=float) if read_only
              else np.array(values, dtype=float))
    assert _texts_of(column) == [json.dumps(v).encode()
                                 for v in column.tolist()]


def test_deployment_jsonl_edge_floats_match_json_dumps(tmp_path):
    """A deployment whose EIRPs are the edge floats writes each record as
    json.dumps does, line by line."""
    records = [_tx(i, 40.0 + 1e-3 * i, -105.0, eirp=float(eirp))
               for i, eirp in enumerate(_EDGE_FLOATS)]
    path = tmp_path / "dep.jsonl"
    write_deployment_jsonl(_unchecked(records), path)
    lines = path.read_text().splitlines()
    assert lines == [json.dumps(r, sort_keys=True) for r in records]


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


def test_id_digits_cross_the_padding_edge():
    """The id digits are "%06d" of each index, padded below 10**6 and not
    from it, in one call across the edge and on each side of it."""
    for lo, hi in ((999_990, 1_000_011), (0, 3), (999_999, 1_000_000),
                   (1_000_000, 1_000_002), (12_345_678, 12_345_680)):
        assert propagation._id_digits(lo, hi) == [
            b"%06d" % i for i in range(lo, hi)]


def _lines_of(dep):
    """json.dumps(record, sort_keys=True) of each emitter's record, read
    from the columns (the ids by index)."""
    def value(column, i):
        values = getattr(dep, column)
        return values[i] if column in ("ids", "kinds") else float(values[i])
    return [json.dumps({key: value(column, i)
                        for key, column, _ in propagation._RECORD_FIELDS},
                       sort_keys=True) for i in range(len(dep))]


@pytest.mark.parametrize("chunk", [7, 1 << 14])
def test_generated_jsonl_lines_match_json_dumps(tmp_path, monkeypatch,
                                                chunk):
    """Each line of a generated deployment equals json.dumps of its
    record: its scenario name needs escaping (quote, backslash,
    non-ASCII), an empty class comes first, between and last, and chunks
    of 7 cross each class boundary or one chunk holds every class."""
    from darkspace.propagation import EmitterClass
    monkeypatch.setattr(propagation, "_JSONL_CHUNK", chunk)
    empty = EmitterClass(TransmitterKind.IAB, 0.0, -22.0)
    classes = (empty, EmitterClass(TransmitterKind.GNB, 1.0, -25.0, 3.0, 15.0),
               empty, EmitterClass(TransmitterKind.UE, 2.0, -35.0, 4.0, 1.5),
               EmitterClass(TransmitterKind.FLASHLIGHT, 0.5, -20.0), empty)
    dep = generate_deployment('q"\\é', GeoBox(39.9, 40.0, -105.1, -105.0),
                              seed=8, classes=classes)
    counts = [dep.kinds.count(kind.value) for kind in (
        TransmitterKind.GNB, TransmitterKind.UE, TransmitterKind.FLASHLIGHT)]
    assert min(counts) >= 8 and TransmitterKind.IAB.value not in dep.kinds
    assert dep.ids[0] == 'q"\\é-gNB-000000'
    path = tmp_path / "dep.jsonl"
    write_deployment_jsonl(dep, path)
    assert path.read_text(encoding="utf-8").splitlines() == _lines_of(dep)
    assert read_deployment_jsonl(path) == dep


def test_record_jsonl_lines_match_json_dumps(tmp_path, monkeypatch):
    """A deployment read from records, its ids a list, writes each line as
    json.dumps of its record, across chunks."""
    monkeypatch.setattr(propagation, "_JSONL_CHUNK", 7)
    records = [dict(_tx(i, 40.0 + 1e-3 * i, -105.0, eirp=-20.0 - i % 3),
                    id=f"site \"{i}\" é", kind=("gNB", "UE")[i % 5 // 4])
               for i in range(20)]
    dep = _dep(records)
    path = tmp_path / "dep.jsonl"
    write_deployment_jsonl(dep, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == _lines_of(dep) == [json.dumps(r, sort_keys=True)
                                       for r in records]


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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", [
    key for key, column, _ in propagation._RECORD_FIELDS
    if column in DeploymentArrays._FLOAT_COLUMNS])
def test_from_records_rejects_non_finite_values(key, value):
    """Every number must be finite: a NaN altitude, longitude or EIRP
    would otherwise drop emitters from the sweep, or all of them."""
    records = [_tx(0, 40.0, -105.0), dict(_tx(1, 40.0, -105.0),
                                          **{key: value})]
    with pytest.raises(ConfigError,
                       match=f"record 2: {key} -?(nan|inf) is not finite"):
        _dep(records)


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


def _columns(lat, lon, alt=None, seed=0):
    """DeploymentArrays of emitters at these latitudes and longitudes, with
    ids "t<index>" and seeded antenna heights and EIRPs."""
    n = len(lat)
    rng = np.random.default_rng(seed)
    return DeploymentArrays(
        [f"t{i}" for i in range(n)], ["gNB"] * n, lat=lat, lon=lon,
        alt=np.zeros(n) if alt is None else alt,
        antenna_height=rng.uniform(0.0, 30.0, n),
        eirp=rng.uniform(-40.0, -10.0, n), center_frequency=np.full(n, F),
        emission_bandwidth=np.full(n, 2.0e8), pointing_az=np.zeros(n),
        pointing_el=np.zeros(n))


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
    arrays = _columns(cols["lat"], cols["lon"], cols["alt"], seed)

    # _near_pixel returns sweep positions; order maps them to indices.
    assert n - 1 not in arrays.build_geometry().order[
        propagation._near_pixel(arrays, fp, sat.r)]

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


@settings(max_examples=60, deadline=None)
@given(lats=st.lists(st.sampled_from([-0.0, 0.0, -1.5, 2.0, 40.0, 90.0])
                     | st.floats(-90.0, 90.0), max_size=30))
def test_sweep_order_is_the_stable_latitude_order(lats):
    """The sweep geometry holds the emitters in np.argsort(lat,
    kind="stable") order, ties (signed zeros among them) in deployment
    order, and its longitudes and geometry are the deployment's in that
    order."""
    arrays = _columns(lats, np.zeros(len(lats)))
    geometry = arrays.build_geometry()
    order = np.argsort(arrays.lat, kind="stable")
    assert geometry.order.tolist() == order.tolist()
    assert np.array_equal(geometry.lon, arrays.lon[order])
    assert np.array_equal(geometry.ground_ecef, frames.geodetic_to_ecef(
        arrays.lat[order], arrays.lon[order], 0.0))
    assert arrays.build_geometry() is geometry


def test_sweep_order_is_stable_for_many_ties():
    """Read latitudes with many ties, signed zeros among them, take the
    stable order; a generated deployment's distinct latitudes take the
    same order as the stable sort too."""
    lats = np.random.default_rng(3).choice([-0.0, 0.0, 1.5, -2.0], 2000)
    tied = _columns(lats, np.zeros(len(lats)))
    assert np.array_equal(tied.build_geometry().order,
                          np.argsort(tied.lat, kind="stable"))
    dep = generate_deployment("suburban", GeoBox(39.5, 40.5, -106.0, -104.0),
                              seed=3)
    assert len(np.unique(dep.lat)) == len(dep) > 10_000
    assert np.array_equal(dep.build_geometry().order,
                          np.argsort(dep.lat, kind="stable"))


@settings(max_examples=60, deadline=None)
@given(lat=st.floats(0.0, 89.9), lon=st.floats(-180.0, 180.0),
       heading=st.floats(0.0, 360.0), sample=st.integers(0, 95),
       span=st.floats(0.0, 5000.0), seed=st.integers(0, 2 ** 32 - 1))
def test_screen_keeps_the_lat_lon_box(atms, lat, lon, heading, sample, span,
                                      seed):
    """_near_pixel keeps exactly the emitters that the O(N) latitude and
    longitude test of every emitter keeps, with duplicate latitudes and
    emitters exactly on, and one ulp beyond, each edge of the band."""
    east, north, _ = frames.enu_basis(lat, lon)
    h = math.radians(heading)
    sat = state_from_geodetic(
        T0, lat, lon, 832.1e3,
        velocity_ecef=tuple(7.4e3 * (math.sin(h) * east
                                     + math.cos(h) * north)))
    fp = pixel_footprint(sat, ScanSample(0, sample, T0,
                                         float(atms.boresight_of(sample))),
                         atms)
    reach = propagation._screen_reach(fp, sat.r, span, 0.0)
    assert reach is not None
    dlat, dlon = reach
    c_lat, c_lon = fp.center.latitude, fp.center.longitude
    edges = [c_lat - dlat, c_lat + dlat]
    edges += [np.nextafter(edges[0], -90.0), np.nextafter(edges[1], 90.0)]
    lons = [c_lon - dlon, c_lon + dlon, c_lon + 180.0, c_lon,
            c_lon - 360.0 + dlon, c_lon + 360.0 - dlon]
    rng = np.random.default_rng(seed)
    near = list(rng.uniform(c_lat - 2.0 * dlat, c_lat + 2.0 * dlat, 40))
    e_lat = np.clip(edges * len(lons) + near + near[:10] + edges, -90.0, 90.0)
    e_lon = frames.wrap_longitude(np.concatenate((
        np.repeat(lons, len(edges)),
        rng.uniform(c_lon - 2.0 * dlon, c_lon + 2.0 * dlon, 50 + len(edges)))))
    alt = rng.uniform(0.0, span, len(e_lat))
    alt[0] = span
    arrays = _columns(e_lat, e_lon, alt, seed)
    geometry = arrays.build_geometry()
    assert geometry.alt_span == span and geometry.sink == 0.0

    lon_off = np.abs(arrays.lon - c_lon)
    reference = np.flatnonzero(
        (arrays.lat >= c_lat - dlat) & (arrays.lat <= c_lat + dlat)
        & ((lon_off <= dlon) | (lon_off >= 360.0 - dlon)))
    kept = propagation._near_pixel(arrays, fp, sat.r)
    assert np.all(np.diff(kept) > 0)
    assert sorted(geometry.order[kept].tolist()) == reference.tolist()
    # At the centre's longitude, the emitters on the band's edges count
    # and those one ulp beyond do not (unless clipped back at the pole).
    at_centre = 3 * len(edges)
    assert [i in reference for i in range(at_centre, at_centre + 4)] == [
        True, True, False, edges[1] >= 90.0]


def test_aggregate_does_not_depend_on_deployment_order(pixel_and_sat, atms):
    """A row-permuted copy of a deployment, with tied latitudes, gives the
    same contributors (ids and values, listed in each deployment's order)
    and an aggregate within 1e-9 dB."""
    fp, sat = pixel_and_sat
    c_lat, c_lon = fp.center.latitude, fp.center.longitude
    dep = generate_deployment("rural", GeoBox(c_lat - 0.5, c_lat + 0.5,
                                              c_lon - 0.5, c_lon + 0.5),
                              seed=8)
    lat = dep.lat.copy()
    lat[1::7] = lat[::7][:len(lat[1::7])]
    rng = np.random.default_rng(3)
    perm = rng.permutation(len(dep))
    ids = list(dep.ids)
    columns = {c: getattr(dep, c) for c in DeploymentArrays._FLOAT_COLUMNS}
    columns["lat"] = lat
    original = DeploymentArrays(ids, dep.kinds, **columns)
    permuted = DeploymentArrays(
        [ids[i] for i in perm], [dep.kinds[i] for i in perm],
        **{c: np.asarray(v)[perm] for c, v in columns.items()})
    for model in PathModel:
        a, b = (aggregate_interference(fp, sat.r, arrays, model, atms)
                for arrays in (original, permuted))
        assert len(a.contributors) > 100
        assert sorted(a.contributors) == sorted(b.contributors)
        for arrays, sample in ((original, a), (permuted, b)):
            where = {tx_id: i for i, tx_id in enumerate(arrays.ids)}
            positions = [where[tx_id] for tx_id, _, _ in sample.contributors]
            assert positions == sorted(positions)
        assert abs(a.aggregate - b.aggregate) <= 1e-9


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
