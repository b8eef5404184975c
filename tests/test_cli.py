"""End-to-end CLI: subcommands, exit codes, file formats, determinism."""
import hashlib
import json
import multiprocessing
import shutil
from pathlib import Path

import numpy as np
import pytest

import darkspace.cli
from darkspace import geofence
from darkspace.cli import _itu_pixels, main
from darkspace.config import ScenarioConfig
from darkspace.orbit import GroundPoint, frames, propagate, propagate_many
from darkspace.propagation import (GeoBox, generate_deployment,
                                   write_deployment_jsonl)
from darkspace.radiometer import _footprint_arrays_latlon
from darkspace.timeutil import add_seconds

FIXTURES = Path(__file__).parent / "fixtures"
EXAMPLE_CONFIG = Path(__file__).parent.parent / "configs" / \
    "example_scenario.json"


def _window(leo_tle, start_min, end_min):
    return {
        "start": add_seconds(leo_tle.epoch, start_min * 60).isoformat(),
        "end": add_seconds(leo_tle.epoch, end_min * 60).isoformat(),
    }


@pytest.fixture
def scenario(tmp_path, leo_tle):
    """A full scenario config with the fixture TLE and a pass over tx."""
    tle_path = tmp_path / "sat.tle"
    shutil.copy(FIXTURES / "noaa21_like.tle", tle_path)
    lat, lon, _ = propagate(leo_tle, add_seconds(leo_tle.epoch,
                                                 40 * 60)).geodetic
    config = {
        "satellites": [{"tle": "sat.tle", "preset": "atms"}],
        "transmitters": [{"id": "hcro", "lat": lat, "lon": lon,
                          "alt_m": 20.0}],
        "window": _window(leo_tle, 30, 50),
        "policy": {"kind": "pixel", "buffer_multiplier": 2.0},
        "linkbudget": {
            "p_on_dbm": 40.0,
            "n_temp_k": 500.0,
            "frequency_hz": 23.8e9,
            "bandwidth_hz": 0.2e9,
            "geometries": {
                "nadir": {
                    "satellite": {"lat": 40.774, "lon": -120.988,
                                  "alt_km": 832.1},
                    "ground": {"lat": 40.646, "lon": -121.637,
                               "alt_m": 20.0},
                    "fspl_db": -185.0,
                    "atmosphere_db": -6.1,
                },
                "edge": {
                    "satellite": {"lat": 40.828, "lon": -121.006,
                                  "alt_km": 832.1},
                    "ground": {"lat": 42.701, "lon": -105.927,
                               "alt_m": 20.0},
                },
            },
        },
        "atmosphere": {"model": "table"},
        "itu": {
            "deployment": {"scenario": "rural",
                           "bbox": [lat - 1.5, lat + 1.5,
                                    lon - 2.0, lon + 2.0]},
            "max_pixels": 400,
            "atmosphere": {"model": "cosecant", "a_zenith_db": 6.08},
        },
        "experiment": {"damage_threshold_dbm": -30.0,
                       "atmosphere": {"model": "cosecant",
                                      "a_zenith_db": 6.08}},
        "seed": 1234,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config, indent=2))
    return path, config, tmp_path


def _data_lines(path):
    return [l for l in Path(path).read_text().splitlines()
            if not l.startswith("#")]


def test_darkspaces_outputs(scenario, capsys):
    path, _, tmp = scenario
    out = tmp / "out_ds"
    assert main(["darkspaces", "--config", str(path),
                 "--out-dir", str(out)]) == 0
    lines = _data_lines(out / "schedule.csv")
    assert lines[0] == ("tx_id,satellite_id,scan_line_index,start_utc,"
                        "end_utc,policy_kind")
    assert len(lines) > 1
    assert lines[1].split(",")[0] == "hcro"
    avail = json.loads((out / "availability.json").read_text())
    assert "hcro" in avail["transmitters"]
    rep = avail["transmitters"]["hcro"]
    assert rep["white_fraction"] + rep["dark_fraction"] == pytest.approx(1.0)
    assert avail["provenance"]["config_sha256"]
    assert avail["provenance"]["tool_version"]


def test_darkspaces_deterministic(scenario):
    path, _, tmp = scenario
    out1, out2 = tmp / "d1", tmp / "d2"
    assert main(["darkspaces", "--config", str(path),
                 "--out-dir", str(out1)]) == 0
    assert main(["darkspaces", "--config", str(path),
                 "--out-dir", str(out2)]) == 0
    for name in ("schedule.csv", "schedule.jsonl", "availability.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_darkspaces_policy_override(scenario, tmp_path):
    path, config, tmp = scenario
    out = tmp / "out_sl"
    assert main(["darkspaces", "--config", str(path), "--policy", "scanline",
                 "--out-dir", str(out)]) == 0
    lines = _data_lines(out / "schedule.csv")
    assert all(l.endswith("scanline") for l in lines[1:])


def test_pixel_policy_on_unlocked_preset_fails(scenario):
    path, config, tmp = scenario
    config = json.loads(Path(path).read_text())
    config["satellites"][0]["preset"] = "amsua"
    bad = tmp / "bad.json"
    bad.write_text(json.dumps(config))
    out = tmp / "out_bad"
    assert main(["darkspaces", "--config", str(bad), "--policy", "pixel",
                 "--out-dir", str(out)]) == 2
    # Scan-line fallback is allowed for the same preset.
    assert main(["darkspaces", "--config", str(bad), "--policy", "scanline",
                 "--out-dir", str(out)]) == 0


def test_linkbudget_table_fixtures(scenario):
    path, _, tmp = scenario
    out = tmp / "lb"
    assert main(["linkbudget", "--config", str(path), "--geometry", "nadir",
                 "--out-dir", str(out)]) == 0
    nadir = json.loads((out / "linkbudget.json").read_text())
    assert nadir["loss"]["total_db"] == pytest.approx(-149.1, abs=1e-9)
    assert round(nadir["loss"]["total_db"]) == -149
    assert nadir["p_received_dbm"] == pytest.approx(-109.1, abs=1e-9)

    assert main(["linkbudget", "--config", str(path), "--geometry", "edge",
                 "--out-dir", str(out)]) == 0
    edge = json.loads((out / "linkbudget.json").read_text())
    assert round(edge["loss"]["total_db"]) == -153
    assert edge["loss"]["fspl_db"] == pytest.approx(-184.0, abs=0.5)
    assert edge["elevation_deg"] == pytest.approx(25.8, abs=0.3)


def test_linkbudget_missing_n_temp(scenario, capsys):
    path, config, tmp = scenario
    config = json.loads(Path(path).read_text())
    del config["linkbudget"]["n_temp_k"]
    bad = tmp / "missing.json"
    bad.write_text(json.dumps(config))
    assert main(["linkbudget", "--config", str(bad), "--geometry", "nadir",
                 "--out-dir", str(tmp / "x")]) == 2
    err = capsys.readouterr().err
    assert "n_temp_k" in err


def test_itu_sim_gamma_zero_matches_los(scenario):
    path, _, tmp = scenario
    out_los = tmp / "itu_los"
    out_tr = tmp / "itu_tr"
    assert main(["itu-sim", "--config", str(path), "--model", "los",
                 "--out-dir", str(out_los)]) == 0
    assert main(["itu-sim", "--config", str(path), "--model", "two-ray",
                 "--gamma", "0.0", "--out-dir", str(out_tr)]) == 0
    grid_los = [l.split(",") for l in
                _data_lines(out_los / "interference_grid.csv")[1:]]
    grid_tr = [l.split(",") for l in
               _data_lines(out_tr / "interference_grid.csv")[1:]]
    assert len(grid_los) == len(grid_tr) > 0
    for a, b in zip(grid_los, grid_tr):
        assert a[0] == b[0] and a[1] == b[1]
        assert a[2] == b[2]  # aggregate identical with gamma 0
    report = json.loads((out_los / "compliance.json").read_text())
    assert report["threshold_dbm_mhz"] == -200.0
    assert report["quantile"] == 0.9999
    assert report["n_pixels"] == len(grid_los)


def test_itu_sim_seed_reproducible(scenario):
    path, _, tmp = scenario
    out1, out2 = tmp / "itu1", tmp / "itu2"
    for out in (out1, out2):
        assert main(["itu-sim", "--config", str(path),
                     "--out-dir", str(out)]) == 0
    assert ((out1 / "interference_grid.csv").read_bytes()
            == (out2 / "interference_grid.csv").read_bytes())
    assert ((out1 / "compliance.json").read_bytes()
            == (out2 / "compliance.json").read_bytes())
    assert ((out1 / "deployment.jsonl").read_bytes()
            == (out2 / "deployment.jsonl").read_bytes())
    # ... and equal to the recorded bytes (fixtures/README.md).
    recorded = json.loads((FIXTURES / "itu_sim_digests.json").read_text())
    for name, digest in recorded.items():
        assert hashlib.sha256((out1 / name).read_bytes()).hexdigest() == \
            digest, name


def test_experiment_outputs(scenario):
    path, _, tmp = scenario
    out = tmp / "exp"
    assert main(["experiment", "--config", str(path),
                 "--out-dir", str(out)]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["mode"] == "pixel"
    assert plan["pulses"], "expected pulses over the transmitter"
    for p in plan["pulses"]:
        assert p["duration_s"] <= 0.1 + 1e-9
    assert plan["audit"]["pass"] is True
    assert "margin_db" in plan["audit"]
    assert plan["clearance_band_hz"] == [23.8e9 - 3 * 0.2e9,
                                         23.8e9 + 3 * 0.2e9]
    assert len(plan["checklist"]) == 3
    excl = _data_lines(out / "exclusions.csv")
    assert excl[0] == ("satellite_id,scan_line_index,sample_index,"
                       "start_utc,end_utc,reason")
    assert len(excl) > 1


def test_experiment_empty_window_warns(scenario, leo_tle, capsys):
    path, config, tmp = scenario
    config = json.loads(Path(path).read_text())
    # Move the transmitter to the antipode: no passes in the window.
    config["transmitters"][0]["lat"] = -config["transmitters"][0]["lat"]
    config["transmitters"][0]["lon"] = (
        (config["transmitters"][0]["lon"] + 360.0) % 360.0 - 180.0)
    empty = tmp / "empty.json"
    empty.write_text(json.dumps(config))
    out = tmp / "exp_empty"
    assert main(["experiment", "--config", str(empty),
                 "--out-dir", str(out)]) == 0
    assert ("warning: empty plan (no passes over the transmitter"
            in capsys.readouterr().out)
    plan = json.loads((out / "plan.json").read_text())
    assert plan["pulses"] == []


def test_experiment_empty_plan_names_discards(tmp_path, capsys):
    """An AMSU-A plan whose passes are all discarded for low ON/OFF
    overlap says so, rather than that there were no passes."""
    config = json.loads(EXAMPLE_CONFIG.read_text())
    config["satellites"][0]["preset"] = "amsua"
    config["policy"]["kind"] = "scanline"
    shutil.copy(EXAMPLE_CONFIG.parent / "noaa21_like.tle", tmp_path)
    path = tmp_path / "amsua.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["experiment", "--config", str(path),
                 "--out-dir", str(out)]) == 0
    diag = json.loads((out / "plan.json").read_text())["diagnostics"]
    assert diag == {"passes_considered": 1, "discarded_overlap": 1,
                    "discarded_off_conflict": 0}
    assert ("warning: empty plan (1 pass considered, all discarded: 1 for "
            "ON/OFF overlap below 0.5)") in capsys.readouterr().out


def test_validate_tle(capsys):
    assert main(["validate-tle", str(FIXTURES / "noaa21_like.tle")]) == 0
    out = capsys.readouterr().out
    assert "54234" in out and "OK" in out


def test_validate_tle_bad(tmp_path, capsys):
    bad = tmp_path / "bad.tle"
    text = (FIXTURES / "noaa21_like.tle").read_text().splitlines()
    text[1] = text[1][:-1] + str((int(text[1][-1]) + 5) % 10)
    bad.write_text("\n".join(text) + "\n")
    assert main(["validate-tle", str(bad)]) == 2
    assert "checksum" in capsys.readouterr().err.lower()


def test_unknown_config_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"satellite": []}))
    assert main(["darkspaces", "--config", str(path),
                 "--out-dir", str(tmp_path / "o")]) == 2


def test_missing_config_file(tmp_path):
    assert main(["darkspaces", "--config", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("command,key,entry,named", [
    ("itu-sim", "satellites", {"tle": "second.tle", "preset": "amsua"},
     "satellites[1] (CAT5)"),
    ("experiment", "satellites", {"tle": "second.tle", "preset": "atms"},
     "satellites[1] (CAT5)"),
    ("experiment", "transmitters",
     {"id": "second-site", "lat": 10.0, "lon": 20.0},
     "transmitters[1] (second-site)"),
], ids=["itu-sim-satellite", "experiment-satellite", "experiment-transmitter"])
def test_extra_entries_fail_loudly(scenario, capsys, command, key, entry,
                                   named):
    path, _, tmp = scenario
    shutil.copy(FIXTURES / "sgp4_00005.tle", tmp / "second.tle")
    config = json.loads(Path(path).read_text())
    config[key].append(entry)
    two = tmp / "two.json"
    two.write_text(json.dumps(config))
    out = tmp / "out_two"
    assert main([command, "--config", str(two), "--out-dir", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not any(out.glob("*"))


@pytest.mark.parametrize("key", ["buffer_multiplier", "temporal_pad_s"])
def test_nan_policy_fails(scenario, capsys, key):
    """JSON readers accept NaN; a NaN buffer must not read as no buffer."""
    path, config, tmp = scenario
    config["policy"][key] = float("nan")
    bad = tmp / "nan_buffer.json"
    bad.write_text(json.dumps(config))
    assert "NaN" in bad.read_text()
    assert main(["darkspaces", "--config", str(bad),
                 "--out-dir", str(tmp / "nan")]) == 2
    assert "policy" in capsys.readouterr().err


@pytest.mark.parametrize("section,key", [
    ("transmitters", "lat"), ("transmitters", "lon"),
    ("transmitters", "alt_m"), ("policy", "buffer_multiplier"),
    ("policy", "temporal_pad_s")])
def test_null_config_number_fails(scenario, capsys, section, key):
    path, config, tmp = scenario
    node = config[section]
    (node[0] if section == "transmitters" else node)[key] = None
    bad = tmp / "null.json"
    bad.write_text(json.dumps(config))
    assert main(["darkspaces", "--config", str(bad),
                 "--out-dir", str(tmp / "null")]) == 2
    named = "transmitters[0]" if section == "transmitters" else "policy"
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["darkspaces", "experiment"])
@pytest.mark.parametrize("key,value", [
    ("antenna_height_m", -1.0), ("antenna_height_m", float("nan")),
    ("eirp_density_dbm_mhz", "abc")],
    ids=["negative-height", "nan-height", "text-eirp"])
def test_bad_transmitter_field_fails(scenario, capsys, command, key, value):
    """The optional transmitter fields are checked by every subcommand,
    though none reads them."""
    path, config, tmp = scenario
    config["transmitters"][0][key] = value
    bad = tmp / "bad_field.json"
    bad.write_text(json.dumps(config))
    out = tmp / "bad_field"
    assert main([command, "--config", str(bad), "--out-dir", str(out)]) == 2
    assert "transmitters[0]" in capsys.readouterr().err
    assert not any(out.glob("*"))


@pytest.mark.parametrize("command,key,value", [
    ("darkspaces", "seed", None),
    ("darkspaces", "ground_altitude_m", None),
    ("darkspaces", "ground_altitude_m", "abc"),
    ("itu-sim", "itu.gamma", None),
    ("itu-sim", "itu.max_pixels", "x"),
    ("itu-sim", "itu.deployment.bbox", [39.8, None, -122.5, -120.5]),
    ("itu-sim", "itu.deployment.bbox", [39.8, 41.8, -122.5]),
    ("itu-sim", "itu.deployment.center_frequency_hz", None),
    ("itu-sim", "itu.deployment.emission_bandwidth_hz", "wide"),
    ("experiment", "experiment.overlap_threshold", None),
    ("experiment", "linkbudget.g_tx_dbi", None),
    ("linkbudget", "atmosphere", "table"),
    ("linkbudget", "atmosphere.path", 5),
    ("linkbudget", "linkbudget.geometries.default", "x"),
    ("linkbudget", "linkbudget.geometries.default.satellite.lat", None),
    ("linkbudget", "linkbudget.geometries.default.ground.alt_m", "high"),
    ("linkbudget", "linkbudget.geometries.default.ground", 5),
    ("linkbudget", "linkbudget.geometries.default.fspl_db", None),
    ("linkbudget", "linkbudget.geometries.default.ground.lat", 100),
    ("linkbudget", "linkbudget.geometries.default.satellite.lat", 100),
    ("linkbudget", "linkbudget.geometries.default.satellite.lat",
     float("nan")),
    ("linkbudget", "linkbudget.geometries.default.satellite.alt_km",
     float("nan")),
    ("linkbudget", "linkbudget.geometries.default.ground.alt_m",
     float("nan")),
    ("linkbudget", "linkbudget.geometries.default.ground.lon", float("nan")),
    ("linkbudget", "linkbudget.geometries.default.satellite.lon",
     float("inf")),
    ("experiment", "experiment.atmosphere", "cosecant"),
    ("darkspaces", "satellites", ["noaa21_like.tle"]),
    ("darkspaces", "satellites", [{"tle": 7, "preset": "atms"}]),
    ("darkspaces", "window", "2023-04-25"),
    ("darkspaces", "transmitters[0].lon", float("nan")),
    ("darkspaces", "transmitters[0].lon", float("inf")),
    ("darkspaces", "transmitters[0].alt_m", float("nan")),
    ("darkspaces", "ground_altitude_m", float("nan")),
    ("darkspaces", "policy.buffer_multiplier", float("inf")),
    ("experiment", "transmitters[0].lon", float("nan")),
    ("experiment", "experiment.overlap_threshold", float("nan")),
    ("itu-sim", "itu.gamma", float("nan")),
    ("itu-sim", "itu.threshold_dbm_mhz", float("nan")),
    ("itu-sim", "itu.deployment.bbox", [39.8, float("inf"), -122.5, -120.5]),
    ("itu-sim", "itu.deployment.center_frequency_hz", float("inf")),
    ("linkbudget", "linkbudget.p_h2o.noise_multiplier", float("nan")),
    ("itu-sim", "itu.deployment.scenario", None),
    ("itu-sim", "itu.deployment.scenario", 5),
    ("itu-sim", "itu.deployment.scenario", "metro")],
    ids=["null-seed", "null-ground-altitude", "text-ground-altitude",
         "null-itu-gamma", "text-itu-max-pixels", "null-bbox-entry",
         "short-bbox", "null-center-frequency", "text-emission-bandwidth",
         "null-overlap-threshold", "null-g-tx", "text-atmosphere",
         "number-atmosphere-path", "text-geometry", "null-geometry-lat",
         "text-geometry-alt", "number-geometry-ground", "null-geometry-fspl",
         "ground-lat-100", "satellite-lat-100", "nan-satellite-lat",
         "nan-satellite-alt", "nan-ground-alt", "nan-ground-lon",
         "infinite-satellite-lon",
         "text-experiment-atmosphere", "text-satellite-entry",
         "number-tle-path", "text-window", "nan-transmitter-lon",
         "infinite-transmitter-lon", "nan-transmitter-alt",
         "nan-ground-altitude", "infinite-buffer-multiplier",
         "nan-experiment-transmitter-lon", "nan-overlap-threshold",
         "nan-itu-gamma", "nan-itu-threshold", "infinite-bbox-entry",
         "infinite-center-frequency", "nan-p-h2o-noise-multiplier",
         "null-scenario", "number-scenario", "unknown-scenario"])
def test_unconvertible_config_value_fails(tmp_path, capsys, command, key,
                                          value):
    """A typed value of the example config that does not convert or is not
    finite, or a node that is not the object it must be, exits 2 and names
    its dotted key (a list entry as name[i])."""
    config = json.loads(EXAMPLE_CONFIG.read_text())
    *parents, last = key.split(".")
    node = config
    for part in parents:
        name, _, index = part.partition("[")
        node = node[name][int(index[:-1])] if index else node[name]
    node[last] = value
    shutil.copy(EXAMPLE_CONFIG.parent / "noaa21_like.tle", tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main([command, "--config", str(bad), "--out-dir",
                 str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("side,key", [("satellite", "lat"),
                                      ("satellite", "alt_km"),
                                      ("ground", "lon")])
def test_linkbudget_geometry_missing_number_fails(tmp_path, capsys, side,
                                                  key):
    """A linkbudget geometry without one of its required numbers exits 2
    and names the dotted key."""
    config = json.loads(EXAMPLE_CONFIG.read_text())
    del config["linkbudget"]["geometries"]["default"][side][key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["linkbudget", "--config", str(bad), "--out-dir",
                 str(tmp_path / "out")]) == 2
    assert (f"missing config key: linkbudget.geometries.default.{side}.{key}"
            in capsys.readouterr().err)


def test_itu_sim_reads_back_its_deployment(tmp_path):
    """itu-sim on the deployment.jsonl it wrote gives the same grid and
    compliance report as on the generated deployment."""
    config = json.loads(EXAMPLE_CONFIG.read_text())
    config["satellites"][0]["tle"] = str(EXAMPLE_CONFIG.parent
                                         / config["satellites"][0]["tle"])
    generated = tmp_path / "generated.json"
    generated.write_text(json.dumps(config))
    first = tmp_path / "first"
    assert main(["itu-sim", "--config", str(generated),
                 "--out-dir", str(first)]) == 0
    config["itu"]["deployment"] = {
        "path": str(first / "deployment.jsonl"),
        "bbox": config["itu"]["deployment"]["bbox"]}
    read = tmp_path / "read.json"
    read.write_text(json.dumps(config))
    second = tmp_path / "second"
    assert main(["itu-sim", "--config", str(read),
                 "--out-dir", str(second)]) == 0
    assert not (second / "deployment.jsonl").exists()
    rows = _data_lines(first / "interference_grid.csv")
    assert len(rows) == 126  # the header and 125 pixels
    assert _data_lines(second / "interference_grid.csv") == rows
    reports = [json.loads((out / "compliance.json").read_text())
               for out in (first, second)]
    for report in reports:
        del report["provenance"]
    assert reports[0] == reports[1]


_RECORD = {"id": "a", "lat": 40.0, "lon": -121.0,
           "eirp_density_dbm_mhz": -20.0, "center_frequency_hz": 2.4e10,
           "emission_bandwidth_hz": 2.0e8}


@pytest.mark.parametrize("line", [json.dumps(dict(_RECORD, lat=None)),
                                  "[1, 2, 3]", json.dumps(_RECORD)[:30]],
                         ids=["null-field", "not-an-object", "truncated"])
def test_itu_sim_bad_deployment_line_fails(scenario, capsys, line):
    path, config, tmp = scenario
    dep = tmp / "bad_dep.jsonl"
    dep.write_text(line + "\n")
    config["itu"]["deployment"] = {
        "path": str(dep), "bbox": config["itu"]["deployment"]["bbox"]}
    bad = tmp / "bad_dep.json"
    bad.write_text(json.dumps(config))
    assert main(["itu-sim", "--config", str(bad),
                 "--out-dir", str(tmp / "bad_dep")]) == 2
    assert "bad transmitter record 1" in capsys.readouterr().err


def test_itu_sim_zero_emission_bandwidth(scenario, capsys):
    path, config, tmp = scenario
    config = json.loads(Path(path).read_text())
    config["itu"]["deployment"]["emission_bandwidth_hz"] = 0
    bad = tmp / "zero_bw.json"
    bad.write_text(json.dumps(config))
    assert main(["itu-sim", "--config", str(bad),
                 "--out-dir", str(tmp / "itu_bw")]) == 2
    assert "emission_bandwidth" in capsys.readouterr().err


def test_itu_sim_unwritable_deployment_fails(scenario, capsys):
    path, _, tmp = scenario
    out = tmp / "itu_dir"
    (out / "deployment.jsonl").mkdir(parents=True)
    assert main(["itu-sim", "--config", str(path),
                 "--out-dir", str(out)]) == 3
    assert "deployment.jsonl" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


def test_itu_sim_no_pixels_still_writes_deployment(scenario, capsys):
    path, config, tmp = scenario
    # A box the satellite does not overfly during the window.
    config["itu"]["deployment"]["bbox"] = [-60.0, -59.0, 10.0, 11.0]
    empty = tmp / "empty_box.json"
    empty.write_text(json.dumps(config))
    out = tmp / "itu_empty"
    assert main(["itu-sim", "--config", str(empty),
                 "--out-dir", str(out)]) == 3
    assert "no radiometer pixels" in capsys.readouterr().err
    in_process = tmp / "in_process.jsonl"
    write_deployment_jsonl(generate_deployment(
        "rural", GeoBox(-60.0, -59.0, 10.0, 11.0), 1234), in_process)
    assert (out / "deployment.jsonl").read_bytes() == \
        in_process.read_bytes()
    assert multiprocessing.active_children() == []


def test_itu_sim_calls_patched_writer(scenario, monkeypatch):
    """A wrapper patched onto darkspace.cli.write_deployment_jsonl, as a
    tracer does, runs in the writer process and its output stands."""
    path, _, tmp = scenario
    write = darkspace.cli.write_deployment_jsonl

    def wrapped(deployment, out_path):
        Path(str(out_path) + ".called").write_text("")
        write(deployment, out_path)

    monkeypatch.setattr(darkspace.cli, "write_deployment_jsonl", wrapped)
    assert main(["itu-sim", "--config", str(path),
                 "--out-dir", str(tmp / "patched")]) == 0
    assert (tmp / "patched" / "deployment.jsonl.called").exists()
    recorded = json.loads((FIXTURES / "itu_sim_digests.json").read_text())
    assert hashlib.sha256((tmp / "patched" / "deployment.jsonl")
                          .read_bytes()).hexdigest() == \
        recorded["deployment.jsonl"]


def test_darkspaces_edge_footprints_in_chunks(scenario, monkeypatch):
    """Footprinting the screen's edge samples a few lines at a time keeps
    schedule.csv byte for byte."""
    path, _, tmp = scenario
    assert main(["darkspaces", "--config", str(path),
                 "--out-dir", str(tmp / "whole")]) == 0
    monkeypatch.setattr(geofence, "MARGIN_CHUNK", 2)
    assert main(["darkspaces", "--config", str(path),
                 "--out-dir", str(tmp / "chunked")]) == 0
    assert ((tmp / "chunked" / "schedule.csv").read_bytes()
            == (tmp / "whole" / "schedule.csv").read_bytes())


# --- itu-sim pixel search -------------------------------------------------


@pytest.fixture(scope="module")
def every_example_sample():
    """Every radiometer sample of the example window, footprinted, with no
    screening of scan lines: the reference _itu_pixels must reproduce."""
    config = ScenarioConfig.load(EXAMPLE_CONFIG)
    elements, spec = config.satellites()[0]
    start, end = config.window()
    duration = (end - start).total_seconds()
    base = (start - elements.epoch).total_seconds()
    n_lines = int(np.ceil(duration / spec.scan_period)) + 2
    line0 = int(np.floor(base / spec.scan_period))
    lines = np.repeat(np.arange(line0, line0 + n_lines),
                      spec.samples_per_scan)
    idx = np.tile(np.arange(spec.samples_per_scan), n_lines)
    offsets = lines * spec.scan_period + idx * spec.sample_dwell - base
    keep = (offsets >= 0) & (offsets <= duration)
    lines, idx, offsets = lines[keep], idx[keep], offsets[keep]
    omega = np.array([0.0, 0.0, frames.OMEGA_EARTH]).reshape(3, 1)
    parts = []
    for chunk in np.array_split(np.arange(lines.size), 16):
        r, v = propagate_many(elements, start, offsets[chunk])
        arrays = _footprint_arrays_latlon(
            r, v + np.cross(omega, r, axis=0), spec.boresight_of(idx[chunk]),
            spec, config.ground_altitude())
        parts.append((arrays["center_lat"], arrays["center_lon"],
                      arrays["miss"]))
    lat, lon, miss = (np.concatenate(col) for col in zip(*parts))
    return config, lines, idx, lat, lon, miss


def _reference_selection(every, bbox, max_pixels):
    """The selection of footprinting every sample: its indices into every,
    and its centres (lat, lon), which a footprint no longer names by
    sample."""
    _, lines, idx, lat, lon, miss = every
    sel = np.flatnonzero((lat >= bbox.lat_min) & (lat <= bbox.lat_max)
                         & (lon >= bbox.lon_min) & (lon <= bbox.lon_max)
                         & ~miss)
    if sel.size > max_pixels:
        sel = sel[::int(np.ceil(sel.size / max_pixels))]
    centers = [GroundPoint(float(lat[i]), float(lon[i])) for i in sel]
    return sel, [(c.latitude, c.longitude) for c in centers]


def _selection(config, bbox, max_pixels):
    _, footprints, sat_r = _itu_pixels(config, config.satellites()[0],
                                       max_pixels, bbox)
    assert sat_r.shape == (3, len(footprints))
    return [(fp.center.latitude, fp.center.longitude) for fp in footprints]


def test_itu_pixels_screening_keeps_example_selection(every_example_sample):
    config = every_example_sample[0]
    bbox = config.itu_deployment()["bbox"]
    for max_pixels in (1000, 40):
        _, expected = _reference_selection(every_example_sample, bbox,
                                           max_pixels)
        assert expected
        assert _selection(config, bbox, max_pixels) == expected


@pytest.mark.parametrize("where", ["near-site", "track-turn"])
def test_itu_pixels_screening_keeps_swath_edge(every_example_sample, where):
    # A box centred on one footprint of the last sample of a line, so half
    # of it lies beyond the swath edge and only samples near that edge fall
    # inside.  Near the example site the swath runs east-west; where the
    # track turns north of 80 degrees it runs north-south, so the screen's
    # latitude and longitude allowances are each exercised.
    config, lines, idx, lat, lon, miss = every_example_sample
    last = np.flatnonzero((idx == idx.max()) & ~miss)
    if where == "near-site":
        k = last[np.argmin(np.hypot(lat[last] - 40.817, lon[last] + 121.47))]
    else:
        mid = np.flatnonzero(idx == idx.max() // 2)
        turn = lines[mid[np.argmax(lat[mid])]]
        k = last[lines[last] == turn][0]
    bbox = GeoBox(lat[k] - 0.2, lat[k] + 0.2, lon[k] - 0.2, lon[k] + 0.2)
    sel, expected = _reference_selection(every_example_sample, bbox, 1000)
    assert expected and idx[sel].min() > idx.max() - 4
    assert _selection(config, bbox, 1000) == expected


def test_darkspaces_network_matches_single_sites(scenario):
    """Three transmitters in one config: each one's rows and report are
    those of a config that names it alone."""
    path, config, tmp = scenario
    hcro = config["transmitters"][0]
    config["transmitters"] = [
        hcro,
        dict(hcro, id="hcro-twin"),
        {"id": "east", "lat": hcro["lat"] + 1.0, "lon": hcro["lon"] + 3.0,
         "alt_m": 500.0},
    ]

    def run(name, transmitters):
        cfg = tmp / f"{name}.json"
        cfg.write_text(json.dumps(dict(config, transmitters=transmitters)))
        out = tmp / name
        assert main(["darkspaces", "--config", str(cfg), "--out-dir",
                     str(out), "--policy", "scanline"]) == 0
        rows = _data_lines(out / "schedule.csv")[1:]
        reports = json.loads((out / "availability.json").read_text())
        return rows, reports["transmitters"]

    rows, reports = run("network", config["transmitters"])
    assert list(reports) == ["east", "hcro", "hcro-twin"]
    for tx in config["transmitters"]:
        alone_rows, alone_reports = run(tx["id"], [tx])
        assert alone_rows
        assert [r for r in rows if r.split(",")[0] == tx["id"]] == alone_rows
        assert reports[tx["id"]] == alone_reports[tx["id"]]


@pytest.mark.parametrize("first,second", [("hcro", "hcro"), (None, "tx0"),
                                          ("tx1", None)],
                         ids=["same-id", "id-of-default", "default-id"])
def test_duplicate_transmitter_ids_fail(scenario, capsys, first, second):
    """Two transmitters with one id would share one availability entry;
    None leaves the id out, so the default tx<index> applies."""
    path, config, tmp = scenario
    sites = [dict(config["transmitters"][0]), {"lat": 10.0, "lon": 20.0}]
    for site, tx_id in zip(sites, (first, second)):
        site.pop("id", None)
        if tx_id is not None:
            site["id"] = tx_id
    config["transmitters"] = sites
    bad = tmp / "dup.json"
    bad.write_text(json.dumps(config))
    out = tmp / "out_dup"
    assert main(["darkspaces", "--config", str(bad),
                 "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "transmitters[0]" in err and "transmitters[1]" in err
    assert not any(out.glob("*"))


@pytest.mark.parametrize("command", ["darkspaces", "experiment"])
@pytest.mark.parametrize("policy", [None, "pixel", 2.0, []],
                         ids=["null", "string", "number", "list"])
@pytest.mark.parametrize("flag", [[], ["--policy", "scanline"]],
                         ids=["no-flag", "flag"])
def test_non_object_policy_fails(scenario, capsys, command, policy, flag):
    path, config, tmp = scenario
    config["policy"] = policy
    bad = tmp / "policy.json"
    bad.write_text(json.dumps(config))
    assert main([command, "--config", str(bad), "--out-dir",
                 str(tmp / "out_policy"), *flag]) == 2
    assert "policy" in capsys.readouterr().err


#: (name, argv) of the runs whose outputs fixtures/geofence_digests.json
#: records: darkspaces on both example configs under both policies,
#: experiment on the example scenario under its own and the scan-line
#: policy, and experiment on the AMSU-A example, which plans in scan-line
#: mode.
GEOFENCE_RUNS = [
    *((f"darkspaces-{config}-{policy}",
       ["darkspaces", "--config",
        str(EXAMPLE_CONFIG.parent / f"{config}.json"), "--policy", policy])
      for config in ("example_fleet", "example_scenario")
      for policy in ("pixel", "scanline")),
    ("experiment-example_scenario", ["experiment", "--config",
                                     str(EXAMPLE_CONFIG)]),
    ("experiment-example_scenario-scanline",
     ["experiment", "--config", str(EXAMPLE_CONFIG), "--policy", "scanline"]),
    ("experiment-example_scanline",
     ["experiment", "--config",
      str(EXAMPLE_CONFIG.parent / "example_scanline.json")]),
]


def geofence_digests(out_dir) -> dict:
    """sha256 of every file the GEOFENCE_RUNS write, by run/file name."""
    digests = {}
    for name, argv in GEOFENCE_RUNS:
        out = Path(out_dir) / name
        assert main([*argv, "--out-dir", str(out)]) == 0, name
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


def test_geofence_outputs_match_recorded_digests(tmp_path):
    """The example schedules and plans keep their recorded bytes
    (fixtures/README.md)."""
    recorded = json.loads((FIXTURES / "geofence_digests.json").read_text())
    assert geofence_digests(tmp_path) == recorded
