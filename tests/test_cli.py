"""End-to-end CLI: subcommands, exit codes, file formats, determinism."""
import functools
import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import darkspace.cli
from darkspace import geofence
from darkspace.cli import main
from darkspace.config import ScenarioConfig
from darkspace.orbit import GroundPoint, frames, propagate, propagate_many
from darkspace.propagation import (GeoBox, PathModel, aggregate_interference,
                                   compliance, generate_deployment,
                                   read_deployment_jsonl,
                                   write_deployment_jsonl,
                                   write_interference_grid_csv)
from darkspace.radiometer import _footprint_arrays
from darkspace.timeutil import add_seconds

FIXTURES = Path(__file__).parent / "fixtures"
EXAMPLE_CONFIG = Path(__file__).parent.parent / "configs" / \
    "example_scenario.json"
SCANLINE_CONFIG = EXAMPLE_CONFIG.parent / "example_scanline.json"


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


@pytest.mark.parametrize("which", ["missing", "directory", "non-ascii"])
def test_validate_tle_unreadable_file_fails(tmp_path, capsys, which):
    """A TLE path that is missing, a directory or not ASCII text exits 2
    and names the path."""
    path = tmp_path / "sat.tle"
    if which == "directory":
        path.mkdir()
    elif which == "non-ascii":
        path.write_bytes(b"\xe9")
    assert main(["validate-tle", str(path)]) == 2
    assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("key", ["satellites", "atmosphere", "deployment"])
def test_config_path_to_directory_fails(tmp_path, capsys, key):
    """A config file path that names a directory exits 2 and names its
    dotted key."""
    config = json.loads(EXAMPLE_CONFIG.read_text())
    config["satellites"][0]["tle"] = str(EXAMPLE_CONFIG.parent
                                         / config["satellites"][0]["tle"])
    command, dotted = {
        "satellites": ("darkspaces", "satellites[0].tle"),
        "atmosphere": ("linkbudget", "atmosphere.path"),
        "deployment": ("itu-sim", "itu.deployment.path"),
    }[key]
    if key == "satellites":
        config["satellites"][0]["tle"] = str(tmp_path)
    elif key == "atmosphere":
        config["atmosphere"] = {"model": "table", "path": str(tmp_path)}
    else:
        config["itu"]["deployment"]["path"] = str(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main([command, "--config", str(bad), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert dotted in err and "not a regular file" in err


@pytest.mark.parametrize("table,where", [
    (b"elevation_deg,loss_db\n25.8,-10.9,1\n85.6,-6.1\n", "line 2"),
    (b"elevation_deg,loss_db\n25.8,-10.9\nnan,-1\n", "line 3"),
    (b"elevation_deg,loss_db\n25.8,-10.9\n85.6,inf\n", "line 3"),
    (b"elevation_deg,loss_db\n\n25.8,-10.9\n85.6,abc\n", "line 4"),
    (b"25.8,-10.9\nelevation_deg,loss_db\n85.6,-6.1\n", "line 2"),
    (b"elevation_deg,loss_db\n25.8,-10.9\xe9\n", "utf-8"),
], ids=["three-fields", "nan-elevation", "inf-loss", "text-loss",
        "late-header", "not-utf-8"])
def test_linkbudget_bad_atmosphere_table_fails(tmp_path, capsys, table,
                                               where):
    """A malformed atmosphere table row, or a table that is not UTF-8
    text, exits 2 naming the file (and the line) before any output is
    written."""
    path = tmp_path / "atm.csv"
    path.write_bytes(table)
    config = json.loads(EXAMPLE_CONFIG.read_text())
    config["satellites"][0]["tle"] = str(EXAMPLE_CONFIG.parent
                                         / config["satellites"][0]["tle"])
    config["atmosphere"] = {"model": "table", "path": str(path)}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["linkbudget", "--config", str(bad), "--out-dir",
                 str(out)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and where in err
    assert not any(out.glob("*"))


def test_linkbudget_atmosphere_table_with_comments(tmp_path):
    """Comment lines may precede the header of an atmosphere table, and
    the run matches the one on the bundled table."""
    path = tmp_path / "atm.csv"
    path.write_text("# elevation (deg), loss (dB)\n\nelevation_deg,loss_db\n"
                    "# measured\n25.8,-10.9\n85.6,-6.1\n")
    config = json.loads(EXAMPLE_CONFIG.read_text())
    config["satellites"][0]["tle"] = str(EXAMPLE_CONFIG.parent
                                         / config["satellites"][0]["tle"])
    config["atmosphere"] = {"model": "table", "path": str(path)}
    bad = tmp_path / "commented.json"
    bad.write_text(json.dumps(config))
    assert main(["linkbudget", "--config", str(bad), "--out-dir",
                 str(tmp_path / "a")]) == 0
    assert main(["linkbudget", "--config", str(EXAMPLE_CONFIG), "--out-dir",
                 str(tmp_path / "b")]) == 0
    a, b = (json.loads((tmp_path / d / "linkbudget.json").read_text())
            for d in "ab")
    assert a.pop("provenance") != b.pop("provenance")
    assert a == b


@pytest.mark.parametrize("window", [
    {"start": "not-a-time", "end": "2023-04-25T05:30:00Z"}, None,
], ids=["bad-start", "null"])
def test_linkbudget_does_not_read_window(tmp_path, window):
    """linkbudget evaluates a fixed geometry at no instant, so a malformed
    window, which it never reads, leaves the example's payload as it is."""
    config = json.loads(EXAMPLE_CONFIG.read_text())
    config["satellites"][0]["tle"] = str(EXAMPLE_CONFIG.parent
                                         / config["satellites"][0]["tle"])
    config["window"] = window
    bad = tmp_path / "window.json"
    bad.write_text(json.dumps(config))
    assert main(["linkbudget", "--config", str(bad), "--out-dir",
                 str(tmp_path / "a")]) == 0
    assert main(["linkbudget", "--config", str(EXAMPLE_CONFIG), "--out-dir",
                 str(tmp_path / "b")]) == 0
    a, b = (json.loads((tmp_path / d / "linkbudget.json").read_text())
            for d in "ab")
    assert a.pop("provenance") != b.pop("provenance")
    assert a == b


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
    ("itu-sim", "itu.deployment.scenario", "metro"),
    ("itu-sim", "itu.max_pixels", 0),
    ("itu-sim", "itu.max_pixels", -5),
    ("experiment", "experiment.max_pulse_s", -1.0),
    ("experiment", "experiment.max_pulse_s", 0.0),
    ("experiment", "experiment.overlap_threshold", -1.0),
    ("experiment", "experiment.overlap_threshold", 1.5),
    ("itu-sim", "itu.quantile", 2.0),
    ("itu-sim", "itu.quantile", 0.0),
    ("itu-sim", "itu.area_km2", -1.0),
    ("experiment", "experiment.clearance_n", -3),
    ("itu-sim", "itu.gamma", -1.5),
    ("itu-sim", "itu.gamma", 1.0000001),
    ("itu-sim", "itu.max_pixels", 1.5),
    ("itu-sim", "itu.max_pixels", True),
    ("experiment", "experiment.clearance_n", 2.7),
    ("experiment", "experiment.clearance_n", False),
    ("darkspaces", "seed", 7.9),
    ("itu-sim", "seed", True),
    ("itu-sim", "itu.deployment.bbox", [80.0, 95.0, -122.5, -120.5]),
    ("itu-sim", "itu.deployment.bbox", [-95.0, -80.0, -122.5, -120.5]),
    ("itu-sim", "itu.deployment.bbox", [39.8, 41.8, -190.0, -120.5]),
    ("itu-sim", "itu.deployment.bbox", [39.8, 41.8, -122.5, 240.0])],
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
         "null-scenario", "number-scenario", "unknown-scenario",
         "zero-max-pixels", "negative-max-pixels", "negative-max-pulse",
         "zero-max-pulse", "negative-overlap-threshold",
         "overlap-threshold-above-one", "quantile-above-one",
         "zero-quantile", "negative-area", "negative-clearance-n",
         "itu-gamma-below-minus-one", "itu-gamma-above-one",
         "fractional-max-pixels", "boolean-max-pixels",
         "fractional-clearance-n", "boolean-clearance-n", "fractional-seed",
         "boolean-seed", "bbox-latitude-above-90",
         "bbox-latitude-below-minus-90", "bbox-lon-min-below-minus-180",
         "bbox-longitude-span-above-360"])
def test_unconvertible_config_value_fails(tmp_path, capsys, command, key,
                                          value):
    """A typed value of the example config that does not convert, is not
    finite, is out of its range or is a count given as a boolean or a
    fraction, or a node that is not the object it must be, exits 2 and
    names its dotted key (a list entry as name[i])."""
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


@pytest.mark.parametrize("field,value", [
    ("phase_locked", "false"), ("samples_per_scan", True),
    ("samples_per_scan", 96.5), ("scan_period", float("nan")),
    ("center_frequency", float("inf")), ("bandwidth", float("nan")),
    ("antenna_max_gain", float("nan")), ("n_temp", float("inf"))],
    ids=["text-phase-locked", "boolean-samples-per-scan",
         "fractional-samples-per-scan", "nan-scan-period",
         "infinite-center-frequency", "nan-bandwidth", "nan-antenna-gain",
         "infinite-n-temp"])
def test_unhonourable_inline_preset_fails(tmp_path, capsys, field, value):
    """An inline radiometer preset that RadiometerSpec cannot honour exits
    2 and names satellites[0].preset."""
    config = json.loads(EXAMPLE_CONFIG.read_text())
    preset = json.loads((Path(darkspace.cli.__file__).parent / "presets"
                         / "atms.json").read_text())
    config["satellites"][0]["preset"] = dict(preset, **{field: value})
    shutil.copy(EXAMPLE_CONFIG.parent / "noaa21_like.tle", tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["darkspaces", "--config", str(bad), "--out-dir",
                 str(tmp_path / "out")]) == 2
    assert f"satellites[0].preset: invalid radiometer preset: {field}" in \
        capsys.readouterr().err


def test_preset_file_not_json_fails(tmp_path, capsys):
    """A preset .json file that does not parse exits 2 naming the file."""
    config = json.loads(EXAMPLE_CONFIG.read_text())
    config["satellites"][0]["preset"] = "broken.json"
    (tmp_path / "broken.json").write_text('{"name": "atms",')
    shutil.copy(EXAMPLE_CONFIG.parent / "noaa21_like.tle", tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["darkspaces", "--config", str(bad), "--out-dir",
                 str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "satellites[0].preset" in err and "broken.json" in err


@pytest.mark.parametrize("model", ["los", "two-ray"])
@pytest.mark.parametrize("gamma", ["1.5", "-1.5"])
def test_gamma_flag_out_of_range_fails_before_output(tmp_path, capsys, model,
                                                     gamma):
    """--gamma outside [-1, 1] exits 2 naming itu.gamma, under either
    model, before deployment.jsonl or any other output is written."""
    out = tmp_path / "out"
    assert main(["itu-sim", "--config", str(EXAMPLE_CONFIG), "--model", model,
                 "--gamma", gamma, "--out-dir", str(out)]) == 2
    assert "itu.gamma" in capsys.readouterr().err
    assert not any(out.glob("*"))


def test_quantile_flag_out_of_range_fails(tmp_path, capsys):
    """--quantile is written into the document before it is read, so an
    out-of-range flag exits 2 naming itu.quantile."""
    assert main(["itu-sim", "--config", str(EXAMPLE_CONFIG), "--quantile",
                 "1.5", "--out-dir", str(tmp_path / "out")]) == 2
    assert "itu.quantile" in capsys.readouterr().err


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


def test_itu_sim_non_finite_deployment_value_fails(scenario, capsys):
    """A deployment value that is not finite (json reads NaN and Infinity)
    exits 2 naming the record and key; a NaN altitude once dropped every
    emitter from the sweep and passed."""
    path, config, tmp = scenario
    dep = tmp / "nan_dep.jsonl"
    dep.write_text(json.dumps(dict(_RECORD, alt_m=float("nan"))) + "\n"
                   + json.dumps(dict(_RECORD, id="b")) + "\n")
    config["itu"]["deployment"] = {
        "path": str(dep), "bbox": config["itu"]["deployment"]["bbox"]}
    bad = tmp / "nan_dep.json"
    bad.write_text(json.dumps(config))
    out = tmp / "nan_dep"
    assert main(["itu-sim", "--config", str(bad),
                 "--out-dir", str(out)]) == 2
    assert ("bad transmitter record 1: alt_m nan is not finite"
            in capsys.readouterr().err)
    assert not (out / "compliance.json").exists()


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


@pytest.mark.parametrize("fail_in", ["sweeper", "parent"])
def test_itu_sim_failed_sweep_stops_both_halves(scenario, capsys, monkeypatch,
                                                fail_in):
    """An aggregate that fails in the forked sweeper exits 3; one that
    fails here raises, and either way no process is left running.  An
    alarm turns a run that waits forever into a failure."""
    path, _, tmp = scenario
    parent = os.getpid()
    aggregate = darkspace.cli.aggregate_interference

    def failing(*args, **kwargs):
        if (os.getpid() == parent) == (fail_in == "parent"):
            raise RuntimeError(f"aggregate failed in the {fail_in}")
        return aggregate(*args, **kwargs)

    def stuck(signum, frame):
        raise TimeoutError("itu-sim still running after 60 s")

    monkeypatch.setattr(darkspace.cli, "aggregate_interference", failing)
    argv = ["itu-sim", "--config", str(path), "--out-dir", str(tmp / "out")]
    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(60)
    try:
        if fail_in == "sweeper":
            assert main(argv) == 3
            assert "compute error: sweeping pixels" in capsys.readouterr().err
        else:
            with pytest.raises(RuntimeError, match="in the parent"):
                main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


def _serial_sweep(config_path, out_path):
    """interference_grid.csv (written to out_path) and the compliance
    report of sweeping the CLI's pixels in one in-process loop."""
    config = ScenarioConfig.load(config_path)
    itu = config.itu_params()
    dep = config.itu_deployment()
    if dep["path"] is not None:
        deployment = read_deployment_jsonl(dep["path"])
    else:
        deployment = generate_deployment(
            dep["scenario"], dep["bbox"], config.seed(),
            center_frequency=dep["center_frequency_hz"],
            emission_bandwidth=dep["emission_bandwidth_hz"])
    satellite = config.satellites()[0]
    sat_r, footprints = geofence.pixels_in_box(
        satellite, config.window(), dep["bbox"], itu["max_pixels"],
        config.ground_altitude())
    model = PathModel(itu["model"])
    samples = [aggregate_interference(
        fp, r, deployment, model, satellite[1],
        atmosphere=config.atmosphere("itu"),
        reflection_coeff=complex(itu["gamma"]),
        two_ray_floor_db=itu["two_ray_floor_db"],
        include_contributors=False) for fp, r in zip(footprints, sat_r.T)]
    write_interference_grid_csv(samples, model, out_path,
                                config.provenance("itu-sim"))
    report = compliance(samples, threshold=itu["threshold_dbm_mhz"],
                        quantile=itu["quantile"], area_km2=itu["area_km2"])
    return report, len(deployment)


@pytest.mark.parametrize("model", ["los", "two-ray"])
@pytest.mark.parametrize("source", ["generated", "read"])
def test_itu_sim_split_sweep_equals_serial(scenario, model, source):
    """The sweep split between this process and a forked sweeper writes
    what one serial loop over the pixels does: with 1 pixel (an empty
    half here), 2, 3 and the config's cap, on a generated deployment and
    on one read back from its deployment.jsonl."""
    path, config, tmp = scenario
    config["itu"]["model"] = model
    # A twelfth of the fixture's box, so reading the deployment back is
    # quick.
    lat_min, lat_max, lon_min, lon_max = config["itu"]["deployment"]["bbox"]
    config["itu"]["deployment"]["bbox"] = [lat_min + 1.0, lat_max - 1.0,
                                           lon_min + 1.5, lon_max - 1.5]
    path.write_text(json.dumps(config))
    if source == "read":
        assert main(["itu-sim", "--config", str(path), "--out-dir",
                     str(tmp / "generated")]) == 0
        config["itu"]["deployment"] = {
            "path": str(tmp / "generated" / "deployment.jsonl"),
            "bbox": config["itu"]["deployment"]["bbox"]}
    for max_pixels in (1, 2, 3, config["itu"]["max_pixels"]):
        config["itu"]["max_pixels"] = max_pixels
        cfg = tmp / f"split-{max_pixels}.json"
        cfg.write_text(json.dumps(config))
        out = tmp / f"split-{max_pixels}"
        assert main(["itu-sim", "--config", str(cfg),
                     "--out-dir", str(out)]) == 0
        report, n_transmitters = _serial_sweep(cfg, tmp / "serial.csv")
        assert (report.n_pixels == max_pixels if max_pixels < 4
                else report.n_pixels > 4)
        assert ((out / "interference_grid.csv").read_bytes()
                == (tmp / "serial.csv").read_bytes())
        written = json.loads((out / "compliance.json").read_text())
        assert written["model"] == model
        assert (written["n_pixels"], written["fraction_compliant"],
                written["pass"], written["n_transmitters"]) == (
            report.n_pixels, report.fraction_compliant, report.passed,
            n_transmitters)


def test_itu_pixels_in_chunks(monkeypatch):
    """Footprinting the pixel search's samples a few at a time keeps every
    pixel and satellite position bit for bit."""
    config = ScenarioConfig.load(EXAMPLE_CONFIG)
    args = (config.satellites()[0], config.window(),
            config.itu_deployment()["bbox"], 1000, config.ground_altitude())
    sat_r, footprints = geofence.pixels_in_box(*args)
    monkeypatch.setattr(geofence, "MARGIN_CHUNK", 7)
    chunked_r, chunked = geofence.pixels_in_box(*args)
    assert len(footprints) > 100
    assert np.array_equal(chunked_r, sat_r) and chunked == footprints


def test_itu_pixels_global_box_memory():
    """A global box over the 2-hour ATMS example window (about 260 k
    samples, all in the box) allocates a few MB: the search keeps the
    in-box samples' dwell keys, not their states or footprints."""
    config = ScenarioConfig.load(EXAMPLE_CONFIG)
    tracemalloc.start()
    try:
        _, footprints = geofence.pixels_in_box(
            config.satellites()[0], config.window(),
            GeoBox(-90.0, 90.0, -180.0, 180.0), 1000,
            config.ground_altitude())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(footprints) > 900
    assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


def test_itu_pixels_memory_does_not_grow_with_the_window():
    """The example box over 7 days peaks within 1.5x of its peak over 1
    day: the line screen runs a piece of the window's lines at a time and
    keeps only the ids of the lines it keeps."""
    config = ScenarioConfig.load(EXAMPLE_CONFIG)
    start = config.window()[0]
    peaks, pixels = [], []
    for days in (1, 7):
        tracemalloc.start()
        try:
            _, footprints = geofence.pixels_in_box(
                config.satellites()[0],
                (start, add_seconds(start, days * 86400.0)),
                config.itu_deployment()["bbox"], 1000,
                config.ground_altitude())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        pixels.append(len(footprints))
    assert pixels[1] > 2 * pixels[0] > 200
    assert peaks[1] < 1.5 * peaks[0], [f"{p / 1e6:.1f} MB" for p in peaks]


def test_subcommands_do_not_import_numpy_ma(tmp_path):
    """darkspaces, experiment and itu-sim on the example config, one after
    another in a fresh interpreter, never import numpy.ma: its import
    takes tens of ms, which is why geofence._unique_ids stands in for
    np.unique."""
    script = ("import sys\n"
              "from darkspace.cli import main\n"
              "for cmd in sys.argv[2:]:\n"
              "    assert main([cmd, '--config', sys.argv[1],\n"
              "                 '--out-dir', cmd]) == 0, cmd\n"
              "    assert 'numpy.ma' not in sys.modules, cmd\n")
    src = str(Path(darkspace.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run(
        [sys.executable, "-c", script, str(EXAMPLE_CONFIG), "darkspaces",
         "experiment", "itu-sim"], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert {p.name for p in tmp_path.iterdir()} == {
        "darkspaces", "experiment", "itu-sim"}


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


@functools.cache
def _every_sample(config_path, spec_changes=()):
    """Every sample of the config's window, footprinted, with its first
    satellite's spec changed as the (field, value) pairs say."""
    config = ScenarioConfig.load(config_path)
    elements, spec = config.satellites()[0]
    spec = replace(spec, **dict(spec_changes))
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
        arrays = _footprint_arrays(
            r, v + np.cross(omega, r, axis=0), spec.boresight_of(idx[chunk]),
            spec, config.ground_altitude())
        lat, lon, _ = frames.ecef_to_geodetic(arrays["center"])
        parts.append((lat, lon, arrays["miss"]))
    lat, lon, miss = (np.concatenate(col) for col in zip(*parts))
    return config, lines, idx, lat, lon, miss


@pytest.fixture
def every_example_sample(request):
    """Every radiometer sample of an example window (the ATMS one unless
    parametrised with another config), footprinted, with no screening of
    scan lines: the reference pixels_in_box must reproduce."""
    return _every_sample(getattr(request, "param", EXAMPLE_CONFIG))


def _reference_selection(every, bbox, max_pixels):
    """The selection of footprinting every sample: its indices into every,
    and its centres (lat, lon), which a footprint no longer names by
    sample.  A longitude is in the box when it or the same meridian's
    longitude + 360 is."""
    _, lines, idx, lat, lon, miss = every
    in_lon = [(x >= bbox.lon_min) & (x <= bbox.lon_max)
              for x in (lon, lon + 360.0)]
    sel = np.flatnonzero((lat >= bbox.lat_min) & (lat <= bbox.lat_max)
                         & (in_lon[0] | in_lon[1]) & ~miss)
    if sel.size > max_pixels:
        sel = sel[::int(np.ceil(sel.size / max_pixels))]
    centers = [GroundPoint(float(lat[i]), float(lon[i])) for i in sel]
    return sel, [(c.latitude, c.longitude) for c in centers]


def _selection(config, bbox, max_pixels):
    sat_r, footprints = geofence.pixels_in_box(
        config.satellites()[0], config.window(), bbox, max_pixels,
        config.ground_altitude())
    assert sat_r.shape == (3, len(footprints))
    return [(fp.center.latitude, fp.center.longitude) for fp in footprints]


@pytest.mark.parametrize("every_example_sample", [EXAMPLE_CONFIG,
                                                  SCANLINE_CONFIG],
                         ids=["atms", "amsua"], indirect=True)
def test_itu_pixels_screening_keeps_example_selection(every_example_sample):
    config = every_example_sample[0]
    bbox = config.itu_deployment()["bbox"]
    for max_pixels in (1000, 40, 5):
        _, expected = _reference_selection(every_example_sample, bbox,
                                           max_pixels)
        assert expected
        assert _selection(config, bbox, max_pixels) == expected


def test_itu_pixels_box_across_antimeridian(every_example_sample):
    """A box from 178 to 182 degrees east, where the example swath crosses
    the antimeridian north of 75 degrees, keeps the centres on both sides
    of it."""
    config = every_example_sample[0]
    bbox = GeoBox(75.0, 78.0, 178.0, 182.0)
    _, expected = _reference_selection(every_example_sample, bbox, 1000)
    assert min(x for _, x in expected) < 0 < max(x for _, x in expected)
    assert _selection(config, bbox, 1000) == expected


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


#: An ATMS that scans 0.1 degrees either side of nadir in 8 s lines: each
#: line's centres lie within about 1.5 km of the ground point beneath the
#: satellite at its first sample across the track, but up to about 60 km
#: from it along the track.
_NARROW_SCAN = (("scan_half_angle", 0.1), ("scan_period", 8.0))


def test_itu_pixels_screening_keeps_late_samples():
    """Tiny boxes around the last samples of lines keep what footprinting
    every sample keeps: only the satellite's motion over the line (the
    screen's V T) reaches those samples from the line's first state."""
    every = _every_sample(EXAMPLE_CONFIG, _NARROW_SCAN)
    config, lines, idx, lat, lon, miss = every
    elements, spec = config.satellites()[0]
    satellite = (elements, replace(spec, **dict(_NARROW_SCAN)))
    last = np.flatnonzero((idx == idx.max()) & ~miss & (np.abs(lon) < 179.0))
    for k in last[::last.size // 8]:
        bbox = GeoBox(lat[k] - 0.01, lat[k] + 0.01, lon[k] - 0.01,
                      lon[k] + 0.01)
        _, expected = _reference_selection(every, bbox, 1000)
        assert (lat[k], lon[k]) in expected
        _, footprints = geofence.pixels_in_box(
            satellite, config.window(), bbox, 1000, config.ground_altitude())
        assert [(fp.center.latitude, fp.center.longitude)
                for fp in footprints] == expected


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


#: (name, argv) of the runs whose outputs fixtures/sweep_digests.json
#: records: linkbudget on both example geometries, and itu-sim on the
#: example scenario under its own LOS model and the two-ray model.
SWEEP_RUNS = [
    *((f"linkbudget-{geometry}",
       ["linkbudget", "--config", str(EXAMPLE_CONFIG), "--geometry",
        geometry]) for geometry in ("default", "nadir-fixture")),
    ("itu-sim-example_scenario", ["itu-sim", "--config",
                                  str(EXAMPLE_CONFIG)]),
    ("itu-sim-example_scenario-two-ray",
     ["itu-sim", "--config", str(EXAMPLE_CONFIG), "--model", "two-ray",
      "--gamma", "-0.7"]),
]


def run_digests(runs, out_dir) -> dict:
    """sha256 of every file the (name, argv) runs write, by run/file
    name."""
    digests = {}
    for name, argv in runs:
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
    assert run_digests(GEOFENCE_RUNS, tmp_path) == recorded


def test_sweep_outputs_match_recorded_digests(tmp_path):
    """The example link budgets and itu-sim grids keep their recorded
    bytes (fixtures/README.md)."""
    recorded = json.loads((FIXTURES / "sweep_digests.json").read_text())
    assert run_digests(SWEEP_RUNS, tmp_path) == recorded
