"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with `pytest -s
tests/test_acceptance.py` to see them inline); tolerances are pinned here
and nowhere else.
"""
import csv
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from darkspace.cli import main
from darkspace.geofence import availability, brute_force_oracle, dark_intervals
from darkspace.linkbudget import (db_to_linear, fspl_db, noise_power,
                                  on_off_ratio, required_tx_power,
                                  total_loss_db)
from darkspace.orbit import (GroundPoint, load_tle_file, propagate,
                             propagate_many, state_from_geodetic,
                             topocentric, frames)
from darkspace.orbit.sgp4 import SGP4Model, TWOPI
from darkspace.propagation import (DeploymentArrays, PathModel,
                                   aggregate_interference, compliance,
                                   two_ray_gain_db, InterferenceSample)
from darkspace.radiometer import (BufferPolicy, PolicyKind, ScanSample,
                                  footprints_batch, load_preset)
from darkspace.experiment import plan_experiment
from darkspace.timeutil import MINUTES_PER_DAY, add_seconds, julian_date

from helpers import (EPOCH, random_leo_elements, schedules_match,
                     transmitter_near_track)

FIXTURES = Path(__file__).parent / "fixtures"
C_LIGHT = 299792458.0


def _report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>2}: {description}: {status}{suffix}")
    assert ok, f"criterion {number} failed{suffix}"


# -- 1 -------------------------------------------------------------------


def test_criterion_1_loss_chain_regression():
    nadir = total_loss_db(-185.0, -6.1, -3.0, 15.0, 30.0)
    edge = total_loss_db(-184.0, -10.9, -3.0, 15.0, 30.0)
    ok = (abs(nadir.total - (-149.0)) <= 0.1 + 1e-9
          and abs(edge.total - (-153.0)) <= 0.1 + 1e-9)
    _report(1, "loss-chain composition reproduces -149/-153 dB", ok,
            f"nadir {nadir.total:.4f}, edge {edge.total:.4f}")


# -- 2 -------------------------------------------------------------------


def test_criterion_2_geometry_elevations_and_edge_fspl():
    t = EPOCH
    nadir_sat = state_from_geodetic(t, 40.774, -120.988, 832.1e3)
    nadir_el = topocentric(nadir_sat, GroundPoint(40.646, -121.637,
                                                  20.0)).elevation
    edge_sat = state_from_geodetic(t, 40.828, -121.006, 832.1e3)
    edge_look = topocentric(edge_sat, GroundPoint(42.701, -105.927, 20.0))
    edge_fspl = float(fspl_db(edge_look.slant_range, 23.8e9))
    ok = (abs(nadir_el - 85.6) <= 0.3
          and abs(edge_look.elevation - 25.8) <= 0.3
          and abs(edge_fspl - (-184.0)) <= 0.5)
    # The nadir free-space-loss cell is geometrically inconsistent with its
    # own coordinates (slant ~834 km gives ~-178.4 dB) and is deliberately
    # not a target; assert the documented divergence so silent fixes of the
    # fixture get noticed.
    nadir_look = topocentric(nadir_sat, GroundPoint(40.646, -121.637, 20.0))
    nadir_fspl = float(fspl_db(nadir_look.slant_range, 23.8e9))
    ok = ok and abs(nadir_fspl - (-178.4)) < 0.5
    _report(2, "table geometry elevations and edge FSPL", ok,
            f"elev {nadir_el:.2f}/{edge_look.elevation:.2f} deg, "
            f"edge FSPL {edge_fspl:.2f} dB")


# -- 3 -------------------------------------------------------------------


def test_criterion_3_received_power_anchor():
    received = 40.0 + total_loss_db(-185.0, -6.1, -3.0, 15.0, 30.0).total
    ok = abs(received - (-110.0)) <= 1.0
    _report(3, "40 dBm through -149 dB chain lands within 1 dB of -110 dBm",
            ok, f"received {received:.2f} dBm")


# -- 4 -------------------------------------------------------------------


def test_criterion_4_ratio_equation_properties():
    ok = on_off_ratio(0.0, -149.0, 1e-12, 1e-10) == 1.0

    p_noise, p_h2o = 1.381e-12, 1.381e-10
    p_on = 9.0 * (p_noise + p_h2o) / float(db_to_linear(-149.0))
    ok = ok and abs(on_off_ratio(p_on, -149.0, p_noise, p_h2o) - 10.0) < 1e-9

    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        ratio = float(10.0 ** rng.uniform(0.0001, 6.0))
        loss = float(rng.uniform(-200.0, -50.0))
        pn = float(10.0 ** rng.uniform(-15.0, -9.0))
        ph = float(10.0 ** rng.uniform(-14.0, -8.0))
        back = on_off_ratio(required_tx_power(ratio, loss, pn, ph),
                            loss, pn, ph)
        worst = max(worst, abs(back - ratio) / ratio)
    ok = ok and worst < 1e-12
    _report(4, "ON/OFF ratio properties and 1000-case inverse round trip",
            ok, f"worst relative error {worst:.2e}")


# -- 5 -------------------------------------------------------------------


def test_criterion_5_geofence_oracle_equivalence():
    atms = load_preset("atms")
    rng = np.random.default_rng(20230423)
    window = (EPOCH, add_seconds(EPOCH, 6 * 3600))
    policies = [BufferPolicy(PolicyKind.PIXEL_LEVEL, 2.0),
                BufferPolicy(PolicyKind.PIXEL_LEVEL, 1.0)]
    n_fixtures = 20
    total_intervals = 0
    for i in range(n_fixtures):
        policy = policies[i % len(policies)]
        elements = random_leo_elements(rng, 91000 + i)
        tx = transmitter_near_track(rng, elements, window)
        engine = dark_intervals(tx, [(elements, atms)], window, policy)
        oracle = brute_force_oracle(tx, [(elements, atms)], window, policy,
                                    dt=0.005)
        ok, detail = schedules_match(engine, oracle, tol_s=0.010, dt=0.005)
        if not ok:
            _report(5, f"oracle equivalence (fixture {i})", False, detail)
        total_intervals += len(engine.intervals)
    _report(5, "engine = oracle on 20 randomized 6 h fixtures", True,
            f"{total_intervals} intervals, boundaries within 10 ms")


# -- 6 -------------------------------------------------------------------


def test_criterion_6_availability_direction():
    elements = load_tle_file(FIXTURES / "noaa21_like.tle")
    atms = load_preset("atms")
    lat, lon, _ = propagate(elements,
                            add_seconds(elements.epoch, 40 * 60)).geodetic
    tx = GroundPoint(lat, lon, 20.0)
    window = (elements.epoch, add_seconds(elements.epoch, 7 * 86400))
    sched = dark_intervals(tx, [(elements, atms)], window,
                           BufferPolicy(PolicyKind.SCAN_LINE, 2.0))
    report = availability(sched)
    ok = report.white_to_dark_ratio >= 99.0
    _report(6, "7-day single-satellite scan-line white:dark ratio >= 99:1",
            ok, f"ratio {report.white_to_dark_ratio:.1f}:1, "
                f"{len(sched.intervals)} intervals")


# -- 7 -------------------------------------------------------------------


def test_criterion_7_pulse_duration_bound():
    atms = load_preset("atms")
    rng = np.random.default_rng(7)
    worst = 0.0
    n_pulses = 0
    for i in range(6):
        elements = random_leo_elements(rng, 92000 + i)
        window = (add_seconds(EPOCH, float(rng.uniform(0, 3600))),
                  add_seconds(EPOCH, float(rng.uniform(4 * 3600,
                                                       8 * 3600))))
        tx_point = transmitter_near_track(rng, elements, window,
                                          max_cross_km=500.0)
        plan = plan_experiment(tx_point, (elements, atms), window,
                               tx_id=f"fl{i}")
        for pulse in plan.pulses:
            worst = max(worst, pulse.duration)
        n_pulses += len(plan.pulses)
    ok = n_pulses > 0 and worst <= 0.1 + 1e-9
    _report(7, "every pixel-mode plan pulse is at most 0.1 s", ok,
            f"{n_pulses} pulses, longest {worst:.4f} s")


# -- 8 -------------------------------------------------------------------


def test_criterion_8_compliance_boundary_semantics():
    def fake(values):
        return [InterferenceSample(pixel=None, aggregate=v, contributors=())
                for v in values]

    one = compliance(fake([-199.0] + [-210.0] * 9999))
    two = compliance(fake([-199.0, -150.0] + [-210.0] * 9998))
    border = compliance(fake([-200.0] * 10000))
    ok = (one.passed and one.fraction_compliant == pytest.approx(0.9999)
          and not two.passed
          and two.fraction_compliant == pytest.approx(0.9998)
          and not border.passed and border.fraction_compliant == 0.0)
    _report(8, "compliance boundary fixtures (1/10000, 2/10000, strict <)",
            ok)


# -- 9 -------------------------------------------------------------------


def test_criterion_9_two_ray_sanity():
    atms = load_preset("atms")
    elements = load_tle_file(FIXTURES / "noaa21_like.tle")

    # Build a 1000-pixel grid along a pass.
    start = add_seconds(elements.epoch, 30 * 60)
    offsets = np.linspace(0.0, 1200.0, 1000)
    r, v = propagate_many(elements, start, offsets)
    omega = np.array([0.0, 0.0, frames.OMEGA_EARTH]).reshape(3, 1)
    v_inertial = v + np.cross(omega, r, axis=0)
    samples = [ScanSample(i, 48, add_seconds(start, float(o)), 0.0)
               for i, o in enumerate(offsets)]
    pixels = footprints_batch(r, v_inertial, samples, atms)

    rng = np.random.default_rng(9)
    deployment = []
    for i, fp in enumerate(pixels[::50]):
        deployment.append({
            "id": f"g{i}", "lat": fp.center.latitude,
            "lon": fp.center.longitude, "alt_m": fp.center.altitude,
            "antenna_height_m": 10.0,
            "eirp_density_dbm_mhz": float(rng.uniform(-40, -15)),
            "center_frequency_hz": 24.0e9, "emission_bandwidth_hz": 200.0e6})
    arrays = DeploymentArrays.from_records(deployment)

    bit_exact = True
    for i, fp in enumerate(pixels):
        los = aggregate_interference(fp, r[:, i], arrays, PathModel.LOS_ONLY,
                                     atms, include_contributors=False)
        tr0 = aggregate_interference(fp, r[:, i], arrays, PathModel.TWO_RAY,
                                     atms, reflection_coeff=0.0,
                                     include_contributors=False)
        if not (los.aggregate == tr0.aggregate):
            bit_exact = False
            break

    lam = C_LIGHT / 23.8e9
    el = 30.0
    h_constructive = lam / 2 / (2 * math.sin(math.radians(el)))
    h_null = lam / (2 * math.sin(math.radians(el)))
    gain_plus = float(two_ray_gain_db(h_constructive, el, 23.8e9, -1.0))
    gain_null = float(two_ray_gain_db(h_null, el, 23.8e9, -1.0))
    ok = (bit_exact and abs(gain_plus - 6.02) < 0.01 and gain_null == -60.0)
    _report(9, "two-ray: gamma=0 equals LOS bit-exact; -1 phase cases", ok,
            f"+{gain_plus:.2f} dB constructive, {gain_null:.0f} dB null")


# -- 10 ------------------------------------------------------------------


def test_criterion_10_sgp4_verification_vectors():
    elements = load_tle_file(FIXTURES / "sgp4_00005.tle")
    model = SGP4Model(
        epoch_days_1950=julian_date(elements.epoch) - 2433281.5,
        bstar=elements.bstar, ecco=elements.eccentricity,
        argpo=np.radians(elements.arg_perigee),
        inclo=np.radians(elements.inclination),
        mo=np.radians(elements.mean_anomaly),
        no_kozai=elements.mean_motion * TWOPI / MINUTES_PER_DAY,
        nodeo=np.radians(elements.raan))
    rows = []
    with open(FIXTURES / "sgp4_00005_vectors.csv") as fh:
        for row in csv.DictReader(fh):
            rows.append({k: float(x) for k, x in row.items()})
    worst_epoch_m = 0.0
    worst_day_km = 0.0
    for row in rows:
        r, _ = model.position_velocity(row["t_offset_min"])
        err_km = float(np.linalg.norm(
            r - [row["x_km"], row["y_km"], row["z_km"]]))
        if row["t_offset_min"] == 0.0:
            worst_epoch_m = max(worst_epoch_m, err_km * 1e3)
        else:
            worst_day_km = max(worst_day_km, err_km)
    ok = worst_epoch_m < 1.0 and worst_day_km < 1.0
    _report(10, "SGP4 verification vectors: <1 m at epoch, <1 km at +1 day",
            ok, f"epoch {worst_epoch_m:.2e} m, "
                f"out to a day {worst_day_km:.2e} km")


# -- 11 ------------------------------------------------------------------


def test_criterion_11_subcommand_determinism(tmp_path):
    elements = load_tle_file(FIXTURES / "noaa21_like.tle")
    shutil.copy(FIXTURES / "noaa21_like.tle", tmp_path / "sat.tle")
    lat, lon, _ = propagate(elements,
                            add_seconds(elements.epoch, 40 * 60)).geodetic
    config = {
        "satellites": [{"tle": "sat.tle", "preset": "atms"}],
        "transmitters": [{"id": "tx0", "lat": lat, "lon": lon,
                          "alt_m": 20.0}],
        "window": {
            "start": add_seconds(elements.epoch, 30 * 60).isoformat(),
            "end": add_seconds(elements.epoch, 50 * 60).isoformat(),
        },
        "policy": {"kind": "pixel", "buffer_multiplier": 2.0},
        "linkbudget": {
            "p_on_dbm": 40.0, "n_temp_k": 500.0,
            "frequency_hz": 23.8e9, "bandwidth_hz": 0.2e9,
            "geometries": {
                "edge": {"satellite": {"lat": 40.828, "lon": -121.006,
                                       "alt_km": 832.1},
                         "ground": {"lat": 42.701, "lon": -105.927,
                                    "alt_m": 20.0}}},
        },
        "atmosphere": {"model": "table"},
        "itu": {
            "deployment": {"scenario": "rural",
                           "bbox": [lat - 1.0, lat + 1.0,
                                    lon - 1.5, lon + 1.5]},
            "max_pixels": 200,
            "atmosphere": {"model": "cosecant", "a_zenith_db": 6.08},
        },
        "experiment": {"damage_threshold_dbm": -30.0,
                       "atmosphere": {"model": "cosecant",
                                      "a_zenith_db": 6.08}},
        "seed": 99,
    }
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(config, indent=2))

    runs = {
        "darkspaces": ["darkspaces", "--config", str(cfg)],
        "linkbudget": ["linkbudget", "--config", str(cfg),
                       "--geometry", "edge"],
        "itu-sim": ["itu-sim", "--config", str(cfg)],
        "experiment": ["experiment", "--config", str(cfg)],
    }
    all_ok = True
    details = []
    for name, argv in runs.items():
        out_a = tmp_path / f"{name}-a"
        out_b = tmp_path / f"{name}-b"
        assert main(argv + ["--out-dir", str(out_a)]) == 0
        assert main(argv + ["--out-dir", str(out_b)]) == 0
        for file_a in sorted(out_a.iterdir()):
            file_b = out_b / file_a.name
            if file_a.read_bytes() != file_b.read_bytes():
                all_ok = False
                details.append(f"{name}/{file_a.name} differs")
    _report(11, "all subcommands byte-identical across reruns", all_ok,
            "; ".join(details) if details else
            f"{sum(1 for _ in runs)} subcommands x 2 runs")
