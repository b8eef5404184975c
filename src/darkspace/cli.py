"""Command line interface.

Subcommands: darkspaces, linkbudget, itu-sim, experiment, validate-tle.
Every data file leads with the run's provenance dict (config hash, seed,
tool version) and, but for deployment.jsonl, is written by darkspace.output;
nothing is written outside --out-dir.  Exit codes: 0 success,
2 configuration/validation error, 3 computation error.
"""
from __future__ import annotations

import argparse
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .config import ScenarioConfig
from .errors import ComputeError, ConfigError, DarkspaceError
from .experiment import clearance_band, exclusion_records, plan_experiment, \
    safety_audit
# dark_intervals, propagate_many and footprints_batch are not called here,
# but bench/tracing.py patches them under this module's name, so they stay
# importable from darkspace.cli.
from .geofence import (availability, dark_intervals,  # noqa: F401
                       dark_intervals_many, footprints_batch, pixels_in_box,
                       write_schedule_csv, write_schedule_jsonl)
from .linkbudget import evaluate, fspl_db, required_tx_power, total_loss_db
from .orbit import (GroundPoint, load_tle_file,  # noqa: F401
                    propagate_many, state_from_geodetic, topocentric)
from .output import write_csv, write_json
from .propagation import (InterferenceSample, PathModel, TransmitterKind,
                          aggregate_interference, compliance,
                          generate_deployment, read_deployment_jsonl,
                          write_deployment_jsonl,
                          write_interference_grid_csv)
from .timeutil import iso_utc


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finite_or_none(value: float):
    return None if value in (float("inf"), float("-inf")) else value


def _sole_entry(entries, key, command, label):
    """The one config entry a subcommand supports; more is a ConfigError
    that names the entries it would otherwise ignore."""
    if len(entries) > 1:
        ignored = ", ".join(f"{key}[{i}] ({label(entry)})"
                            for i, entry in enumerate(entries[1:], 1))
        raise ConfigError(f"{command} supports exactly one entry in {key}, "
                          f"got {len(entries)}; it would ignore {ignored}")
    return entries[0]


# --- subcommands --------------------------------------------------------------


def cmd_darkspaces(args) -> int:
    config = ScenarioConfig.load(args.config)
    config.apply_overrides(seed=args.seed, policy=args.policy)
    out = _out_dir(args)
    prov = config.provenance("darkspaces")

    sats = config.satellites()
    policy = config.policy()
    window = config.window()
    ground_alt = config.ground_altitude()

    schedules = dark_intervals_many(
        [(tx_id, point) for tx_id, point, _ in config.transmitters()],
        sats, window, policy, ground_altitude=ground_alt)

    write_schedule_csv(schedules, out / "schedule.csv", prov)
    write_schedule_jsonl(schedules, out / "schedule.jsonl", prov)

    reports = {}
    for sched in schedules:
        rep = availability(sched)
        reports[sched.tx_id] = {
            "white_fraction": rep.white_fraction,
            "dark_fraction": rep.dark_fraction,
            "white_to_dark_ratio": _finite_or_none(rep.white_to_dark_ratio),
            "per_satellite_dark_seconds": rep.per_satellite_breakdown,
            "dark_mode": rep.dark_mode,
            "effective_availability": rep.effective_availability,
            "n_intervals": len(sched.intervals),
            "dark_seconds": sched.total_dark_seconds(),
        }
    write_json(out / "availability.json", prov, {
        "policy": {"kind": policy.kind.value,
                   "buffer_multiplier": policy.buffer_multiplier,
                   "temporal_pad_s": policy.temporal_pad},
        "window": {"start": iso_utc(window[0]), "end": iso_utc(window[1])},
        "transmitters": reports,
    })
    total = sum(len(s.intervals) for s in schedules)
    print(f"darkspaces: {total} dark intervals across "
          f"{len(schedules)} transmitter(s) -> {out}")
    if total == 0:
        print("warning: no dark intervals in window (no passes subtend "
              "any transmitter)")
    return 0


def cmd_linkbudget(args) -> int:
    config = ScenarioConfig.load(args.config)
    config.apply_overrides(seed=args.seed)
    out = _out_dir(args)
    prov = config.provenance("linkbudget")

    params = config.linkbudget_params()
    geometry = config.linkbudget_geometry(args.geometry)

    frequency = params["frequency_hz"]
    bandwidth = params["bandwidth_hz"]
    if frequency is None or bandwidth is None:
        raise ConfigError("missing config key: linkbudget.frequency_hz / "
                          "linkbudget.bandwidth_hz")

    sat_node = geometry["satellite"]
    gnd_node = geometry["ground"]
    # Fixed-geometry evaluation needs a nominal instant only.
    t = (config.window()[0] if "window" in config.data
         else datetime(2000, 1, 1, tzinfo=timezone.utc))
    sat = state_from_geodetic(t, sat_node["lat"], sat_node["lon"],
                              sat_node["alt_km"] * 1000.0)
    ground = GroundPoint(gnd_node["lat"], gnd_node["lon"], gnd_node["alt_m"])
    look = topocentric(sat, ground)
    if look.elevation <= 0:
        raise ComputeError("geometry puts the satellite below the horizon")

    atmosphere = config.atmosphere("linkbudget")
    atm_db = (float(atmosphere.loss_db(look.elevation))
              if atmosphere is not None else 0.0)
    # Regression fixtures may pin stated loss components instead of the
    # geometry-derived ones.
    fspl_value = (geometry["fspl_db"] if geometry["fspl_db"] is not None
                  else float(fspl_db(look.slant_range, frequency)))
    if geometry["atmosphere_db"] is not None:
        atm_db = geometry["atmosphere_db"]
    chain = total_loss_db(
        fspl=fspl_value,
        atmosphere=atm_db,
        polarization=params["polarization_db"],
        g_tx=params["g_tx_dbi"],
        g_rx=params["g_rx_dbi"],
    )
    budget = evaluate(params["p_on_dbm"], chain, params["n_temp_k"],
                      bandwidth, p_h2o_w=params["p_h2o_watts"],
                      p_h2o_noise_multiplier=params["p_h2o_noise_multiplier"])
    write_json(out / "linkbudget.json", prov, {
        "geometry": args.geometry,
        "elevation_deg": look.elevation,
        "azimuth_deg": look.azimuth,
        "slant_range_m": look.slant_range,
        "frequency_hz": frequency,
        "bandwidth_hz": bandwidth,
        "loss": {
            "fspl_db": chain.fspl,
            "atmosphere_db": chain.atmosphere,
            "polarization_db": chain.polarization,
            "g_tx_dbi": chain.g_tx,
            "g_rx_dbi": chain.g_rx,
            "total_db": chain.total,
        },
        "p_on_dbm": budget.p_on,
        "p_noise_w": budget.p_noise,
        "p_h2o_w": budget.p_h2o,
        "p_received_dbm": budget.p_received,
        "on_off_ratio": budget.on_off_ratio,
        "required_tx_power_w_for_ratio_10": required_tx_power(
            10.0, chain.total, budget.p_noise, budget.p_h2o),
    })
    print(f"linkbudget[{args.geometry}]: total {chain.total:.1f} dB, "
          f"received {budget.p_received:.1f} dBm -> {out}")
    return 0


# bench/tracing.py times and counts the pixel search under this name.
_itu_pixels = pixels_in_box


def _fork(target, *args):
    """Start target(*args) in a forked process.  Flushing first keeps the
    child from repeating this process's buffered output."""
    # (Imported here, so other subcommands pay none of its start-up.)
    import multiprocessing
    sys.stdout.flush()
    sys.stderr.flush()
    process = multiprocessing.get_context("fork").Process(target=target,
                                                          args=args)
    process.start()
    return process


def _sweep(pixels, deployment, model, spec, atmosphere, itu):
    """The aggregate of each (footprint, satellite position) pixel."""
    return [aggregate_interference(fp, r, deployment, model, spec,
                                   atmosphere=atmosphere,
                                   reflection_coeff=complex(itu["gamma"]),
                                   two_ray_floor_db=itu["two_ray_floor_db"],
                                   include_contributors=False).aggregate
            for fp, r in pixels]


def _split_sweep(pixels, *sweep):
    """_sweep of pixels: the first half here, the second in a forked
    sweeper, whose aggregates come back through a one-way pipe.

    Forked, the sweeper reads the deployment and its geometry in place,
    shared copy-on-write.  The split is fixed, not claimed pixel by pixel,
    so this process sweeps (and counts) the same pixels in every run.
    Only the sweeper holds the send end (a writer is forked before the
    pipe exists), so a sweeper that dies ends the pipe: recv raises
    EOFError, reported as ComputeError, instead of waiting.  A failure
    here stops the sweeper.
    """
    import multiprocessing
    half = len(pixels) // 2
    receive, send = multiprocessing.Pipe(duplex=False)
    sweeper = _fork(lambda: send.send(_sweep(pixels[half:], *sweep)))
    send.close()
    try:
        aggregates = _sweep(pixels[:half], *sweep)
        aggregates += receive.recv()
    except EOFError:
        sweeper.join()
        raise ComputeError(f"sweeping pixels {half} to {len(pixels) - 1} "
                           f"failed (sweeper exit code {sweeper.exitcode})"
                           ) from None
    except BaseException:
        sweeper.terminate()
        raise
    finally:
        receive.close()
        sweeper.join()
    return aggregates


def cmd_itu_sim(args) -> int:
    config = ScenarioConfig.load(args.config)
    config.apply_overrides(seed=args.seed, model=args.model,
                           gamma=args.gamma, threshold=args.threshold,
                           quantile=args.quantile)
    satellite = _sole_entry(config.satellites(), "satellites", "itu-sim",
                            lambda sat: sat[0].satellite_id)
    spec = satellite[1]
    out = _out_dir(args)
    prov = config.provenance("itu-sim")
    itu = config.itu_params()

    try:
        model = PathModel(itu["model"])
    except ValueError:
        raise ConfigError(f"itu.model: expected 'los' or 'two-ray', got "
                          f"{itu['model']!r}") from None

    writer = None
    dep = config.itu_deployment()
    bbox = dep["bbox"]
    if dep["path"] is not None:
        deployment = read_deployment_jsonl(dep["path"])
    else:
        deployment = generate_deployment(
            dep["scenario"], bbox, config.seed(),
            center_frequency=dep["center_frequency_hz"],
            emission_bandwidth=dep["emission_bandwidth_hz"])
        # Writing the JSONL shares nothing with the sweep, so a forked
        # writer formats it from the inherited columns, started before the
        # pixel search so that a run with no pixels still writes it.  It
        # only formats and writes text, so the BLAS threads idle at the
        # fork do not matter.
        writer = _fork(write_deployment_jsonl, deployment,
                       out / "deployment.jsonl")

    try:
        sat_r, footprints = _itu_pixels(satellite, config.window(), bbox,
                                        itu["max_pixels"],
                                        config.ground_altitude())
        if not footprints:
            raise ComputeError("no radiometer pixels fall inside the area "
                               "during the window")
        # The geometry is built once, here, so the sweeper forked next
        # shares it copy-on-write; each aggregate is the same
        # aggregate_interference call on the same inputs in either process.
        deployment.build_geometry()
        aggregates = _split_sweep(list(zip(footprints, sat_r.T)), deployment,
                                  model, spec, config.atmosphere("itu"), itu)
    finally:
        if writer is not None:
            writer.join()
    if writer is not None and writer.exitcode != 0:
        raise ComputeError(f"writing {out / 'deployment.jsonl'} failed "
                           f"(writer exit code {writer.exitcode})")

    samples = [InterferenceSample(pixel=fp, aggregate=aggregate,
                                  contributors=())
               for fp, aggregate in zip(footprints, aggregates)]
    report = compliance(samples, threshold=itu["threshold_dbm_mhz"],
                        quantile=itu["quantile"], area_km2=itu["area_km2"])

    write_interference_grid_csv(samples, model, out / "interference_grid.csv",
                                prov)
    write_json(out / "compliance.json", prov, {
        "model": model.value,
        "gamma": itu["gamma"],
        "threshold_dbm_mhz": report.threshold,
        "quantile": report.quantile,
        "area_km2": report.area_km2,
        "n_pixels": report.n_pixels,
        "n_transmitters": len(deployment),
        "sampling_scheme": ("all radiometer samples in the window with "
                            "pixel centers inside the bounding box, evenly "
                            "strided to max_pixels"),
        "fraction_compliant": report.fraction_compliant,
        "pass": report.passed,
    })
    print(f"itu-sim: {report.n_pixels} pixels, fraction compliant "
          f"{report.fraction_compliant:.6f}, pass={report.passed} -> {out}")
    return 0


_PULSE_FIELDS = ("tx_id", "satellite_id", "on_start_utc", "on_end_utc",
                 "duration_s", "target_line", "target_sample", "off_line",
                 "off_sample", "overlap_fraction")
_EXCLUSION_FIELDS = ("satellite_id", "scan_line_index", "sample_index",
                     "start_utc", "end_utc", "reason")


def cmd_experiment(args) -> int:
    config = ScenarioConfig.load(args.config)
    config.apply_overrides(seed=args.seed, policy=args.policy)
    out = _out_dir(args)
    prov = config.provenance("experiment")

    exp = config.experiment_params()
    lb = config.linkbudget_params()
    elements, spec = _sole_entry(config.satellites(), "satellites",
                                 "experiment", lambda sat: sat[0].satellite_id)
    tx_id, point, _ = _sole_entry(config.transmitters(), "transmitters",
                                  "experiment", lambda tx: tx[0])
    window = config.window()

    policy = config.policy() if "policy" in config.data else None
    plan = plan_experiment(point, (elements, spec), window,
                           overlap_threshold=exp["overlap_threshold"],
                           max_pulse=exp["max_pulse_s"],
                           policy=policy,
                           ground_altitude=config.ground_altitude(),
                           tx_id=tx_id)

    audit = safety_audit(plan, p_on_dbm=lb["p_on_dbm"],
                         damage_threshold_dbm=exp["damage_threshold_dbm"],
                         g_tx_dbi=lb["g_tx_dbi"], g_rx_dbi=lb["g_rx_dbi"],
                         polarization_db=lb["polarization_db"],
                         atmosphere=config.atmosphere("experiment"))
    band = clearance_band(spec.center_frequency, spec.bandwidth,
                          exp["clearance_n"])
    records = exclusion_records(plan)

    def sample_dict(s):
        return {"scan_line_index": s.scan_line_index,
                "sample_index": s.sample_index,
                "t": iso_utc(s.t),
                "boresight_deg": s.boresight_angle}

    write_json(out / "plan.json", prov, {
        "transmitter": {"id": tx_id, "lat": point.latitude,
                        "lon": point.longitude, "alt_m": point.altitude,
                        "kind": TransmitterKind.FLASHLIGHT.value},
        "satellite_id": plan.satellite_id,
        "radiometer": spec.name,
        "mode": plan.mode,
        "window": {"start": iso_utc(plan.window[0]),
                   "end": iso_utc(plan.window[1])},
        "max_pulse_s": plan.max_pulse,
        "overlap_threshold": plan.overlap_threshold,
        "clearance_band_hz": list(band),
        "pulses": [{
            "on_start": iso_utc(p.on_start),
            "on_end": iso_utc(p.on_end),
            "duration_s": p.duration,
            "target": sample_dict(p.target),
            "off_reference": sample_dict(p.off_reference),
            "overlap_fraction": p.overlap_fraction,
        } for p in plan.pulses],
        "diagnostics": plan.diagnostics,
        "audit": {
            "pass": audit.passed,
            "max_received_dbm": _finite_or_none(audit.max_received_dbm),
            "margin_db": _finite_or_none(audit.margin_db),
            "damage_threshold_dbm": audit.damage_threshold_dbm,
        },
        "checklist": list(plan.checklist),
    })

    write_csv(out / "pulses.csv", prov, _PULSE_FIELDS, (
        (tx_id, plan.satellite_id, iso_utc(p.on_start), iso_utc(p.on_end),
         f"{p.duration:.6f}", p.target.scan_line_index,
         p.target.sample_index, p.off_reference.scan_line_index,
         p.off_reference.sample_index, f"{p.overlap_fraction:.4f}")
        for p in plan.pulses))
    write_csv(out / "exclusions.csv", prov, _EXCLUSION_FIELDS, (
        (rec.satellite_id, rec.scan_line_index, rec.sample_index,
         iso_utc(rec.start), iso_utc(rec.end), rec.reason)
        for rec in records))

    print(f"experiment: {len(plan.pulses)} pulses, audit pass={audit.passed}"
          f" -> {out}")
    if not plan.pulses:
        print(f"warning: empty plan ({_empty_plan_reason(plan)})")
    return 0


def _empty_plan_reason(plan) -> str:
    """Why a plan has no pulses, from its diagnostics: no passes, or the
    reasons its passes were discarded for."""
    diag = plan.diagnostics
    considered = diag["passes_considered"]
    if not considered:
        return "no passes over the transmitter in the window"
    reasons = [f"{n} for {why}" for n, why in (
        (diag["discarded_overlap"],
         f"ON/OFF overlap below {plan.overlap_threshold}"),
        (diag["discarded_off_conflict"], "an OFF reference conflict")) if n]
    return (f"{considered} pass{'es' if considered > 1 else ''} considered, "
            f"all discarded: {', '.join(reasons)}")


def cmd_validate_tle(args) -> int:
    elements = load_tle_file(args.tle)
    print(f"{args.tle}: OK")
    print(f"  satellite  {elements.satellite_id} "
          f"(catalog {elements.catalog_number})")
    print(f"  epoch      {iso_utc(elements.epoch)}")
    print(f"  inclination {elements.inclination:.4f} deg, "
          f"raan {elements.raan:.4f} deg, e {elements.eccentricity:.7f}")
    print(f"  mean motion {elements.mean_motion:.8f} rev/day")
    print(f"  checksums  {'ok' if elements.element_set_checksum_ok else 'BAD'}")
    return 0


# --- argument parsing -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="darkspace",
        description="Spectrum coexistence toolkit for passive microwave "
                    "radiometers: dark-space geofencing, link budgets, "
                    "interference compliance, flashlight experiment plans.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario JSON")
        p.add_argument("--out-dir", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override config seed")

    p = sub.add_parser("darkspaces",
                       help="dark-space schedule and availability")
    common(p)
    p.add_argument("--policy", choices=["pixel", "scanline"], default=None)
    p.set_defaults(func=cmd_darkspaces)

    p = sub.add_parser("linkbudget", help="evaluate one link geometry")
    common(p)
    p.add_argument("--geometry", default="default",
                   help="name under linkbudget.geometries")
    p.set_defaults(func=cmd_linkbudget)

    p = sub.add_parser("itu-sim",
                       help="aggregate-interference compliance simulation")
    common(p)
    p.add_argument("--model", choices=["los", "two-ray"], default=None)
    p.add_argument("--gamma", type=float, default=None,
                   help="ground reflection coefficient (real part)")
    p.add_argument("--threshold", type=float, default=None,
                   help="compliance threshold, dBm/MHz")
    p.add_argument("--quantile", type=float, default=None)
    p.set_defaults(func=cmd_itu_sim)

    p = sub.add_parser("experiment", help="plan a flashlight campaign")
    common(p)
    p.add_argument("--policy", choices=["pixel", "scanline"], default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("validate-tle", help="parse and validate a TLE file")
    p.add_argument("tle", help="path to a TLE file")
    p.set_defaults(func=cmd_validate_tle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ComputeError, DarkspaceError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
