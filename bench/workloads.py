"""Benchmark workloads: scenario inputs generated from a seed.

Every input derives from ``configs/example_scenario.json`` and
``configs/noaa21_like.tle``; nothing is downloaded.  The program sees only
the files written here.  Each workload is a fixed sequence of CLI
subcommands, run one after another, each in a fresh interpreter.

A workload has one *primary* scenario, the one it exists to measure.  The
benchmark reports ``darkspaces_s``, ``experiment_s`` and ``itu_sim_s`` on
every workload, so a subcommand a workload does not exist for runs as a
*companion* on the example scenario.  Companion steps are left out of the
traced run and of ``peak_rss_mb``; see README.md.
"""
from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

from darkspace.orbit import format_tle, parse_tle

EXAMPLE_CONFIG = Path("configs/example_scenario.json")
EXAMPLE_TLE = Path("configs/noaa21_like.tle")

NAMES = ("week-pixel", "suburban-itu", "fleet-scanline")

#: Config seeds for suburban-itu.  Its outputs are checked against sha256
#: digests recorded for each of these (digests.json), so the workload seed
#: picks one of them instead of seeding the deployment directly.
SUBURBAN_SEEDS = (20230425, 11, 4242, 77003, 91517, 123456, 600613, 880021)

#: Window starts are drawn up to this many seconds after a fixed instant,
#: so seeds differ in inputs but not in the amount of work.
_START_JITTER_S = 600
_WINDOW_ORIGIN = datetime(2023, 4, 24, tzinfo=timezone.utc)

WEEK_PIXEL_WINDOW = timedelta(days=2)
FLEET_WINDOW = timedelta(hours=12)
FLEET_EXPERIMENT_WINDOW = timedelta(days=3)
FLEET_SITES = 24

#: Companion darkspaces and experiment widen the example's 2-hour window to
#: these 6 hours (the example pass is at 04:22), so that each takes about
#: half a second rather than a noisy tenth.
_COMPANION_WINDOW = {"start": "2023-04-25T00:00:00Z",
                     "end": "2023-04-25T06:00:00Z"}


#: Subcommands that take well under a second run this many times in each
#: repetition, so that their per-run figure rests on as many samples as
#: the long ones.
SHORT_REPEAT = 5


@dataclass(frozen=True)
class Step:
    """``darkspace <command> --config <config>``, run ``repeat`` times in
    each repetition of the workload."""
    command: str
    config: Path
    primary: bool
    repeat: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple

    def step(self, command: str) -> Step:
        return next(s for s in self.steps if s.command == command)


def _iso(t: datetime) -> str:
    return t.strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse(text: str) -> datetime:
    return datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(
        tzinfo=timezone.utc)


def _window(rng: random.Random, length: timedelta) -> dict:
    start = _WINDOW_ORIGIN + timedelta(seconds=rng.randrange(_START_JITTER_S))
    return {"start": _iso(start), "end": _iso(start + length)}


def _write_config(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def synthetic_tle(rng: random.Random, base_text: str) -> str:
    """A second element set: the base orbit in another plane and phase.

    The plane is turned by about 90 degrees and the phase by about 180;
    the seed draws the catalog number and up to 2 degrees of each, so the
    passes over the fleet, and with them the work, barely change between
    seeds.  Everything else (epoch, inclination, mean motion, drag) is the
    base set's.
    """
    line1, line2 = [ln for ln in base_text.splitlines() if ln.strip()][-2:]
    base = parse_tle(base_text)
    catalog = f"{rng.randrange(90000, 99999):05d}"
    raan = (base.raan + 90.0 + rng.uniform(-2.0, 2.0)) % 360.0
    mean_anomaly = (base.mean_anomaly + 180.0 + rng.uniform(-2.0, 2.0)) % 360.0
    body1 = line1[:2] + catalog + line1[7:68]
    body2 = (line2[:2] + catalog + line2[7:17] + f"{raan:8.4f}"
             + line2[25:43] + f"{mean_anomaly:8.4f}" + line2[51:68])
    text = format_tle(f"SYN {catalog}", body1, body2)
    parse_tle(text)
    return text


def _example(root: Path) -> dict:
    return json.loads((root / EXAMPLE_CONFIG).read_text())


def build(name: str, seed: int, root: Path, inputs: Path) -> Workload:
    """Write the workload's inputs for this seed under ``inputs``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    tle_text = (root / EXAMPLE_TLE).read_text()
    (inputs / EXAMPLE_TLE.name).write_text(tle_text)
    example = _example(root)

    if name == "suburban-itu":
        config_seed = SUBURBAN_SEEDS[seed % len(SUBURBAN_SEEDS)]
        itu = copy.deepcopy(example)
        itu["seed"] = config_seed
        itu["itu"]["deployment"]["scenario"] = "suburban"
        itu["itu"]["model"] = "two-ray"
        companion = dict(example, seed=config_seed, window=_COMPANION_WINDOW)
        itu_path = _write_config(inputs / "suburban.json", itu)
        comp_path = _write_config(inputs / "example_6h.json", companion)
        return Workload(name, (
            Step("itu-sim", itu_path, True),
            Step("darkspaces", comp_path, False, SHORT_REPEAT),
            Step("experiment", comp_path, False, SHORT_REPEAT)))

    companion = dict(example, seed=rng.randrange(2 ** 31))
    comp_path = _write_config(inputs / "example.json", companion)

    if name == "week-pixel":
        cfg = copy.deepcopy(example)
        cfg["seed"] = rng.randrange(2 ** 31)
        cfg["window"] = _window(rng, WEEK_PIXEL_WINDOW)
        cfg["policy"]["kind"] = "pixel"
        path = _write_config(inputs / "week_pixel.json", cfg)
        return Workload(name, (Step("darkspaces", path, True),
                               Step("experiment", path, True),
                               Step("itu-sim", comp_path, False)))

    # fleet-scanline
    (inputs / "synthetic.tle").write_text(synthetic_tle(rng, tle_text))
    # One site per latitude band, so that the fleet's passes, which depend
    # mostly on latitude, add up to the same work for every seed.
    sites = [example["transmitters"][0]]
    for i in range(FLEET_SITES):
        sites.append({"id": f"site-{i:02d}",
                      "lat": round(36.0 + (i + rng.random()) * 10.0
                                   / FLEET_SITES, 4),
                      "lon": round(rng.uniform(-124.0, -112.0), 4),
                      "alt_m": round(rng.uniform(0.0, 1500.0), 1),
                      "antenna_height_m": 2.0})
    fleet = copy.deepcopy(example)
    fleet["seed"] = rng.randrange(2 ** 31)
    window = _window(rng, FLEET_WINDOW)
    fleet["window"] = window
    fleet["policy"]["kind"] = "scanline"
    fleet["satellites"] = [{"tle": EXAMPLE_TLE.name, "preset": "amsua"},
                           {"tle": "synthetic.tle", "preset": "amsua"}]
    fleet["transmitters"] = sites
    # experiment plans for satellites[0] and transmitters[0] only, so its
    # config names exactly those.  One site takes far less time than the
    # fleet, so it plans over a longer window.
    exp = copy.deepcopy(fleet)
    exp["satellites"] = fleet["satellites"][:1]
    exp["transmitters"] = sites[:1]
    end = _parse(window["start"]) + FLEET_EXPERIMENT_WINDOW
    exp["window"] = {"start": window["start"], "end": _iso(end)}
    fleet_path = _write_config(inputs / "fleet.json", fleet)
    exp_path = _write_config(inputs / "fleet_experiment.json", exp)
    return Workload(name, (Step("darkspaces", fleet_path, True),
                           Step("experiment", exp_path, True, 2),
                           Step("itu-sim", comp_path, False)))
