"""Tests of the benchmark itself: tracing arithmetic, wrappers, checks.

Run from the repository root: python3 -m pytest bench/tests -q
"""
import json
import random
import shutil
from pathlib import Path

import numpy as np
import pytest

import checks
import harness
import tracing
import workloads
from darkspace import cli
from darkspace.config import ScenarioConfig

ROOT = Path(__file__).resolve().parents[2]


# --- tracing ----------------------------------------------------------------


def test_self_times_on_a_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S(1, 0, "cli.darkspaces", 0.0, 10.0),
        S(2, 1, "geofence.dark_intervals", 1.0, 7.0),
        S(3, 2, "geofence.margins", 2.0, 3.0),
        S(4, 2, "geofence.margins", 4.0, 6.5),
        S(5, 4, "radiometer.footprints", 5.0, 6.0),
        S(6, 1, "config", 8.0, 9.0),
        S(7, 0, "config", 11.0, 11.5),  # set-up, outside the subcommand
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 3.0, 2: 2.5, 3: 1.0, 4: 1.5, 5: 1.0,
                                   6: 1.0, 7: 0.5})
    # Self times nested in the subcommand add up to its duration.
    assert tracing.command_self_seconds(spans) == pytest.approx(10.0)

    agg = tracing.aggregate([spans])
    assert agg["geofence.margins"].calls == 2
    assert agg["geofence.margins"].self_s == pytest.approx(2.5)
    assert agg["radiometer.footprints@geofence.margins"].calls == 1
    assert agg["config"].self_s == pytest.approx(1.5)


def test_overlapping_children_are_counted_once():
    S = tracing.Span
    spans = [S(1, 0, "a", 0.0, 4.0), S(2, 1, "b", 1.0, 3.0),
             S(3, 1, "c", 2.0, 3.5)]
    assert tracing.self_times(spans)[1] == pytest.approx(1.5)


def _raw_targets():
    raw = {}
    for _, locations, _ in tracing.TARGETS:
        for module, qualname in locations:
            found = tracing._resolve(module, qualname)
            assert found is not None, f"{module}.{qualname} not found"
            owner, attr, value = found
            raw[(id(owner), attr)] = (owner, attr, value)
    return raw


def test_wrappers_restore_the_original_functions():
    before = _raw_targets()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracer.missing
        for owner, attr, value in before.values():
            assert vars(owner)[attr] is not value, attr
        # The classmethod stays a classmethod.
        assert isinstance(vars(ScenarioConfig)["load"], classmethod)
    finally:
        tracer.restore()
    for owner, attr, value in before.values():
        assert vars(owner)[attr] is value, attr


def test_spans_record_work_and_errors():
    from darkspace.orbit import frames
    tracer = tracing.Tracer()
    tracer.install()
    try:
        frames.ecef_to_geodetic(np.full((3, 5), 7.0e6))
        with pytest.raises(Exception):
            frames.ecef_to_geodetic("not an array")
    finally:
        tracer.restore()
    ok, failed = tracer.spans
    assert (ok.name, ok.work, ok.error) == ("orbit.geodetic", {"points": 5},
                                           False)
    assert failed.error


def test_a_missing_target_drops_its_metrics():
    targets = tracing.TARGETS + (
        ("gone", (("darkspace.geofence", "no_such_function"),), None),)
    tracer = tracing.Tracer()
    tracer.install(targets)
    tracer.restore()
    assert tracer.missing == {"gone"}

    missing = {"geofence.bisect"}
    metrics = tracing.layer_metrics(tracing.aggregate([[]], missing))
    assert "geofence.bisect.calls" not in metrics
    assert "geofence.bisect.self_s" not in metrics
    assert metrics["geofence.margin_evals"] == 0


# --- output checks ------------------------------------------------------------


@pytest.fixture(scope="module")
def example_outputs(tmp_path_factory):
    """darkspaces and experiment on the checked-in 2-hour example."""
    base = tmp_path_factory.mktemp("example")
    config = base / "example.json"
    shutil.copy(ROOT / "configs" / "example_scenario.json", config)
    shutil.copy(ROOT / "configs" / "noaa21_like.tle", base)
    for command in ("darkspaces", "experiment"):
        assert cli.main([command, "--config", str(config),
                         "--out-dir", str(base / command)]) == 0
    return base, config


def _copy(src: Path, dst: Path) -> Path:
    shutil.copytree(src, dst)
    return dst


def _flip_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def _drop_interval(schedule: dict, index: int) -> dict:
    tx_id = next(iter(schedule))
    ivs = list(schedule[tx_id])
    del ivs[index]
    return {tx_id: ivs}


def test_identity_check_catches_a_flipped_byte(example_outputs, tmp_path):
    base, _ = example_outputs
    real = checks.file_digests(base / "darkspaces")
    copy = _copy(base / "darkspaces", tmp_path / "copy")
    assert checks.check_identical(real, checks.file_digests(copy)) is None
    _flip_byte(copy / "availability.json", 40)
    assert checks.check_identical(real, checks.file_digests(copy))


def test_digest_check_catches_a_flipped_byte(example_outputs, tmp_path):
    base, _ = example_outputs
    recorded = checks.file_digests(base / "darkspaces")
    copy = _copy(base / "darkspaces", tmp_path / "copy")
    assert checks.check_digests(copy, recorded) is None
    _flip_byte(copy / "schedule.csv", 200)
    assert "schedule.csv" in checks.check_digests(copy, recorded)
    assert checks.check_digests(copy, None)


def test_recorded_digests_cover_every_suburban_seed():
    recorded = json.loads((ROOT / "bench" / "digests.json").read_text())
    assert set(recorded) == {str(s) for s in workloads.SUBURBAN_SEEDS}
    for files in recorded.values():
        assert set(files) == set(checks.ITU_FILES)


def test_oracle_check_catches_a_dropped_interval(example_outputs):
    base, config_path = example_outputs
    config = ScenarioConfig.load(config_path)
    schedule = checks.read_schedule(base / "darkspaces")
    passes = checks.sample_passes(schedule, config.window(),
                                  random.Random(0), 3)
    assert len(passes) == 1
    tx_id, lo, hi = passes[0]
    assert checks.check_oracle(config, schedule, tx_id, lo, hi) is None
    dropped = _drop_interval(schedule, 3)
    reason = checks.check_oracle(config, dropped, tx_id, lo, hi)
    assert "engine intervals" in reason


def test_pulse_check_catches_a_dropped_interval_and_a_flipped_byte(
        example_outputs, tmp_path):
    base, config_path = example_outputs
    schedule = checks.read_schedule(base / "darkspaces")
    # One transmitter and one satellite: darkspaces' schedule is the one
    # experiment plans against.
    assert checks.engine_schedule(ScenarioConfig.load(config_path)) == \
        schedule
    assert checks.check_pulses(base / "experiment", schedule, 0.1) is None

    # Dropping the interval the first pulse sits in.
    with open(base / "experiment" / "pulses.csv") as fh:
        first = [ln for ln in fh if ln[0] != "#"][1].split(",")
    on = checks._parse_utc(first[2])
    index = next(i for i, (s, e) in enumerate(next(iter(schedule.values())))
                 if s <= on <= e)
    reason = checks.check_pulses(base / "experiment",
                                 _drop_interval(schedule, index), 0.1)
    assert "outside every dark interval" in reason

    # Flipping a bit in the first pulse's end time (the tenths of a second)
    # moves it out of its interval.
    copy = _copy(base / "experiment", tmp_path / "copy")
    text = (copy / "pulses.csv").read_text()
    offset = text.index(first[3]) + first[3].index(".") + 1
    _flip_byte(copy / "pulses.csv", offset)
    assert checks.check_pulses(copy, schedule, 0.1)


def test_a_check_that_raises_counts_as_one_failure(example_outputs,
                                                   tmp_path):
    base, _ = example_outputs
    copy = _copy(base / "darkspaces", tmp_path / "copy")
    _flip_byte(copy / "schedule.jsonl", 0)  # no longer JSON
    runner = harness.Runner(ROOT, tmp_path)
    runner.check("schedule", checks.read_schedule, copy)
    assert runner.attempted == 1 and len(runner.failures) == 1


# --- workloads ------------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.NAMES)
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    a = workloads.build(name, 5, ROOT, tmp_path / "a")
    b = workloads.build(name, 5, ROOT, tmp_path / "b")
    c = workloads.build(name, 6, ROOT, tmp_path / "c")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    same = [(tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f)
            .read_bytes() for f in files]
    assert all(same)
    assert [s.command for s in a.steps] == [s.command for s in c.steps]
    for step in a.steps + b.steps:
        cfg = ScenarioConfig.load(step.config)
        cfg.satellites()
        cfg.transmitters()
    assert any((tmp_path / "a" / f).read_bytes()
               != (tmp_path / "c" / f).read_bytes() for f in files)


def test_synthetic_element_set_is_valid_and_new():
    from darkspace.orbit import parse_tle
    base = (ROOT / "configs" / "noaa21_like.tle").read_text()
    text = workloads.synthetic_tle(random.Random(1), base)
    a, b = parse_tle(base), parse_tle(text)
    assert b.element_set_checksum_ok
    assert (b.catalog_number, b.raan) != (a.catalog_number, a.raan)
    assert (b.epoch, b.inclination, b.mean_motion) == (
        a.epoch, a.inclination, a.mean_motion)
