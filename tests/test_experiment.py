"""Flashlight planning, pairing, safety audit, exclusions."""
import dataclasses
import math
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

from darkspace.config import ScenarioConfig
from darkspace.errors import ConfigError, NegativeLowEdge
from darkspace.experiment import (MeasuredSample, PairingMode, Pulse,
                                  clearance_band, ellipse_overlap_fraction,
                                  exclusion_records, pair_measurements,
                                  plan_experiment, safety_audit)
from darkspace.geofence import dark_intervals
from darkspace.linkbudget import LossChain, total_loss_db
from darkspace.orbit import GroundPoint, propagate
from darkspace.radiometer import (BufferPolicy, PolicyKind, ScanLattice,
                                  pixel_footprint)
from darkspace.timeutil import add_seconds

from helpers import active_sample

CONFIGS = Path(__file__).parent.parent / "configs"


@pytest.fixture
def plan(leo_tle, atms):
    t_mark = add_seconds(leo_tle.epoch, 40 * 60)
    lat, lon, _ = propagate(leo_tle, t_mark).geodetic
    tx = GroundPoint(lat, lon, 20.0)
    window = (add_seconds(leo_tle.epoch, 30 * 60),
              add_seconds(leo_tle.epoch, 50 * 60))
    return plan_experiment(tx, (leo_tle, atms), window, tx_id="fl1")


def test_clearance_band_arithmetic():
    lo, hi = clearance_band(24.0e9, 0.2e9, 3)
    assert (lo, hi) == (23.4e9, 24.6e9)
    assert clearance_band(24.0e9, 0.2e9, 0) == (24.0e9, 24.0e9)
    assert clearance_band(24.0e9, 0.2e9, 1) == (23.8e9, 24.2e9)


def test_clearance_band_low_edge():
    with pytest.raises(NegativeLowEdge):
        clearance_band(1.0e9, 0.6e9, 2)


def test_plan_pulses_bounded(plan, atms):
    assert plan.mode == "pixel"
    assert len(plan.pulses) > 0
    for p in plan.pulses:
        assert p.duration <= 0.1 + 1e-9
        assert p.overlap_fraction >= plan.overlap_threshold


def test_plan_pulses_disjoint(plan):
    for a, b in zip(plan.pulses, plan.pulses[1:]):
        assert a.on_end <= b.on_start


def test_pulses_inside_dark_intervals(plan, leo_tle, atms):
    sched = dark_intervals(plan.tx, [(leo_tle, atms)], plan.window,
                           plan.policy)
    for p in plan.pulses:
        assert any(iv.start <= p.on_start and p.on_end <= iv.end
                   for iv in sched.intervals)


def test_off_reference_next_line(plan, atms):
    for p in plan.pulses:
        assert (p.off_reference.scan_line_index
                == p.target.scan_line_index + 1)
        assert p.off_reference.sample_index == p.target.sample_index
        dt = (p.off_reference.t - p.target.t).total_seconds()
        assert dt == pytest.approx(atms.scan_period, abs=1e-6)


def test_empty_window_gives_empty_plan(leo_tle, atms):
    t_mark = add_seconds(leo_tle.epoch, 40 * 60)
    lat, lon, _ = propagate(leo_tle, t_mark).geodetic
    antipode = GroundPoint(-lat, ((lon + 360.0) % 360.0) - 180.0, 0.0)
    window = (add_seconds(leo_tle.epoch, 35 * 60),
              add_seconds(leo_tle.epoch, 45 * 60))
    plan = plan_experiment(antipode, (leo_tle, atms), window)
    assert plan.pulses == ()


@pytest.mark.parametrize("max_pulse", [0.0, -1.0, float("nan")])
def test_plan_rejects_pulse_cap_not_above_zero(leo_tle, atms, amsua,
                                               max_pulse):
    """A pulse cap that is not > 0 would plan pulses that end before they
    start; plan_experiment refuses it in both modes."""
    window = (add_seconds(leo_tle.epoch, 35 * 60),
              add_seconds(leo_tle.epoch, 45 * 60))
    for spec in (atms, amsua):
        with pytest.raises(ValueError, match="max_pulse"):
            plan_experiment(GroundPoint(0.0, 0.0, 0.0), (leo_tle, spec),
                            window, max_pulse=max_pulse)


def test_scanline_plan_for_unlocked(leo_tle, amsua):
    t_mark = add_seconds(leo_tle.epoch, 40 * 60)
    lat, lon, _ = propagate(leo_tle, t_mark).geodetic
    tx = GroundPoint(lat, lon, 20.0)
    window = (add_seconds(leo_tle.epoch, 35 * 60),
              add_seconds(leo_tle.epoch, 45 * 60))
    plan = plan_experiment(tx, (leo_tle, amsua), window)
    assert plan.mode == "scanline"
    for p in plan.pulses:
        assert p.duration <= amsua.scan_period + 1e-9


def _scanline_plan(leo_tle, amsua, start, temporal_pad):
    """A scan-line plan for a flashlight under the pass at epoch + 40 min,
    keeping every pass whatever its ON/OFF overlap."""
    t_mark = add_seconds(leo_tle.epoch, 40 * 60)
    lat, lon, _ = propagate(leo_tle, t_mark).geodetic
    window = (start, add_seconds(leo_tle.epoch, 45 * 60))
    return plan_experiment(
        GroundPoint(lat, lon, 20.0), (leo_tle, amsua), window,
        overlap_threshold=0.0,
        policy=BufferPolicy(PolicyKind.SCAN_LINE, 2.0, temporal_pad))


def _pulse_lines(plan, pulse):
    """The scan lines a pulse transmits into."""
    lattice = ScanLattice(plan.spec, plan.elements.epoch)
    lines, _ = lattice.dwells(lattice.offset(pulse.on_start),
                              lattice.offset(pulse.on_end))
    return set(lines.tolist())


def test_scanline_exclusions_name_every_line_a_pulse_touches(leo_tle,
                                                             amsua):
    """A padded pulse that starts in the line before its target line
    excludes every sample of both lines."""
    plan = _scanline_plan(leo_tle, amsua,
                          add_seconds(leo_tle.epoch, 35 * 60), 1.0)
    assert any(len(_pulse_lines(plan, p)) > 1 for p in plan.pulses)
    expected = {(line, i) for p in plan.pulses
                for line in _pulse_lines(plan, p)
                for i in range(amsua.samples_per_scan)}
    assert {(r.scan_line_index, r.sample_index)
            for r in exclusion_records(plan)} == expected


def test_scanline_pulse_never_transmits_into_its_off_line(leo_tle, amsua):
    """A window that starts 3 s into the target line cuts a pulse that
    runs on into the next line, its own OFF reference: the pulse is
    discarded as an OFF conflict."""
    whole = _scanline_plan(leo_tle, amsua,
                           add_seconds(leo_tle.epoch, 35 * 60), 0.0)
    line = whole.pulses[0].target.scan_line_index
    lattice = ScanLattice(amsua, leo_tle.epoch)
    plan = _scanline_plan(
        leo_tle, amsua, add_seconds(leo_tle.epoch, lattice.tau(line) + 3.0),
        0.0)
    assert plan.diagnostics["discarded_off_conflict"] >= 1
    for p in plan.pulses:
        assert p.off_reference.scan_line_index not in _pulse_lines(plan, p)


def test_pairing_same_radiometer(plan, atms):
    samples = []
    for p in plan.pulses:
        samples.append(MeasuredSample(plan.satellite_id,
                                      p.target.scan_line_index,
                                      p.target.sample_index, 2.0e-12))
        samples.append(MeasuredSample(plan.satellite_id,
                                      p.off_reference.scan_line_index,
                                      p.off_reference.sample_index, 1.0e-12))
    result = pair_measurements(plan, samples,
                               PairingMode.SAME_RADIOMETER_ADJACENT_LINES)
    assert len(result.pairs) == len(plan.pulses)
    assert result.unmatched == ()
    for pair in result.pairs:
        assert pair.delta_t == pytest.approx(atms.scan_period)
        assert pair.loss_correction == 0.0
        assert pair.on_sample_power > pair.off_sample_power


def test_pairing_missing_off_flagged(plan):
    p = plan.pulses[0]
    samples = [MeasuredSample(plan.satellite_id, p.target.scan_line_index,
                              p.target.sample_index, 2.0e-12)]
    result = pair_measurements(plan, samples,
                               PairingMode.SAME_RADIOMETER_ADJACENT_LINES)
    assert result.pairs == ()
    assert result.unmatched_count == len(plan.pulses)


def test_pairing_cross_satellite_symmetric(plan):
    chain = total_loss_db(-184.0, -10.9, -3.0, 15.0, 30.0)
    t = plan.window[0]
    center = plan.tx
    on = MeasuredSample(plan.satellite_id, 10, 5, 2.0e-12, t=t,
                        center=center, loss=chain)
    off = MeasuredSample("OTHERSAT", 11, 5, 1.0e-12,
                         t=add_seconds(t, 30.0), center=center, loss=chain)
    result = pair_measurements(plan, [on, off], PairingMode.CROSS_SATELLITE)
    assert len(result.pairs) == 1
    assert result.pairs[0].loss_correction == 0.0
    assert result.pairs[0].delta_t == pytest.approx(30.0)


def test_pairing_cross_satellite_needs_loss(plan):
    t = plan.window[0]
    on = MeasuredSample(plan.satellite_id, 10, 5, 2.0e-12, t=t,
                        center=plan.tx)
    off = MeasuredSample("OTHERSAT", 11, 5, 1.0e-12, t=t,
                         center=plan.tx)
    with pytest.raises(ConfigError):
        pair_measurements(plan, [on, off], PairingMode.CROSS_SATELLITE)


def test_safety_audit_anchor(plan):
    """10 W through roughly -150 dB of chain is far below a -30 dBm limit."""
    report = safety_audit(plan, p_on_dbm=40.0, damage_threshold_dbm=-30.0)
    assert report.passed
    assert report.max_received_dbm < -90.0
    assert report.margin_db == pytest.approx(
        report.damage_threshold_dbm - report.max_received_dbm)


def test_safety_audit_monotone(plan):
    weak = safety_audit(plan, p_on_dbm=40.0, damage_threshold_dbm=-30.0)
    strong = safety_audit(plan, p_on_dbm=120.0, damage_threshold_dbm=-30.0)
    assert strong.max_received_dbm == pytest.approx(
        weak.max_received_dbm + 80.0, abs=1e-9)
    assert not strong.passed


def test_exclusions_cover_pulses(plan, atms):
    records = exclusion_records(plan)
    assert records
    for p in plan.pulses:
        covered = [r for r in records
                   if r.start <= p.on_start and p.on_end <= r.end]
        spanning = [r for r in records
                    if r.start < p.on_end and p.on_start < r.end]
        union_start = min(r.start for r in spanning)
        union_end = max(r.end for r in spanning)
        assert union_start <= p.on_start and p.on_end <= union_end


def test_exclusions_never_touch_off_pixels(plan):
    records = {(r.scan_line_index, r.sample_index)
               for r in exclusion_records(plan)}
    for p in plan.pulses:
        off = (p.off_reference.scan_line_index,
               p.off_reference.sample_index)
        assert off not in records


@pytest.fixture
def boundary_plan(plan, atms):
    """The plan with its pulses replaced by pulses that start and end at
    the whole microsecond just before or just after a dwell boundary.
    ATMS dwell boundaries are 1/36 s apart, so their microsecond phases
    run through the nine ninths; k steps through all of them."""
    epoch = plan.elements.epoch
    line = plan.pulses[0].target.scan_line_index
    pulses = []
    for k in range(18):
        start = (line + 2 * k) * atms.scan_period + k * atms.sample_dwell
        end = start + (1 + k % 4) * atms.sample_dwell
        on_start = epoch + timedelta(microseconds=math.floor(start * 1e6)
                                     + (k // 9))
        on_end = epoch + timedelta(microseconds=math.floor(end * 1e6)
                                   + (k % 2))
        target = active_sample(atms, on_start, epoch)
        pulses.append(Pulse(on_start=on_start, on_end=on_end, target=target,
                            off_reference=target, overlap_fraction=1.0))
    return dataclasses.replace(plan, pulses=tuple(pulses))


def test_exclusions_overlap_pulses(plan):
    """No exclusion record is a dwell the pulse only grazes: quantising
    a pulse start to the microsecond must not put it in the previous
    dwell."""
    for r in exclusion_records(plan):
        overlap = max((min(r.end, p.on_end) - max(r.start, p.on_start))
                      for p in plan.pulses)
        assert overlap > timedelta(microseconds=1)


@pytest.mark.parametrize("which", ["plan", "boundary_plan"])
def test_exclusions_are_the_dwells_pulses_touch(which, request, atms):
    """Every dwell a pulse's interior touches is excluded, and no other.

    A pulse [a, b) transmits during the whole microseconds a, ..., b - 1
    us, and ScanLattice.index names the dwell active in each; those dwells
    are consecutive, so they run from the one active at a to the one
    active at b - 1 us.
    """
    plan = request.getfixturevalue(which)
    epoch = plan.elements.epoch
    n = atms.samples_per_scan
    touched = set()
    for p in plan.pulses:
        first = active_sample(atms, p.on_start, epoch)
        last = active_sample(atms, p.on_end - timedelta(microseconds=1), epoch)
        for key in range(first.scan_line_index * n + first.sample_index,
                         last.scan_line_index * n + last.sample_index + 1):
            touched.add(divmod(key, n))
    excluded = [(r.scan_line_index, r.sample_index)
                for r in exclusion_records(plan)]
    assert len(excluded) == len(set(excluded))
    assert set(excluded) == touched


def test_pulse_samples_start_at_their_dwell(plan, atms):
    """ON and OFF samples carry the start of the dwell they name, counted
    from the epoch (the OFF one is not the ON start plus a scan period)."""
    for p in plan.pulses:
        for s in (p.target, p.off_reference):
            assert active_sample(atms, s.t, plan.elements.epoch) == s


def test_exclusion_count_matches_single_pixel_pulses(leo_tle, atms):
    """Pulses no longer than a dwell each contaminate exactly one pixel."""
    t_mark = add_seconds(leo_tle.epoch, 40 * 60)
    lat, lon, _ = propagate(leo_tle, t_mark).geodetic
    tx = GroundPoint(lat, lon, 20.0)
    window = (add_seconds(leo_tle.epoch, 30 * 60),
              add_seconds(leo_tle.epoch, 50 * 60))
    plan = plan_experiment(tx, (leo_tle, atms), window,
                           max_pulse=atms.sample_dwell * 0.5)
    records = exclusion_records(plan)
    # Every pulse is inside one dwell or straddles two at most.
    assert len(plan.pulses) <= len(records) <= 2 * len(plan.pulses)


def test_plan_deterministic(plan, leo_tle, atms):
    assert plan.tx_id == "fl1"
    again = plan_experiment(plan.tx, (leo_tle, atms), plan.window,
                            tx_id=plan.tx_id)
    assert again == plan


def test_overlap_fraction_self_is_one(plan, leo_tle, atms):
    p = plan.pulses[0]
    fp = pixel_footprint(propagate(leo_tle, p.target.t), p.target, atms)
    assert ellipse_overlap_fraction(fp, fp) == 1.0


@pytest.mark.parametrize("which", ["plan", "boundary_plan"])
def test_exclusion_ends_are_the_next_dwell_start(which, request, atms):
    """A record ends where its dwell ends counted from the epoch, so a
    record and the next dwell's record share their microsecond; adding a
    dwell to the rounded start can land 1 us after it."""
    plan = request.getfixturevalue(which)
    epoch = plan.elements.epoch
    records = exclusion_records(plan)
    starts = {(r.scan_line_index, r.sample_index): r.start for r in records}
    for r in records:
        tau = ((r.scan_line_index * atms.scan_period)
               + (r.sample_index + 1) * atms.sample_dwell)
        assert r.end == add_seconds(epoch, tau)
        following = starts.get((r.scan_line_index, r.sample_index + 1))
        assert following is None or following == r.end


@pytest.mark.parametrize("name", ["example_scenario", "example_scanline"])
def test_overlap_fractions_match_the_written_instants(name):
    """The planner footprints each ON dwell and its OFF reference at the
    lattice's float dwell starts; propagating to the whole-microsecond
    instants the written pulse names gives the same fractions, for every
    pass the example plans when no overlap is too small."""
    config = ScenarioConfig.load(CONFIGS / f"{name}.json")
    [(elements, spec)] = config.satellites()
    [(tx_id, point, _)] = config.transmitters()
    alt = config.ground_altitude()
    plan = plan_experiment(
        point, (elements, spec), config.window(), overlap_threshold=0.0,
        max_pulse=config.experiment_params()["max_pulse_s"],
        policy=config.policy(), ground_altitude=alt, tx_id=tx_id)
    assert plan.pulses
    for p in plan.pulses:
        on, off = (pixel_footprint(propagate(elements, s.t), s, spec, alt)
                   for s in (p.target, p.off_reference))
        assert ellipse_overlap_fraction(on, off) == p.overlap_fraction
