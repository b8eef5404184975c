"""Dark-interval engine vs oracle, scheduling properties, availability."""
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from darkspace import geofence
from darkspace.config import ScenarioConfig
from darkspace.errors import (EmptyConstellation, NotPhaseLocked,
                              WindowTooLarge)
from darkspace.geofence import (SCHEDULE_FIELDS, availability,
                                brute_force_oracle, dark_intervals,
                                write_schedule_csv, write_schedule_jsonl)
from darkspace.orbit import GroundPoint, frames, propagate
from darkspace.radiometer import (BufferPolicy, PolicyKind, ScanLattice,
                                  load_preset)
from darkspace.timeutil import add_seconds

from helpers import (EPOCH, random_leo_elements, schedules_match,
                     transmitter_near_track)

EXAMPLE_CONFIG = (Path(__file__).parent.parent / "configs"
                  / "example_scenario.json")

PIXEL = BufferPolicy(PolicyKind.PIXEL_LEVEL, 2.0)
SCANLINE = BufferPolicy(PolicyKind.SCAN_LINE, 2.0)


@pytest.fixture
def pass_setup(leo_tle, atms):
    """A transmitter directly under a pass, with a 20-minute window."""
    t_mark = add_seconds(leo_tle.epoch, 40 * 60)
    lat, lon, _ = propagate(leo_tle, t_mark).geodetic
    tx = GroundPoint(lat, lon, 20.0)
    window = (add_seconds(leo_tle.epoch, 30 * 60),
              add_seconds(leo_tle.epoch, 50 * 60))
    return tx, [(leo_tle, atms)], window


def test_engine_matches_oracle_on_pass(pass_setup):
    tx, sats, window = pass_setup
    engine = dark_intervals(tx, sats, window, PIXEL)
    oracle = brute_force_oracle(tx, sats, window, PIXEL, dt=0.005)
    assert len(engine.intervals) > 0
    ok, detail = schedules_match(engine, oracle)
    assert ok, detail


def test_engine_matches_oracle_scanline(pass_setup):
    tx, sats, window = pass_setup
    engine = dark_intervals(tx, sats, window, SCANLINE)
    oracle = brute_force_oracle(tx, sats, window, SCANLINE, dt=0.05)
    ok, detail = schedules_match(engine, oracle, tol_s=0.05)
    assert ok, detail


def test_no_visibility_means_empty(leo_tle, atms):
    """Transmitter on the opposite side of the Earth from the pass."""
    t_mark = add_seconds(leo_tle.epoch, 40 * 60)
    lat, lon, _ = propagate(leo_tle, t_mark).geodetic
    antipode = GroundPoint(-lat, ((lon + 360.0) % 360.0) - 180.0, 0.0)
    window = (add_seconds(leo_tle.epoch, 35 * 60),
              add_seconds(leo_tle.epoch, 45 * 60))
    sched = dark_intervals(antipode, [(leo_tle, atms)], window, PIXEL)
    assert sched.intervals == ()
    rep = availability(sched)
    assert rep.white_fraction == 1.0
    assert rep.white_to_dark_ratio == float("inf")


def test_interval_durations_bounded(pass_setup):
    tx, sats, window = pass_setup
    sched = dark_intervals(tx, sats, window, PIXEL)
    for iv in sched.intervals:
        assert iv.duration <= 1.0
    # Typical duration is on the order of a hundred milliseconds.
    durations = sorted(iv.duration for iv in sched.intervals)
    assert durations[len(durations) // 2] < 0.6


def test_scanline_superset_of_pixel(pass_setup):
    tx, sats, window = pass_setup
    px = dark_intervals(tx, sats, window, PIXEL)
    sl = dark_intervals(tx, sats, window, SCANLINE)
    for iv in px.intervals:
        assert any(o.start <= iv.start and iv.end <= o.end
                   for o in sl.intervals), iv


def test_scanline_keeps_line_straddling_window_start():
    """A window that starts inside a dark scan line, after its last dark
    pixel, opens dark at offset 0 on that line under the scan-line policy,
    as the oracle does; the pixel-level schedule has nothing on it."""
    config = ScenarioConfig.load(EXAMPLE_CONFIG)
    (elements, atms), = config.satellites()
    _, tx, _ = config.transmitters()[0]
    start, end = config.window()
    sats = [(elements, atms)]
    line = dark_intervals(tx, sats, (start, end),
                          SCANLINE).intervals[0].scan_line_index
    last = [iv for iv in dark_intervals(tx, sats, (start, end),
                                        PIXEL).intervals
            if iv.scan_line_index == line][-1]
    window = (last.end + timedelta(milliseconds=1), end)
    for sched in (dark_intervals(tx, sats, window, SCANLINE),
                  brute_force_oracle(tx, sats, window, SCANLINE, dt=0.05)):
        first = sched.intervals[0]
        assert (first.start, first.scan_line_index) == (window[0], line)
    pixel = dark_intervals(tx, sats, window, PIXEL).intervals
    assert pixel and all(iv.scan_line_index != line for iv in pixel)

    # The same for a scanner that is not phase locked, 0.9 of a line in.
    amsua = load_preset("amsua")
    sats = [(elements, amsua)]
    line = dark_intervals(tx, sats, (start, end),
                          SCANLINE).intervals[0].scan_line_index
    window = (add_seconds(elements.epoch, ScanLattice(
        amsua, elements.epoch).tau(line + 0.9)), end)
    first = dark_intervals(tx, sats, window, SCANLINE).intervals[0]
    assert (first.start, first.scan_line_index) == (window[0], line)


def test_buffer_monotonicity(pass_setup):
    tx, sats, window = pass_setup
    tight = dark_intervals(tx, sats, window,
                           BufferPolicy(PolicyKind.PIXEL_LEVEL, 1.0))
    loose = dark_intervals(tx, sats, window,
                           BufferPolicy(PolicyKind.PIXEL_LEVEL, 2.5))
    assert loose.total_dark_seconds() >= tight.total_dark_seconds()
    for iv in tight.intervals:
        assert any(o.start <= iv.start and iv.end <= o.end
                   for o in loose.intervals)


def test_temporal_pad_extends_and_merges(pass_setup):
    tx, sats, window = pass_setup
    plain = dark_intervals(tx, sats, window, PIXEL)
    padded_policy = BufferPolicy(PolicyKind.PIXEL_LEVEL, 2.0,
                                 temporal_pad=2.0)
    padded = dark_intervals(tx, sats, window, padded_policy)
    assert padded.total_dark_seconds() > plain.total_dark_seconds()
    assert len(padded.intervals) <= len(plain.intervals)
    for iv in plain.intervals:
        assert any(o.start <= iv.start and iv.end <= o.end
                   for o in padded.intervals)


def test_window_split_concatenation(pass_setup):
    """Splitting the window at a quiet moment and concatenating matches."""
    tx, sats, window = pass_setup
    whole = dark_intervals(tx, sats, window, PIXEL)
    # Pick a split point in a large white gap.
    gaps = []
    cursor = window[0]
    for iv in whole.intervals:
        gaps.append(((iv.start - cursor).total_seconds(), cursor, iv.start))
        cursor = iv.end
    gaps.append(((window[1] - cursor).total_seconds(), cursor, window[1]))
    _, lo, hi = max(gaps)
    split = add_seconds(lo, (hi - lo).total_seconds() / 2)

    first = dark_intervals(tx, sats, (window[0], split), PIXEL)
    second = dark_intervals(tx, sats, (split, window[1]), PIXEL)
    combined = list(first.intervals) + list(second.intervals)
    assert len(combined) == len(whole.intervals)
    for a, b in zip(combined, whole.intervals):
        assert abs((a.start - b.start).total_seconds()) < 1e-5
        assert abs((a.end - b.end).total_seconds()) < 1e-5


def test_adding_satellite_never_decreases_dark(atms):
    rng = np.random.default_rng(42)
    els_a = random_leo_elements(rng, 90001)
    els_b = random_leo_elements(rng, 90002)
    window = (EPOCH, add_seconds(EPOCH, 6 * 3600))
    tx = transmitter_near_track(rng, els_a, window, max_cross_km=300.0)
    one = dark_intervals(tx, [(els_a, atms)], window, SCANLINE)
    both = dark_intervals(tx, [(els_a, atms), (els_b, atms)], window,
                          SCANLINE)
    assert (availability(both).dark_fraction
            >= availability(one).dark_fraction)


def test_schedule_determinism(pass_setup):
    tx, sats, window = pass_setup
    a = dark_intervals(tx, sats, window, PIXEL)
    b = dark_intervals(tx, sats, window, PIXEL)
    assert a == b


def test_oracle_refinement_keeps_intervals(pass_setup):
    tx, sats, window = pass_setup
    coarse = brute_force_oracle(tx, sats, window, PIXEL, dt=0.02)
    fine = brute_force_oracle(tx, sats, window, PIXEL, dt=0.01)
    # Refining the grid never loses an interval found at the coarser step.
    for iv in coarse.intervals:
        assert any(f.start <= iv.end and iv.start <= f.end
                   for f in fine.intervals)


@pytest.mark.parametrize("policy", [PIXEL, SCANLINE],
                         ids=["pixel", "scanline"])
def test_oracle_joins_runs_across_chunks(pass_setup, policy, monkeypatch):
    """Chunks of 7 samples, which cut every dark run, give the schedule
    of one chunk per visibility window (4 minutes around the pass)."""
    tx, sats, window = pass_setup
    window = (window[0] + timedelta(minutes=8),
              window[0] + timedelta(minutes=12))
    whole = brute_force_oracle(tx, sats, window, policy, dt=0.05)
    monkeypatch.setattr(geofence, "ORACLE_CHUNK", 7)
    assert brute_force_oracle(tx, sats, window, policy, dt=0.05) == whole
    assert whole.intervals


def test_validation_errors(pass_setup, amsua, leo_tle):
    tx, sats, window = pass_setup
    with pytest.raises(EmptyConstellation):
        dark_intervals(tx, [], window, PIXEL)
    with pytest.raises(WindowTooLarge):
        dark_intervals(tx, sats, (window[0],
                                  window[0] + timedelta(days=31)), PIXEL)
    with pytest.raises(WindowTooLarge):
        dark_intervals(tx, sats, (window[1], window[0]), PIXEL)
    with pytest.raises(NotPhaseLocked):
        dark_intervals(tx, [(leo_tle, amsua)], window, PIXEL)
    # Scan-line policy is the legal fallback for unlocked scanners.
    sched = dark_intervals(tx, [(leo_tle, amsua)],
                           (window[0], add_seconds(window[0], 600.0)),
                           SCANLINE)
    assert sched.policy.kind is PolicyKind.SCAN_LINE


def test_availability_full_window(pass_setup):
    tx, sats, window = pass_setup
    sched = dark_intervals(tx, sats, window, PIXEL)
    rep = availability(sched)
    assert rep.white_fraction + rep.dark_fraction == 1.0
    assert rep.per_satellite_breakdown[leo_id(sats)] == pytest.approx(
        sched.total_dark_seconds())
    migrated = availability(sched, dark_mode="migrated")
    assert migrated.effective_availability == 1.0


def leo_id(sats):
    return sats[0][0].satellite_id


def test_availability_single_interval_covering_window(pass_setup):
    from darkspace.geofence import DarkInterval, DarkSchedule
    _, sats, window = pass_setup
    sched = DarkSchedule(
        tx_id="tx", intervals=(DarkInterval(window[0], window[1],
                                            "SAT", 0),),
        window=window, policy=PIXEL)
    rep = availability(sched)
    assert rep.dark_fraction == 1.0
    assert rep.white_fraction == 0.0
    assert rep.white_to_dark_ratio == 0.0


def test_schedule_serialization(tmp_path, pass_setup):
    tx, sats, window = pass_setup
    sched = dark_intervals(tx, sats, window, PIXEL)
    csv_path = tmp_path / "sched.csv"
    write_schedule_csv([sched], csv_path, provenance={"seed": 1})
    lines = csv_path.read_text().splitlines()
    data_lines = [l for l in lines if not l.startswith("#")]
    assert data_lines[0] == ",".join(SCHEDULE_FIELDS)
    assert len(data_lines) == 1 + len(sched.intervals)
    assert data_lines[1].startswith("tx,")

    jsonl_path = tmp_path / "sched.jsonl"
    write_schedule_jsonl([sched], jsonl_path, provenance={"seed": 1})
    import json
    rows = [json.loads(l) for l in jsonl_path.read_text().splitlines()]
    assert "provenance" in rows[0]
    assert len(rows) == 1 + len(sched.intervals)
    assert rows[1]["policy_kind"] == "pixel"


# --- scan-plane screen ---------------------------------------------------


def _screen_specs(atms, amsua):
    """ATMS, a phase-locked AMSU-A and a long-dwell nadir scanner, each
    with the cross-track offset (km) up to which transmitters are placed:
    about its buffered swath, so that some of them are dark."""
    return [(atms, 1600.0), (replace(amsua, phase_locked=True), 1600.0),
            (replace(atms, name="long-dwell", samples_per_scan=1,
                     scan_period=8.0, beamwidth_3db=1.0), 10.0)]


def _screen_fixture(rng, kind, max_cross_km):
    """A 2 h window over an eccentric orbit, a transmitter up to
    max_cross_km off the track at an altitude other than the ground's."""
    elements = replace(random_leo_elements(rng, 91000),
                       eccentricity=float(rng.uniform(0.0, 0.08)),
                       mean_motion=float(rng.uniform(13.8, 14.3)))
    window = (EPOCH, add_seconds(EPOCH, 2 * 3600))
    near = transmitter_near_track(rng, elements, window, max_cross_km)
    tx = GroundPoint(near.latitude, near.longitude,
                     float(rng.uniform(0.0, 3000.0)))
    policy = BufferPolicy(kind, float(rng.uniform(1.0, 8.0)))
    return tx, elements, window, policy, float(rng.uniform(-100.0, 2000.0))


def test_screen_matches_unscreened_engine(atms, amsua, monkeypatch):
    """The screened engine equals the engine that keeps every sample of
    every scan line: both screens, _dwells_near_tx and _dwells_in_reach,
    switched off."""
    rng = np.random.default_rng(20231018)
    specs = _screen_specs(atms, amsua)
    fixtures = [_screen_fixture(rng, (PolicyKind.PIXEL_LEVEL,
                                      PolicyKind.SCAN_LINE)[i // 3 % 2],
                                specs[i % 3][1])
                + (specs[i % 3][0],) for i in range(12)]

    margins = []

    def counting(arrays, tx_ecef, buffer, real=geofence._ellipse_margins):
        out = real(arrays, tx_ecef, buffer)
        margins[-1] += out.size
        return out

    monkeypatch.setattr(geofence, "_ellipse_margins", counting)

    def run():
        margins.append(0)
        return [dark_intervals(tx, [(els, spec)], window, policy,
                               ground_altitude=ground)
                for tx, els, window, policy, ground, spec in fixtures]

    screened = run()
    monkeypatch.setattr(geofence, "_dwells_near_tx",
                        lambda geom, line, site: (
                            np.zeros(len(site), dtype=np.int64),
                            np.full(len(site),
                                    geom.spec.samples_per_scan)))
    monkeypatch.setattr(geofence, "_dwells_in_reach",
                        lambda geom, line, site, dwell: np.ones(
                            len(dwell["row"]), dtype=bool))
    unscreened = run()
    for i, (a, b) in enumerate(zip(screened, unscreened)):
        assert a == b, f"fixture {i}"
    assert sum(bool(s.intervals) for s in screened) >= 6
    # The switch took the screen off: every sample of every window line
    # had its margins evaluated.
    assert margins[1] > 2 * margins[0]


def _window_lines(geom):
    """The ids of the lines that meet the site's visibility windows."""
    period = geom.spec.scan_period
    return np.concatenate([
        np.arange(np.floor(geom.tau(w0) / period),
                  np.floor(geom.tau(w1) / period) + 1, dtype=np.int64)
        for w0, w1 in geom.visibility_windows()])


def _site0(size):
    """Site 0 for each of size rows: a one-site geometry's site index."""
    return np.zeros(size, dtype=np.int64)


def _screen(geom, lines, site):
    """_dwells_near_tx of row i: line lines[i] for site site[i]."""
    return geofence._dwells_near_tx(geom, geom.line_geometry(lines), site)


@pytest.mark.parametrize("which", [0, 1, 2])
def test_screen_keeps_every_dark_line(atms, amsua, which):
    """Every sample with margin <= 0, at instants spread over its dwell,
    lies on a line on which _dwells_near_tx keeps a sample."""
    spec, max_cross_km = _screen_specs(atms, amsua)[which]
    n = spec.samples_per_scan
    steps = max(2, int(np.ceil(spec.sample_dwell / 0.05)))
    frac = np.arange(steps + 1) / steps
    idx = np.repeat(np.arange(n), frac.size)
    within = (idx + np.tile(frac, n)) * spec.sample_dwell
    period = spec.scan_period
    n_dark = n_kept = n_lines = 0
    for seed in range(10):
        rng = np.random.default_rng(100 * which + seed)
        tx, elements, window, policy, ground = _screen_fixture(
            rng, PolicyKind.PIXEL_LEVEL, max_cross_km)
        geom = geofence._SatGeometry(elements, spec, window[0], 7200.0,
                                     policy, ground, [tx])
        lines = _window_lines(geom)
        lo, hi = _screen(geom, lines, _site0(lines.size))
        keep = hi > lo
        offsets = (lines[:, None] * period - geom.base + within).ravel()
        boresight = np.tile(spec.boresight_of(idx), lines.size)
        dark = (geom.margins(offsets, boresight, _site0(offsets.size))
                <= 0.0).reshape(lines.size, -1).any(axis=1)
        assert not np.any(dark & ~keep), (seed, lines[dark & ~keep])
        n_dark += int(dark.sum())
        n_kept += int(keep.sum())
        n_lines += lines.size
    assert n_dark > 0
    assert n_kept < 0.5 * n_lines


@pytest.mark.parametrize("which", [0, 1, 2])
def test_sample_screen_keeps_every_dark_dwell(atms, amsua, which):
    """Every sample of a kept line with margin <= 0, at instants spread over
    its dwell, lies in the range _dwells_near_tx keeps on that line (that
    every dark sample is on a kept line is test_screen_keeps_every_dark_line).
    """
    spec, max_cross_km = _screen_specs(atms, amsua)[which]
    n = spec.samples_per_scan
    steps = max(2, int(np.ceil(spec.sample_dwell / 0.05)))
    frac = np.arange(steps + 1) / steps
    idx = np.repeat(np.arange(n), frac.size)
    within = (idx + np.tile(frac, n)) * spec.sample_dwell
    n_dark = n_kept = n_samples = 0
    for seed in range(10):
        rng = np.random.default_rng(100 * which + seed)
        tx, elements, window, policy, ground = _screen_fixture(
            rng, PolicyKind.PIXEL_LEVEL, max_cross_km)
        geom = geofence._SatGeometry(elements, spec, window[0], 7200.0,
                                     policy, ground, [tx])
        lines = _window_lines(geom)
        lo, hi = _screen(geom, lines, _site0(lines.size))
        lines, lo, hi = lines[hi > lo], lo[hi > lo], hi[hi > lo]
        offsets = (geom.lattice.tau(lines)[:, None] - geom.base
                   + within).ravel()
        boresight = np.tile(spec.boresight_of(idx), lines.size)
        dark = (geom.margins(offsets, boresight, _site0(offsets.size))
                <= 0.0).reshape(lines.size, n, frac.size).any(axis=2)
        kept = ((np.arange(n) >= lo[:, None])
                & (np.arange(n) < hi[:, None]))
        assert not np.any(dark & ~kept), (seed, np.argwhere(dark & ~kept))
        n_dark += int(dark.sum())
        n_kept += int(kept.sum())
        n_samples += kept.size
    assert n_dark > 0
    if which == 0:
        # Buffers up to 8 keep whole lines (rho >= L); the rest do not.
        assert n_kept < 0.9 * n_samples


def test_sample_screen_keeps_footprint_boundary(atms):
    """A transmitter just inside a buffered footprint, at the start or the
    end of the dwell, lies in the range of samples its line keeps.

    These are the points the bound is tightest at: on a wide nadir
    scanner the angle term is within a few per cent of the footprint's
    angular size, and on the long-dwell scanner at buffer 1 the scan
    plane's drift over the line exceeds the slack of the angle term.
    """
    specs = [
        (atms, 2.0),
        (replace(atms, name="wide-nadir", samples_per_scan=1,
                 scan_period=1.0, beamwidth_3db=6.0), 1.0),
        (replace(atms, name="long-dwell", samples_per_scan=1,
                 scan_period=8.0, beamwidth_3db=1.0), 1.0),
    ]
    rng = np.random.default_rng(20)
    angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    for spec, buffer in specs:
        n = spec.samples_per_scan
        satellite = (random_leo_elements(rng), spec, EPOCH, 7200.0,
                     BufferPolicy(PolicyKind.PIXEL_LEVEL, buffer), 0.0)
        sat = geofence._SatGeometry(*satellite, [])
        lines = rng.choice(sat.lattice.lines(sat.base, sat.base + 7000.0),
                           24)
        samples = rng.integers(0, n, lines.size)
        # The twelve points around the ellipse are one geometry's sites.
        site = np.arange(angles.size)
        for line, j in zip(lines.tolist(), samples.tolist()):
            for end in (0, 1):
                offset = sat.lattice.tau(line, j + end) - sat.base
                r, v = sat.states([offset])
                fp = geofence._footprint_arrays(
                    r, v, [spec.boresight_of(j)], spec, 0.0)
                edge = 0.999 * buffer * (
                    fp["semi_major"] * np.cos(angles) * fp["u_major"]
                    + fp["semi_minor"] * np.sin(angles) * fp["u_minor"])
                geom = geofence._SatGeometry(*satellite, [
                    GroundPoint(*frames.ecef_to_geodetic(point))
                    for point in (fp["center"] + edge).T])
                rows = np.full(site.size, line)
                assert np.all(geom.margins(
                    np.full(site.size, offset),
                    np.full(site.size, spec.boresight_of(j)), site) <= 0.0)
                lo, hi = _screen(geom, rows, site)
                assert np.all((lo <= j) & (j < hi)), (spec.name, line, j,
                                                      end)


def test_sample_screen_selects_on_example_site():
    """At the example site (ATMS, buffer 2) over two days, fewer than a
    quarter of the window lines keep any sample, and the kept lines keep
    fewer than 0.3 of their samples.

    The sample bound alone keeps a sample on every window line, so the
    first count fails when the screen loses its line bound."""
    config = ScenarioConfig.load(EXAMPLE_CONFIG)
    elements, spec = config.satellites()[0]
    start = config.window()[0]
    geom = geofence._SatGeometry(elements, spec, start, 2 * 86400.0,
                                 config.policy(), config.ground_altitude(),
                                 [config.transmitters()[0][1]])
    lines = _window_lines(geom)
    lo, hi = _screen(geom, lines, _site0(lines.size))
    kept = np.count_nonzero(hi > lo)
    assert 100 < kept < 0.25 * lines.size
    assert np.sum(hi - lo) < 0.3 * kept * spec.samples_per_scan


# --- dwell bound (_dwells_in_reach) --------------------------------------


def _dwell_screen(geom, lines, samples, site):
    """_dwells_in_reach of row i: sample samples[i] of line lines[i] for
    site site[i], its ratio read at both ends of the line as
    _screen_windows reads it."""
    k = lines.size
    table = geom.line_geometry(np.concatenate((lines, lines + 1)))
    ratio = geofence._reach_ratios(geom, table, np.arange(2 * k),
                                   np.tile(samples, 2))
    return geofence._dwells_in_reach(
        geom, {key: value[..., :k] for key, value in table.items()}, site,
        {"row": np.arange(k), "sample": samples,
         "ratio": np.maximum(ratio[:k], ratio[k:])})


@pytest.mark.parametrize("kind", [PolicyKind.PIXEL_LEVEL,
                                  PolicyKind.SCAN_LINE],
                         ids=["pixel", "scanline"])
@pytest.mark.parametrize("which", [0, 1, 2])
def test_dwell_bound_keeps_every_dark_dwell(atms, amsua, which, kind,
                                            monkeypatch):
    """Every dwell that _dwells_near_tx keeps and that has margin <= 0 at
    one of the instants spread over it (the oracle's predicate) survives
    the dwell bound, which on ATMS keeps under a fifth of the dwells
    _dwells_near_tx keeps."""
    spec, max_cross_km = _screen_specs(atms, amsua)[which]
    steps = max(2, int(np.ceil(spec.sample_dwell / 0.05)))
    frac = np.arange(steps + 1) / steps
    n_dark = n_kept = n_candidates = 0
    for seed in range(4):
        rng = np.random.default_rng(300 + 10 * which + seed)
        tx, elements, window, policy, ground = _screen_fixture(
            rng, kind, max_cross_km)
        geom = geofence._SatGeometry(elements, spec, window[0], 7200.0,
                                     policy, ground, [tx])
        kept = geofence._screen_windows(geom)[4]
        with monkeypatch.context() as patch:
            patch.setattr(geofence, "_dwells_in_reach",
                          lambda geom, line, site, dwell: np.ones(
                              len(dwell["row"]), dtype=bool))
            candidates = geofence._screen_windows(geom)[4]
        assert np.all(np.isin(kept, candidates))
        offsets = (geom.lattice.key_tau(candidates)[:, None] - geom.base
                   + frac * spec.sample_dwell).ravel()
        boresight = np.repeat(
            spec.boresight_of(candidates % spec.samples_per_scan), frac.size)
        dark = (geom.margins(offsets, boresight, _site0(offsets.size))
                <= 0.0).reshape(candidates.size, -1).any(axis=1)
        assert np.all(np.isin(candidates[dark], kept)), seed
        n_dark += int(dark.sum())
        n_kept += kept.size
        n_candidates += candidates.size
    assert n_dark > 0
    if which == 0:
        assert n_kept < 0.2 * n_candidates


def test_dwell_bound_keeps_footprint_boundary(atms):
    """A transmitter just inside a buffered footprint at the start, the
    middle or the end of its dwell is kept by the dwell bound.

    On the one-sample scanners the footprint moves along the track by
    more than its own size within the dwell, so the motion terms carry
    the bound.  At the end of a 1 s dwell near the perigee of an orbit of
    eccentricity 0.08, the point ahead of the footprint needs about 0.78
    of the bound's motion term."""
    specs = [
        (atms, 2.0, 0.0),
        (replace(atms, name="wide-nadir", samples_per_scan=1,
                 scan_period=1.0, beamwidth_3db=6.0), 1.0, 0.0),
        (replace(atms, name="long-dwell", samples_per_scan=1,
                 scan_period=8.0, beamwidth_3db=1.0), 1.0, 0.0),
        (replace(atms, name="long-line", samples_per_scan=3,
                 scan_period=10.0, beamwidth_3db=0.5), 1.0, 0.08),
        (replace(atms, name="perigee", samples_per_scan=1,
                 scan_period=1.0, beamwidth_3db=2.2), 1.0, 0.08),
    ]
    rng = np.random.default_rng(27)
    angles = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
    site = np.arange(angles.size)
    for spec, buffer, ecc in specs:
        n = spec.samples_per_scan
        elements = replace(random_leo_elements(rng), eccentricity=ecc,
                           mean_motion=14.2, arg_perigee=0.0,
                           mean_anomaly=350.0)
        satellite = (elements, spec, EPOCH, 7200.0,
                     BufferPolicy(PolicyKind.PIXEL_LEVEL, buffer), 0.0)
        sat = geofence._SatGeometry(*satellite, [])
        # Lines over the ten minutes around perigee and over the window.
        lines = np.concatenate((
            rng.choice(sat.lattice.lines(sat.base, sat.base + 600.0), 8),
            rng.choice(sat.lattice.lines(sat.base, sat.base + 7000.0), 8)))
        samples = rng.integers(0, n, lines.size)
        for line, j in zip(lines.tolist(), samples.tolist()):
            for end in (0.0, 0.5, 1.0):
                offset = sat.lattice.tau(line, j + end) - sat.base
                r, v = sat.states([offset])
                fp = geofence._footprint_arrays(
                    r, v, [spec.boresight_of(j)], spec, 0.0)
                edge = 0.999 * buffer * (
                    fp["semi_major"] * np.cos(angles) * fp["u_major"]
                    + fp["semi_minor"] * np.sin(angles) * fp["u_minor"])
                geom = geofence._SatGeometry(*satellite, [
                    GroundPoint(*frames.ecef_to_geodetic(point))
                    for point in (fp["center"] + edge).T])
                assert np.all(geom.margins(
                    np.full(site.size, offset),
                    np.full(site.size, spec.boresight_of(j)), site) <= 0.0)
                kept = _dwell_screen(geom, np.full(site.size, line),
                                     np.full(site.size, j), site)
                assert kept.all(), (spec.name, line, j, end)


@settings(max_examples=100, deadline=None)
@given(samples=st.integers(1, 128), period=st.floats(0.5, 10.0),
       beam=st.floats(0.5, 6.0), buffer=st.floats(1.0, 8.0),
       ecc=st.floats(0.0, 0.08), ground=st.floats(-100.0, 2000.0),
       seed=st.integers(0, 2 ** 32 - 1), where=st.floats(0.0, 1.0),
       edge=st.sampled_from([None, 0, -1]))
def test_dwell_reach_continuity(samples, period, beam, buffer, ecc, ground,
                                seed, where, edge):
    """The continuity claim of _dwells_in_reach: within one scan period,
    rho_j / L_j rises above the larger of its values at the line's first
    sample and the next line's by at most s / 10, over accepted specs and
    eccentric orbits (the scan edges are drawn a third of the time each).
    """
    rng = np.random.default_rng(seed)
    spec = replace(load_preset("atms"), samples_per_scan=samples,
                   scan_period=period, beamwidth_3db=beam)
    elements = replace(random_leo_elements(rng), eccentricity=ecc,
                       mean_motion=float(rng.uniform(13.8, 14.3)))
    geom = geofence._SatGeometry(elements, spec, EPOCH, 7200.0,
                                 BufferPolicy(PolicyKind.PIXEL_LEVEL, buffer),
                                 ground, [])
    line = int(np.floor((geom.base + where * 7000.0) / period))
    j = int(rng.integers(0, samples)) if edge is None else edge % samples
    offsets = (geom.lattice.tau(line) - geom.base
               + np.linspace(0.0, period, 33))
    r, v = geom.states(offsets)
    ratio = geofence._reach_ratios(geom, {"r": r, "v": v},
                                   np.arange(offsets.size),
                                   np.full(offsets.size, j))
    assume(np.all(np.isfinite(ratio))
           and (1.0 + geofence._SCREEN_SLACK) * ratio.max() < 1.0)
    ends = max(ratio[0], ratio[-1])
    assert ratio.max() <= (1.0 + geofence._SCREEN_SLACK / 10.0) * ends


def test_screen_reach_bounds_the_line_period(monkeypatch):
    """The edge reach that _screen_windows hands _dwells_near_tx bounds
    buffer_multiplier * the larger edge semi_major of the row's line at 9
    instants across its scan period, on accepted specs and eccentric
    orbits.  The reach at the line's first sample alone fell short of it
    by up to 1.7 % on these fixtures, more than _SCREEN_SLACK."""
    rng = np.random.default_rng(0)
    atms = load_preset("atms")
    window = (EPOCH, add_seconds(EPOCH, 7200.0))
    real_table = geofence._SatGeometry.line_geometry
    real_screen = geofence._dwells_near_tx
    tables, rows = [], []

    def table(self, lines):
        out = real_table(self, lines)
        tables.append(dict(zip(out["r"][0].tolist(), lines.tolist())))
        return out

    def screen(geom, line, site):
        rows.append((line["r"][0], line["reach"]))
        return real_screen(geom, line, site)

    monkeypatch.setattr(geofence._SatGeometry, "line_geometry", table)
    monkeypatch.setattr(geofence, "_dwells_near_tx", screen)
    checked = 0
    for _ in range(100):
        spec = replace(atms, samples_per_scan=int(rng.integers(1, 129)),
                       scan_period=float(rng.uniform(0.5, 10.0)),
                       beamwidth_3db=float(rng.uniform(0.5, 6.0)))
        elements = replace(random_leo_elements(rng, 91000),
                           eccentricity=float(rng.uniform(0.0, 0.08)),
                           mean_motion=float(rng.uniform(13.8, 14.3)))
        tx = transmitter_near_track(rng, elements, window, 1600.0)
        buffer = float(rng.uniform(1.0, 8.0))
        ground = float(rng.uniform(-100.0, 2000.0))
        geom = geofence._SatGeometry(
            elements, spec, EPOCH, 7200.0,
            BufferPolicy(PolicyKind.PIXEL_LEVEL, buffer), ground, [tx])
        tables[:], rows[:] = [], []
        geofence._screen_windows(geom)
        if not rows:
            continue
        (line_of,) = tables
        lines = np.array([line_of[x] for r, _ in rows for x in r.tolist()])
        reach = np.concatenate([reach for _, reach in rows])
        offsets = (geom.lattice.tau(lines)[:, None] - geom.base
                   + np.linspace(0.0, spec.scan_period, 9)).ravel()
        _, semi_major, miss = geofence.edge_footprints(
            *geom.states(offsets), spec, ground)
        need = buffer * semi_major.max(axis=1).reshape(lines.size, 9)
        hit = ~miss.any(axis=1).reshape(lines.size, 9).any(axis=1)
        assert np.all(reach[hit] >= need[hit].max(axis=1)), (spec, elements)
        checked += hit.sum()
    assert checked > 20_000
