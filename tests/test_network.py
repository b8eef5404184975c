"""One engine for a network of transmitters: dark_intervals_many equals
dark_intervals site by site, and the elementwise arithmetic that lets sites
share propagation and footprints is bit for bit independent of batching."""
from dataclasses import replace

import numpy as np
import pytest

from darkspace import geofence
from darkspace.geofence import dark_intervals, dark_intervals_many
from darkspace.orbit import GroundPoint, frames, propagate, propagate_many
from darkspace.radiometer import BufferPolicy, PolicyKind, _cross
from darkspace.timeutil import add_seconds


def _bits(a):
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


# --- the arithmetic the shared engine rests on -------------------------------


def test_cross_matches_numpy_bitwise():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((3, 1000)) * 10.0 ** rng.integers(-3, 7, 1000)
    b = rng.standard_normal((3, 1000)) * 10.0 ** rng.integers(-3, 7, 1000)
    assert _bits(_cross(a, b)) == _bits(np.cross(a, b, axis=0))

    omega = np.array([0.0, 0.0, frames.OMEGA_EARTH]).reshape(3, 1)
    r = rng.uniform(-7.2e6, 7.2e6, (3, 500))
    assert _bits(_cross(omega, r)) == _bits(np.cross(omega, r, axis=0))

    # Signed zeros: every combination of +-0 and +-1 in each component.
    values = np.array([0.0, -0.0, 1.0, -1.0])
    grid = np.array(np.meshgrid(*[values] * 6)).reshape(6, -1)
    a, b = grid[:3], grid[3:]
    assert _bits(_cross(a, b)) == _bits(np.cross(a, b, axis=0))
    assert _bits(_cross(a[:, :1], b)) == _bits(np.cross(a[:, :1], b, axis=0))


def _pass_geometry(leo_tle, atms, rng, n):
    """A transmitter under a pass and n random samples over the pass."""
    t_mark = add_seconds(leo_tle.epoch, 40 * 60)
    lat, lon, _ = propagate(leo_tle, t_mark).geodetic
    start = add_seconds(leo_tle.epoch, 35 * 60)
    geom = geofence._SatGeometry(leo_tle, atms, start, GroundPoint(lat, lon),
                                 BufferPolicy(PolicyKind.PIXEL_LEVEL, 2.0),
                                 0.0)
    offsets = np.sort(rng.uniform(240.0, 360.0, n))
    boresight = atms.boresight_of(rng.integers(0, atms.samples_per_scan, n))
    return geom, offsets, boresight


def test_margins_do_not_depend_on_chunk_size(leo_tle, atms, monkeypatch):
    """Chunks of 4,096 (two chunks here), 7 and 1 sample give the same
    margins and satellite states as one chunk of all 4,200; one-sample
    chunks run on every 8th sample to keep the test short, which also
    checks that a sample's margin does not depend on which others are
    evaluated."""
    rng = np.random.default_rng(3)
    geom, offsets, boresight = _pass_geometry(leo_tle, atms, rng, 4200)
    margins, states = {}, {}
    for chunk, every in ((4096, 1), (7, 1), (1, 8), (4200, 1)):
        monkeypatch.setattr(geofence, "MARGIN_CHUNK", chunk)
        margins[chunk] = geom.margins(offsets[::every], boresight[::every])
        states[chunk] = geom.shared.states(offsets[::every])
    for chunk, every in ((4096, 1), (7, 1), (1, 8)):
        assert _bits(margins[chunk]) == _bits(margins[4200][::every])
        for got, whole in zip(states[chunk], states[4200]):
            assert _bits(got) == _bits(whole[:, ::every])
    assert np.any(margins[4096] <= 0.0)
    assert np.all(np.isfinite(margins[4096]))


def test_propagate_many_union_equals_subsets(leo_tle):
    rng = np.random.default_rng(11)
    t0 = add_seconds(leo_tle.epoch, 3600.0)
    subsets = [np.sort(rng.uniform(0.0, 7200.0, n)) for n in (1, 7, 300)]
    subsets.append(np.round(rng.uniform(0.0, 7200.0, 50), 1))
    union = np.unique(np.concatenate(subsets))
    r_all, v_all = propagate_many(leo_tle, t0, union)
    for offsets in subsets:
        r, v = propagate_many(leo_tle, t0, offsets)
        at = np.searchsorted(union, offsets)
        assert _bits(r) == _bits(r_all[:, at])
        assert _bits(v) == _bits(v_all[:, at])


def _windows_reference(offsets, el, duration_s):
    """The run-by-run loop visibility_windows replaced."""
    mask = el > geofence.HORIZON_GUARD_DEG
    step = geofence.COARSE_STEP_S
    windows = []
    i = 0
    while i < len(mask):
        if mask[i]:
            j = i
            while j + 1 < len(mask) and mask[j + 1]:
                j += 1
            lo = max(0.0, offsets[i] - step)
            hi = min(duration_s, offsets[j] + step)
            if windows and lo <= windows[-1][1]:
                windows[-1] = (windows[-1][0], hi)
            else:
                windows.append((lo, hi))
            i = j + 1
        else:
            i += 1
    return windows


def test_visibility_windows_match_reference_loop(leo_tle, atms,
                                                 monkeypatch):
    """Random elevation runs, including single points, gaps of one grid
    point (whose widened runs touch), runs at both ends and none."""
    rng = np.random.default_rng(17)
    geom, _, _ = _pass_geometry(leo_tle, atms, rng, 1)
    elevations = {}
    monkeypatch.setattr(geofence.frames, "look_angles_from_ecef",
                        lambda r, *args: (elevations[r.shape[1]], None, None))
    for trial in range(300):
        duration = float(rng.choice([45.0, 600.0, 7215.5]))
        offsets, _ = geom.shared.coarse(duration)
        above = rng.uniform(0.0, 1.0, offsets.size) < rng.uniform(0.0, 1.0)
        if trial % 10 == 0:
            above[:] = trial % 20 == 0
        elevations[offsets.size] = np.where(above, 5.0, -5.0)
        expected = _windows_reference(offsets, elevations[offsets.size],
                                      duration)
        assert geom.visibility_windows(duration) == expected


# --- dark_intervals_many -----------------------------------------------------


@pytest.fixture(scope="module")
def network(leo_tle, atms):
    """Two satellites over one hour and seven sites.

    near-a..near-d sit within a few hundred km of the first satellite's
    track, where the second passes minutes later, so both satellites'
    lines are shared among them; twin-1 and twin-2 share one location; far
    lies 3,000 km along the track, so its lines are not the others'; dark
    side sees no pass.
    """
    second = replace(leo_tle, catalog_number=99001, name="SECOND",
                     mean_anomaly=(leo_tle.mean_anomaly + 15.0) % 360.0)
    sats = [(leo_tle, atms), (second, atms)]
    t_mark = add_seconds(leo_tle.epoch, 40 * 60)
    lat, lon, _ = propagate(leo_tle, t_mark).geodetic
    far_lat, far_lon, _ = propagate(
        leo_tle, add_seconds(t_mark, 3.0e6 / 6.6e3)).geodetic
    sites = [
        ("near-a", GroundPoint(lat, lon, 20.0)),
        ("near-b", GroundPoint(lat + 1.5, lon + 2.0, 800.0)),
        ("near-c", GroundPoint(lat - 2.0, lon - 4.0, 0.0)),
        ("twin-1", GroundPoint(lat + 0.5, lon - 1.0, 100.0)),
        ("twin-2", GroundPoint(lat + 0.5, lon - 1.0, 100.0)),
        ("far", GroundPoint(far_lat, far_lon, 0.0)),
        ("dark-side", GroundPoint(-lat, lon + 180.0, 0.0)),
    ]
    window = (add_seconds(leo_tle.epoch, 30 * 60),
              add_seconds(leo_tle.epoch, 60 * 60))
    return sites, sats, window


@pytest.mark.parametrize("batch", ["default", "one window"])
@pytest.mark.parametrize("kind", [PolicyKind.PIXEL_LEVEL,
                                  PolicyKind.SCAN_LINE])
def test_many_equals_one_site_at_a_time(network, kind, batch, monkeypatch):
    """Also with batches cut after every window, as for passes shared by
    more sites than a batch holds."""
    sites, sats, window = network
    policy = BufferPolicy(kind, 2.0, temporal_pad=0.05)
    batches = []

    def recording(*args, real=geofence._pass_batches):
        out = real(*args)
        batches.extend(out)
        return out

    monkeypatch.setattr(geofence, "_pass_batches", recording)
    if batch == "one window":
        monkeypatch.setattr(geofence, "BATCH_SAMPLES", 1)
    many = dark_intervals_many(sites, sats, window, policy,
                               ground_altitude=50.0)
    monkeypatch.undo()
    windows = [sum(len(w) for _, w in b) for b in batches]
    if batch == "one window":
        assert set(windows) == {1}
    else:
        assert max(len(b) for b in batches) >= 5
    alone = [dark_intervals(point, sats, window, policy, tx_id=tx_id,
                            ground_altitude=50.0)
             for tx_id, point in sites]
    assert many == alone

    by_id = {s.tx_id: s for s in many}
    assert [s.tx_id for s in many] == [tx_id for tx_id, _ in sites]
    assert by_id["dark-side"].intervals == ()
    assert by_id["twin-1"].intervals == by_id["twin-2"].intervals != ()
    for tx_id in ("near-a", "near-b", "near-c", "far"):
        assert by_id[tx_id].intervals, tx_id
    sat_ids = {sat.satellite_id for sat, _ in sats}
    assert {iv.satellite_id for iv in by_id["near-a"].intervals} == sat_ids
    near_lines = {(iv.satellite_id, iv.scan_line_index)
                  for s in many if s.tx_id.startswith("near")
                  for iv in s.intervals}
    far_lines = {(iv.satellite_id, iv.scan_line_index)
                 for iv in by_id["far"].intervals}
    assert not near_lines & far_lines


def test_sites_share_propagation_and_footprints(network, monkeypatch):
    """The network propagates and footprints less than its sites do one
    at a time, and evaluates the same margins."""
    sites, sats, window = network
    policy = BufferPolicy(PolicyKind.SCAN_LINE, 2.0)
    work = {"states": 0, "footprints": 0, "margins": 0}

    def counting(name, func, size):
        def wrapper(*args, **kwargs):
            work[name] += size(args)
            return func(*args, **kwargs)
        monkeypatch.setattr(geofence, func.__name__, wrapper)

    counting("states", geofence.propagate_many, lambda a: np.size(a[2]))
    counting("footprints", geofence._footprint_arrays,
             lambda a: np.size(a[2]))
    counting("margins", geofence._ellipse_margins,
             lambda a: np.size(a[0]["miss"]))

    dark_intervals_many(sites, sats, window, policy)
    shared = dict(work)
    work.update(states=0, footprints=0, margins=0)
    for tx_id, point in sites:
        dark_intervals(point, sats, window, policy, tx_id=tx_id)
    assert shared["states"] < work["states"] / 2
    assert shared["footprints"] < work["footprints"] / 2
    assert shared["margins"] == work["margins"]


def test_many_with_no_sites(network):
    _, sats, window = network
    assert dark_intervals_many([], sats, window,
                               BufferPolicy(PolicyKind.PIXEL_LEVEL)) == []


def test_line_screen_does_not_depend_on_cached_lines(leo_tle, atms):
    """A site's screen reads the same per-line geometry whether its lines
    were cached alone, after other lines, or for another site."""
    rng = np.random.default_rng(5)
    geom, _, _ = _pass_geometry(leo_tle, atms, rng, 1)
    line0 = int(geom.lattice.line_at(geom.tau(240.0)))
    lines_a = np.arange(line0, line0 + 60)
    lines_b = np.arange(line0 - 30, line0 + 120, 3)

    def fresh():
        return geofence._SatGeometry(geom.shared.elements, atms,
                                     geom.shared.window_start, geom.tx,
                                     geom.shared.policy, 0.0)

    alone = geofence._lines_near_tx(fresh(), lines_b)
    after = fresh()
    geofence._lines_near_tx(after, lines_a)
    other = geofence._SatGeometry(geom.shared.elements, atms,
                                  geom.shared.window_start,
                                  GroundPoint(0.0, 0.0), geom.shared.policy,
                                  0.0, after.shared)
    assert _bits(geofence._lines_near_tx(after, lines_b)) == _bits(alone)
    assert alone.any() and not alone.all()
    geofence._lines_near_tx(other, lines_b[::-1])
    assert _bits(geofence._lines_near_tx(after, lines_b)) == _bits(alone)
