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
    geom = geofence._SatGeometry(
        leo_tle, atms, start, 600.0, BufferPolicy(PolicyKind.PIXEL_LEVEL, 2.0),
        0.0, [GroundPoint(lat, lon)])
    offsets = np.sort(rng.uniform(240.0, 360.0, n))
    boresight = atms.boresight_of(rng.integers(0, atms.samples_per_scan, n))
    return geom, offsets, boresight


def _geometry(geom, points, spec=None, duration_s=None):
    """A fresh geometry of geom's satellite and window over the given
    sites, with another radiometer or window length if given."""
    return geofence._SatGeometry(
        geom.elements, spec or geom.spec, geom.window_start,
        duration_s or geom.duration_s, geom.policy, geom.ground_altitude,
        points)


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
        margins[chunk] = geom.margins(offsets[::every], boresight[::every],
                                      np.zeros(offsets[::every].size, int))
        states[chunk] = geom.states(offsets[::every])
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
    site, _, _ = _pass_geometry(leo_tle, atms, rng, 1)
    geoms = {duration: _geometry(site, site.points, duration_s=duration)
             for duration in (45.0, 600.0, 7215.5)}
    elevations = {}
    calls = []

    def look(rho, trig):
        calls.append(rho.shape)
        return None, None, elevations[rho.shape[2]][None, :], None, None

    monkeypatch.setattr(geofence.frames, "enu_look", look)
    for trial in range(300):
        duration = float(rng.choice(list(geoms)))
        geom = geoms[duration]
        offsets, _ = geom.coarse
        above = rng.uniform(0.0, 1.0, offsets.size) < rng.uniform(0.0, 1.0)
        if trial % 10 == 0:
            above[:] = trial % 20 == 0
        elevations[offsets.size] = np.where(above, 5.0, -5.0)
        expected = _windows_reference(offsets, elevations[offsets.size],
                                      duration)
        assert geom.visibility_windows() == expected
    # Every call took the patched elevations: one site over the grid.
    assert len(calls) == 300
    assert {shape[:2] for shape in calls} == {(3, 1)}


def _batches_reference(sites):
    """The tuple rule _pass_batches replaced: sites[k] holds site k's
    (w0, w1, kept dwells) windows in time order; returns each batch's
    (k, j) windows."""
    batches = []
    end, total = -np.inf, geofence.MARGIN_CHUNK
    for w0, w1, k, j in sorted((w[0], w[1], k, j)
                               for k, windows in enumerate(sites)
                               for j, w in enumerate(windows)):
        if ((w0 > end and total >= geofence.MARGIN_CHUNK)
                or total >= geofence.BATCH_SAMPLES):
            batches.append([])
            total = 0
        end = max(end, w1)
        total += sites[k][j][2]
        batches[-1].append((k, j))
    return batches


def test_pass_batches_match_reference_loop(monkeypatch):
    """Random windows on a coarse grid, so that windows of different
    sites tie in (w0, w1), with windows that keep no dwell and passes cut
    at BATCH_SAMPLES."""
    monkeypatch.setattr(geofence, "MARGIN_CHUNK", 20)
    monkeypatch.setattr(geofence, "BATCH_SAMPLES", 40)
    rng = np.random.default_rng(29)
    ties = empty = cuts = 0
    for _ in range(200):
        sites = []
        for _ in range(rng.integers(0, 8)):
            ends = np.sort(rng.choice(12, 2 * rng.integers(0, 4),
                                      replace=False)) * 30.0
            # A third of the windows keep no dwell.
            sites.append([(a, b, int(rng.integers(1, 25))
                           if rng.integers(0, 3) else 0)
                          for a, b in zip(ends[::2], ends[1::2])])
        # Window i is site k's window j, site after site.
        kj = [(k, j) for k, windows in enumerate(sites)
              for j in range(len(windows))]
        w0 = np.array([sites[k][j][0] for k, j in kj], dtype=float)
        w1 = np.array([sites[k][j][1] for k, j in kj], dtype=float)
        size = np.array([sites[k][j][2] for k, j in kj], dtype=np.int64)
        batch = geofence._pass_batches(w0, w1, size)
        expected = np.empty(w0.size, dtype=np.int64)
        for b, windows in enumerate(_batches_reference(sites)):
            expected[[kj.index(w) for w in windows]] = b
        assert batch.tolist() == expected.tolist()
        pairs = list(zip(w0.tolist(), w1.tolist()))
        ties += len(pairs) - len(set(pairs))
        empty += int(np.sum(size == 0))
        order = np.lexsort((w1, w0))
        reach = np.maximum.accumulate(w1[order])
        cuts += int(np.sum((w0[order][1:] <= reach[:-1])
                           & (np.diff(batch[order]) > 0)))
    assert ties > 50 and empty > 50 and cuts > 50


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
    windows, sites_in = [], []

    def batches(*args, real=geofence._pass_batches):
        out = real(*args)
        windows.extend(np.bincount(out).tolist())
        return out

    def dwell_dark(geom, site, keys, real=geofence._dwell_dark):
        sites_in.append(np.unique(site).size)
        return real(geom, site, keys)

    monkeypatch.setattr(geofence, "_pass_batches", batches)
    monkeypatch.setattr(geofence, "_dwell_dark", dwell_dark)
    if batch == "one window":
        monkeypatch.setattr(geofence, "BATCH_SAMPLES", 1)
    many = dark_intervals_many(sites, sats, window, policy,
                               ground_altitude=50.0)
    monkeypatch.undo()
    # One _dwell_dark call per batch.
    assert len(sites_in) == len(windows)
    if batch == "one window":
        assert set(windows) == {1}
    else:
        assert max(sites_in) >= 5
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
    were cached alone, after other lines, or for another site (site 1 of
    a two-site geometry)."""
    rng = np.random.default_rng(5)
    geom, _, _ = _pass_geometry(leo_tle, atms, rng, 1)
    line0 = int(geom.lattice.lines(geom.tau(240.0), geom.tau(240.0))[0])
    lines_a = np.arange(line0, line0 + 60)
    lines_b = np.arange(line0 - 30, line0 + 120, 3)
    first, second = (np.full(lines_b.size, k) for k in (0, 1))

    alone = geofence._dwells_near_tx(_geometry(geom, geom.points), lines_b,
                                     first)
    after = _geometry(geom, [*geom.points, GroundPoint(0.0, 0.0)])
    geofence._dwells_near_tx(after, lines_a, np.zeros(lines_a.size, int))
    assert _bits(geofence._dwells_near_tx(after, lines_b, first)) == _bits(
        alone)
    kept = alone[1] > alone[0]
    assert kept.any() and not kept.all()
    geofence._dwells_near_tx(after, lines_b[::-1], second)
    assert _bits(geofence._dwells_near_tx(after, lines_b, first)) == _bits(
        alone)


@pytest.fixture(scope="module")
def random_network(leo_tle, atms):
    """Sixty seeded random sites, two satellites, 40 minutes.

    Most sites lie within a few hundred km of either satellite's ground
    track, some near its sub-satellite points at the window's start and
    end (so their visibility windows touch the window's edges), some on
    the far side of the Earth (no pass), and four twins repeat earlier
    sites' locations further down the list.  The order is shuffled, so
    blocks of sites mix all kinds.
    """
    rng = np.random.default_rng(20261020)
    second = replace(leo_tle, catalog_number=99002, name="SECOND",
                     mean_anomaly=(leo_tle.mean_anomaly + 11.0) % 360.0)
    sats = [(leo_tle, atms), (second, atms)]
    window = (add_seconds(leo_tle.epoch, 35 * 60),
              add_seconds(leo_tle.epoch, 75 * 60))
    duration = 40 * 60.0

    def near(elements, offset, spread):
        lat, lon, _ = propagate(elements, add_seconds(window[0],
                                                      offset)).geodetic
        return GroundPoint(
            float(np.clip(lat + rng.uniform(-spread, spread), -89.0, 89.0)),
            lon + rng.uniform(-spread, spread),
            float(rng.uniform(0.0, 2000.0)))

    points = [near(sats[i % 2][0], rng.uniform(0.0, duration), 4.0)
              for i in range(44)]
    points += [near(elements, offset, 1.0) for elements, _ in sats
               for offset in (0.0, duration)]
    for _ in range(8):
        p = near(leo_tle, rng.uniform(0.0, duration), 4.0)
        points.append(GroundPoint(-p.latitude, p.longitude + 180.0))
    points = [points[i] for i in rng.permutation(len(points))]
    for i in range(4):
        points.insert(12 + 12 * i, points[3 * i])
    sites = [(f"site-{i:02d}", p) for i, p in enumerate(points)]
    return sites, sats, window


@pytest.mark.parametrize("kind", [PolicyKind.PIXEL_LEVEL,
                                  PolicyKind.SCAN_LINE])
def test_random_network_equals_one_site_at_a_time(random_network, kind,
                                                  monkeypatch):
    """Blocks of one and of seven sites, so every stage crosses block
    boundaries, give every site the schedule it gets alone."""
    sites, sats, window = random_network
    policy = BufferPolicy(kind, 2.0, temporal_pad=0.05)
    alone = [dark_intervals(point, sats, window, policy, tx_id=tx_id,
                            ground_altitude=30.0)
             for tx_id, point in sites]
    for size in (1, 7):
        blocks = []

        def fixed(sizes, size=size):
            blocks.append(len(sizes))
            return [slice(i, min(i + size, len(sizes)))
                    for i in range(0, len(sizes), size)]

        monkeypatch.setattr(geofence, "_site_blocks", fixed)
        many = dark_intervals_many(sites, sats, window, policy,
                                   ground_altitude=30.0)
        assert many == alone, size
        # Each satellite blocked its elevations and its screen rows.
        assert blocks == [len(sites)] * 4

    dark = [bool(s.intervals) for s in alone]
    assert 20 <= sum(dark) < len(sites) - 8
    site, lo, hi = geofence._visibility(geofence._SatGeometry(
        *sats[0], window[0], 2400.0, policy, 30.0, [p for _, p in sites]))
    assert np.any(lo == 0.0) and np.any(hi == 2400.0)
    assert np.unique(site).size < len(sites) - 8
    first, twins = {}, []
    for i, (_, point) in enumerate(sites):
        if point in first:
            twins.append((first[point], i))
        first.setdefault(point, i)
    assert len(twins) == 4
    assert any(alone[i].intervals for i, _ in twins)
    for i, j in twins:
        assert alone[i].intervals == alone[j].intervals


def test_batched_bisection_matches_per_site(random_network, monkeypatch):
    """Each batch bisects every site's brackets in one call, and each
    element gets the bits of bisecting its own site's brackets alone."""
    sites, sats, window = random_network
    calls = []

    def recording(geom, boresight, lo, hi, dark_at_lo, site,
                  real=geofence._bisect_boundary):
        out = real(geom, boresight, lo, hi, dark_at_lo, site)
        calls.append((geom, boresight, lo, hi, dark_at_lo, site, out))
        return out

    monkeypatch.setattr(geofence, "_bisect_boundary", recording)
    dark_intervals_many(sites, sats, window,
                        BufferPolicy(PolicyKind.PIXEL_LEVEL, 2.0))
    monkeypatch.undo()
    assert max(np.unique(call[5]).size for call in calls) >= 5
    for geom, boresight, lo, hi, dark_at_lo, site, out in calls:
        for k in np.unique(site).tolist():
            one = _geometry(geom, [geom.points[k]])
            at = site == k
            alone = geofence._bisect_boundary(one, boresight[at], lo[at],
                                              hi[at], dark_at_lo[at],
                                              np.zeros(at.sum(), int))
            assert _bits(alone) == _bits(out[at])


def test_bisection_stops_per_element(leo_tle, atms):
    """With a dwell of 8 BISECT_TOL_S, rounding leaves some one-dwell
    brackets a halving short of the rest; bisected together, each still
    gets the bits of bisecting it alone."""
    spec = replace(atms, name="16-ms", scan_period=8 * geofence.BISECT_TOL_S
                   * atms.samples_per_scan)
    rng = np.random.default_rng(23)
    site, _, _ = _pass_geometry(leo_tle, atms, rng, 1)
    geom = _geometry(site, site.points, spec=spec)
    # Dwell key k starts about k sample_dwells after the epoch.
    first, last = np.floor(geom.tau(np.array([240.0, 360.0]))
                           / spec.sample_dwell).astype(np.int64)
    keys = rng.integers(first, last, 60)
    lo, hi = (geom.lattice.key_tau(keys + j) - geom.base for j in (0, 1))
    width = hi - lo
    assert np.any(width > 8 * geofence.BISECT_TOL_S)
    assert np.any(width <= 8 * geofence.BISECT_TOL_S)
    boresight = spec.boresight_of(keys % spec.samples_per_scan)
    dark = rng.uniform(size=keys.size) < 0.5
    index = np.zeros(keys.size, int)
    together = geofence._bisect_boundary(geom, boresight, lo, hi, dark, index)
    for i in range(keys.size):
        at = slice(i, i + 1)
        alone = geofence._bisect_boundary(geom, boresight[at], lo[at],
                                          hi[at], dark[at], index[at])
        assert _bits(alone) == _bits(together[at]), i
