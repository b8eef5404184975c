"""Flashlight measurement planning: ON/OFF pulses against predicted passes.

A plan fires the ground transmitter exactly while the radiometer pixel looks
at it (the dual of the geofencing pause rule), binds every ON pixel to the
overlapping pixel one scan line later as the OFF reference, audits worst
case received power, and emits the pixel-exclusion records that keep
contaminated samples out of downstream weather products.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from enum import Enum

import numpy as np

from . import radiometer
from .errors import ConfigError, NegativeLowEdge
from .geofence import dark_intervals, inertial_states
from .linkbudget import LossChain, fspl_db
from .orbit import (GroundPoint, OrbitalElements, propagate, topocentric)
# pixel_footprint is not called here, but bench/tracing.py patches it under
# this module's name, so it stays importable from darkspace.experiment.
from .radiometer import (BufferPolicy, PolicyKind, RadiometerSpec,
                         ScanLattice, ScanSample, _ellipse_margins, _frame,
                         pixel_footprint)  # noqa: F401
from .timeutil import add_seconds, ensure_utc


class PairingMode(Enum):
    SAME_RADIOMETER_ADJACENT_LINES = "SameRadiometerAdjacentLines"
    CROSS_SATELLITE = "CrossSatellite"


#: Safety criteria that are process steps, not computations; emitted with
#: every plan so the paperwork cannot be forgotten.
REGULATORY_CHECKLIST = (
    "Review the experimental configuration and radiated-power audit with "
    "the satellite operator.",
    "Review the test location and frequencies with the NTIA and FCC.",
    "Deploy the pixel-exclusion records to the NWP ingest filters before "
    "any transmission.",
)


@dataclass(frozen=True)
class Pulse:
    """One transmitter-ON window bound to its ON pixel and OFF reference."""
    on_start: datetime
    on_end: datetime
    target: ScanSample
    off_reference: ScanSample
    overlap_fraction: float

    @property
    def duration(self) -> float:
        return (self.on_end - self.on_start).total_seconds()


@dataclass(frozen=True)
class FlashlightPlan:
    """A complete, deterministic measurement plan for one transmitter."""
    tx: GroundPoint
    tx_id: str
    elements: OrbitalElements
    spec: RadiometerSpec
    policy: BufferPolicy
    window: tuple[datetime, datetime]
    pulses: tuple
    max_pulse: float
    overlap_threshold: float
    mode: str
    diagnostics: dict
    checklist: tuple = REGULATORY_CHECKLIST

    @property
    def satellite_id(self) -> str:
        return self.elements.satellite_id


@dataclass(frozen=True)
class MeasuredSample:
    """An observed (or simulated) radiometer power keyed by scan sample."""
    satellite_id: str
    scan_line_index: int
    sample_index: int
    power_w: float
    t: datetime = None
    center: GroundPoint = None
    loss: LossChain = None

    @property
    def key(self):
        return (self.satellite_id, self.scan_line_index, self.sample_index)


@dataclass(frozen=True)
class OnOffPair:
    on_sample_power: float
    off_sample_power: float
    delta_t: float
    mode: PairingMode
    loss_correction: float = 0.0


@dataclass(frozen=True)
class PairingResult:
    pairs: tuple
    unmatched: tuple

    @property
    def unmatched_count(self) -> int:
        return len(self.unmatched)


@dataclass(frozen=True)
class ExclusionRecord:
    satellite_id: str
    scan_line_index: int
    sample_index: int
    start: datetime
    end: datetime
    reason: str


@dataclass(frozen=True)
class SafetyReport:
    passed: bool
    max_received_dbm: float
    margin_db: float
    damage_threshold_dbm: float


def clearance_band(f_c: float, delta_f_c: float, n: int) -> tuple[float, float]:
    """Frequency band [f_c - n*bw, f_c + n*bw] that must be radio quiet."""
    if n < 0:
        raise ConfigError("n must be >= 0")
    if f_c <= n * delta_f_c:
        raise NegativeLowEdge(
            f"f_c must exceed n*delta_f_c ({f_c} <= {n * delta_f_c})")
    return (f_c - n * delta_f_c, f_c + n * delta_f_c)


def ellipse_overlap_fraction(fp_on, fp_off, n_radial: int = 24,
                             n_angular: int = 48) -> float:
    """Fraction of the ON ellipse's area also inside the OFF ellipse.

    Deterministic area sampling: points uniform in area over the ON ellipse
    (uniform in r^2 and angle), each tested against the OFF ellipse in its
    own frame.
    """
    r = np.sqrt((np.arange(n_radial) + 0.5) / n_radial)
    th = (np.arange(n_angular) + 0.5) * (2.0 * math.pi / n_angular)
    rr, tt = np.meshgrid(r, th)
    x = (rr * np.cos(tt)).ravel() * fp_on.semi_major
    y = (rr * np.sin(tt)).ravel() * fp_on.semi_minor
    on = _frame(fp_on)
    points = on["center"] + on["u_major"] * x + on["u_minor"] * y
    margins = _ellipse_margins(_frame(fp_off), points, 1.0)
    return float(np.mean(margins <= 0.0))


def _contaminated(plan_mode: str, lattice: ScanLattice,
                  on_start: datetime, on_end: datetime):
    """(line, sample) keys of every dwell an ON pulse contaminates.

    A pixel-mode pulse contaminates the dwells it transmits into.  In
    scan-line mode the scan phase within a line is not predictable, so
    every sample of each line the pulse transmits into is suspect.
    """
    lines, samples = lattice.dwells(lattice.offset(on_start),
                                    lattice.offset(on_end))
    if plan_mode == "scanline":
        return [(line, i) for line in dict.fromkeys(lines.tolist())
                for i in range(lattice.spec.samples_per_scan)]
    return list(zip(lines.tolist(), samples.tolist()))


def plan_experiment(tx: GroundPoint,
                    sat: tuple[OrbitalElements, RadiometerSpec],
                    window: tuple[datetime, datetime],
                    overlap_threshold: float = 0.5,
                    max_pulse: float = None,
                    policy: BufferPolicy = None,
                    ground_altitude: float = 0.0,
                    tx_id: str = "tx") -> FlashlightPlan:
    """Plan ON pulses for every predicted pixel pass over the transmitter
    at tx, named tx_id as in dark_intervals.

    Phase-locked radiometers get pixel-level pulses (default cap 0.1 s);
    otherwise whole scan lines are used with a pulse of one scan period.
    A max_pulse that is not > 0 raises ValueError.
    Pulses whose ON/OFF pixel overlap falls below the threshold are
    discarded and counted in the diagnostics.

    The ON and OFF footprints are taken at the float dwell starts that
    geofence tests (ScanLattice.key_tau), not at the whole-microsecond
    ScanSample.t a written pulse names, less than a microsecond away.
    """
    elements, spec = sat
    if spec.phase_locked:
        mode = "pixel"
        policy = policy or BufferPolicy(PolicyKind.PIXEL_LEVEL, 2.0)
        max_pulse = 0.1 if max_pulse is None else max_pulse
    else:
        mode = "scanline"
        policy = policy or BufferPolicy(PolicyKind.SCAN_LINE, 2.0)
        max_pulse = spec.scan_period if max_pulse is None else max_pulse
    if not max_pulse > 0:
        raise ValueError(f"max_pulse must be > 0, got {max_pulse!r}")

    schedule = dark_intervals(tx, [sat], window, policy, tx_id=tx_id,
                              ground_altitude=ground_altitude)
    lattice = ScanLattice(spec, elements.epoch)
    n = spec.samples_per_scan
    # Per pass: its pulse and ON dwell, in pixel mode the one active at the
    # middle of the pulse, in scan-line mode sample 0 of its line.
    passes = []
    for iv in schedule.intervals:
        on_end = min(iv.end, add_seconds(iv.start, max_pulse))
        mid = add_seconds(iv.start, (on_end - iv.start).total_seconds() / 2)
        line, sample = (lattice.index(lattice.offset(mid)) if mode == "pixel"
                        else (iv.scan_line_index, 0))
        passes.append((iv.start, on_end, int(line), int(sample)))
    # Every ON dwell and its OFF reference, one line later, footprinted in
    # one batch from the states at the dwells' starts.
    keys = np.array([(line + k) * n + sample for k in (0, 1)
                     for _, _, line, sample in passes], dtype=np.int64)
    start = schedule.window[0]
    footprints = radiometer.footprints_batch(
        *inertial_states(elements, start,
                         lattice.key_tau(keys) - lattice.offset(start)),
        spec.boresight_of(keys % n), spec, ground_altitude)

    pulses = []
    discarded_overlap = 0
    discarded_off_conflict = 0
    contaminated = set()
    reserved_off = set()
    for at, (on_start, on_end, line, sample) in enumerate(passes):
        dwells = _contaminated(mode, lattice, on_start, on_end)
        off_keys = ({(line + 1, sample)} if mode == "pixel" else
                    {(line + 1, i) for i in range(n)})

        # The OFF reference is only valid if the flashlight is silent while
        # the radiometer integrates it.  Adjacent-line passes would
        # otherwise contaminate each other's references, and a pulse can
        # run on into its own OFF line, so conflicting intervals are
        # skipped (and counted).
        if (any(d in reserved_off or d in off_keys for d in dwells)
                or any(k in contaminated for k in off_keys)):
            discarded_off_conflict += 1
            continue

        frac = ellipse_overlap_fraction(footprints[at],
                                        footprints[len(passes) + at])
        if frac < overlap_threshold:
            discarded_overlap += 1
            continue
        contaminated.update(dwells)
        reserved_off.update(off_keys)
        target, off_ref = (lattice.scan_sample(line + k, sample)
                           for k in (0, 1))
        pulses.append(Pulse(on_start=on_start, on_end=on_end, target=target,
                            off_reference=off_ref, overlap_fraction=frac))

    return FlashlightPlan(
        tx=tx,
        tx_id=tx_id,
        elements=elements,
        spec=spec,
        policy=policy,
        window=(ensure_utc(window[0]), ensure_utc(window[1])),
        pulses=tuple(pulses),
        max_pulse=max_pulse,
        overlap_threshold=overlap_threshold,
        mode=mode,
        diagnostics={
            "passes_considered": len(schedule.intervals),
            "discarded_overlap": discarded_overlap,
            "discarded_off_conflict": discarded_off_conflict,
        },
    )


def pair_measurements(plan: FlashlightPlan, samples,
                      mode: PairingMode) -> PairingResult:
    """Pair ON pulses with OFF measurements.

    Same-radiometer mode matches each pulse's bound OFF pixel by scan
    sample key; cross-satellite mode matches the nearest pixel center from
    another satellite and applies the loss-chain correction between the two
    geometries.  ON pulses without a usable OFF measurement are returned in
    unmatched, never silently dropped.
    """
    by_key = {s.key: s for s in samples}
    pairs = []
    unmatched = []
    if mode is PairingMode.SAME_RADIOMETER_ADJACENT_LINES:
        for pulse in plan.pulses:
            on_key = (plan.satellite_id, pulse.target.scan_line_index,
                      pulse.target.sample_index)
            off_key = (plan.satellite_id,
                       pulse.off_reference.scan_line_index,
                       pulse.off_reference.sample_index)
            on = by_key.get(on_key)
            off = by_key.get(off_key)
            if on is None or off is None:
                unmatched.append(on_key if off is not None or on is None
                                 else off_key)
                continue
            pairs.append(OnOffPair(
                on_sample_power=on.power_w,
                off_sample_power=off.power_w,
                delta_t=plan.spec.scan_period,
                mode=mode,
                loss_correction=0.0,
            ))
        return PairingResult(tuple(pairs), tuple(unmatched))

    # Cross-satellite: ON samples from this plan's satellite, OFF candidates
    # from any other, matched by pixel-center proximity.
    on_samples = [s for s in samples if s.satellite_id == plan.satellite_id]
    off_candidates = [s for s in samples
                      if s.satellite_id != plan.satellite_id]
    for on in on_samples:
        if on.center is None:
            unmatched.append(on.key)
            continue
        best = None
        best_dist = float("inf")
        for off in off_candidates:
            if off.center is None:
                continue
            d = float(np.linalg.norm(on.center.ecef() - off.center.ecef()))
            if d < best_dist:
                best, best_dist = off, d
        if best is None:
            unmatched.append(on.key)
            continue
        if on.loss is None or best.loss is None:
            raise ConfigError(
                "cross-satellite pairing needs a LossChain on both samples")
        delta_t = (abs((best.t - on.t).total_seconds())
                   if on.t and best.t else float("nan"))
        pairs.append(OnOffPair(
            on_sample_power=on.power_w,
            off_sample_power=best.power_w,
            delta_t=delta_t,
            mode=mode,
            loss_correction=on.loss.total - best.loss.total,
        ))
    return PairingResult(tuple(pairs), tuple(unmatched))


def safety_audit(plan: FlashlightPlan, p_on_dbm: float,
                 damage_threshold_dbm: float,
                 g_tx_dbi: float = 15.0, g_rx_dbi: float = 30.0,
                 polarization_db: float = -3.0,
                 atmosphere=None) -> SafetyReport:
    """Worst-case received power across all pulses vs the damage threshold.

    Worst case means maximum-gain alignment at each pulse's slant geometry;
    the pass criterion is strict (received strictly below threshold).
    """
    max_received = float("-inf")
    for pulse in plan.pulses:
        state = propagate(plan.elements, pulse.on_start)
        look = topocentric(state, plan.tx)
        loss = float(fspl_db(look.slant_range, plan.spec.center_frequency))
        if atmosphere is not None and look.elevation > 0:
            loss += float(atmosphere.loss_db(look.elevation))
        loss += polarization_db + g_tx_dbi + g_rx_dbi
        max_received = max(max_received, p_on_dbm + loss)
    return SafetyReport(
        passed=max_received < damage_threshold_dbm,
        max_received_dbm=max_received,
        margin_db=damage_threshold_dbm - max_received,
        damage_threshold_dbm=damage_threshold_dbm,
    )


def exclusion_records(plan: FlashlightPlan) -> list[ExclusionRecord]:
    """One record per pixel an ON pulse contaminates.

    Every instant inside a pulse is subtension time by construction, so the
    dwells a pulse transmits into (ScanLattice.dwells) are exactly the
    contaminated ones.  OFF-reference pixels are one scan line later than
    any pulse and are never excluded.  A record ends where the next dwell
    starts, both counted from the epoch.
    """
    lattice = ScanLattice(plan.spec, plan.elements.epoch)
    reason = ("rf-flashlight ON (scan-line mode)" if plan.mode == "scanline"
              else "rf-flashlight ON")
    records = []
    seen = set()
    for pulse in plan.pulses:
        for key in _contaminated(plan.mode, lattice, pulse.on_start,
                                 pulse.on_end):
            if key in seen:
                continue
            seen.add(key)
            records.append(ExclusionRecord(
                satellite_id=plan.satellite_id,
                scan_line_index=key[0],
                sample_index=key[1],
                start=lattice.scan_sample(*key).t,
                end=add_seconds(lattice.epoch,
                                lattice.tau(key[0], key[1] + 1)),
                reason=reason,
            ))
    return records
