"""Ground-to-satellite link budget: loss chain, noise power, ON/OFF ratio.

Conventions: losses are negative dB, gains positive dBi, and every ratio is
computed in linear watts internally so the ON/OFF equation never compounds
logarithm round-off.  dB values only appear at the interfaces.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, ElevationNonPositive, NonPositiveInput,
                     RatioNotAboveOne, TableOutOfRange, ZeroDenominator)

SPEED_OF_LIGHT = 299792458.0
BOLTZMANN = 1.380649e-23


def db_to_linear(db):
    return 10.0 ** (np.asarray(db, dtype=float) / 10.0)


def dbm_to_watts(dbm):
    return 10.0 ** (np.asarray(dbm, dtype=float) / 10.0) * 1.0e-3


@dataclass(frozen=True)
class LossChain:
    """Loss decomposition between transmitter and radiometer, in dB.

    total is always the exact dB sum of the parts.
    """
    fspl: float
    atmosphere: float
    polarization: float
    g_tx: float
    g_rx: float

    @property
    def total(self) -> float:
        return (self.fspl + self.atmosphere + self.polarization
                + self.g_tx + self.g_rx)


@dataclass(frozen=True)
class LinkBudget:
    """Evaluated flashlight link: powers in their native units.

    p_on and p_received are dBm, p_noise and p_h2o watts, and on_off_ratio
    is the dimensionless receiver ON/OFF power ratio (>= 1).
    """
    p_on: float
    loss: LossChain
    p_noise: float
    p_h2o: float
    p_received: float
    on_off_ratio: float


def fspl_db(slant_range_m, frequency_hz):
    """Free-space path loss, negative dB: -20*log10(4*pi*d*f/c)."""
    d = np.asarray(slant_range_m, dtype=float)
    f = np.asarray(frequency_hz, dtype=float)
    if np.any(d <= 0) or np.any(f <= 0):
        raise NonPositiveInput("slant range and frequency must be positive")
    return (-20.0 * np.log10(4.0 * math.pi * d * f / SPEED_OF_LIGHT))[()]


class CosecantModel:
    """Atmospheric slab model: zenith loss scaled by csc(elevation)."""

    def __init__(self, a_zenith_db: float):
        if a_zenith_db <= 0:
            raise ConfigError("a_zenith_db is the positive zenith loss in dB")
        self.a_zenith_db = a_zenith_db

    def loss_db(self, elevation_deg):
        el = np.asarray(elevation_deg, dtype=float)
        if np.any(el <= 0):
            raise ElevationNonPositive(
                "atmospheric loss undefined at or below the horizon")
        return (-self.a_zenith_db / np.sin(np.radians(el)))[()]


class TableModel:
    """Piecewise-linear interpolation over (elevation_deg, loss_db) pairs."""

    def __init__(self, points):
        pts = sorted((float(e), float(l)) for e, l in points)
        if len(pts) < 1:
            raise ConfigError("atmosphere table needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ConfigError(
                "atmosphere table elevations and losses must be finite")
        if any(l > 0 for _, l in pts):
            raise ConfigError("atmosphere table losses must be <= 0 dB")
        self.elevations = np.array([e for e, _ in pts])
        self.losses = np.array([l for _, l in pts])

    @classmethod
    def from_csv(cls, path):
        """Read elevation_deg,loss_db rows.  Blank lines and lines that
        start with '#' are skipped; the first other line is a header when
        its first field is not a number.  A file that cannot be read as
        UTF-8 text, or a malformed row, raises ConfigError naming the file
        (and the line)."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                rows = fh.read().split("\n")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read atmosphere table {path}: "
                              f"{exc}") from None
        pts, first = [], True
        for number, row in enumerate(rows, 1):
            row = row.strip()
            if not row or row.startswith("#"):
                continue
            fields = row.split(",")
            if first:
                first = False
                try:
                    float(fields[0])
                except ValueError:
                    continue  # header
            try:
                e, l = map(float, fields)
            except ValueError:
                e = l = math.nan
            if not (math.isfinite(e) and math.isfinite(l)):
                raise ConfigError(
                    f"{path}, line {number}: expected two finite numbers "
                    f"elevation_deg,loss_db, got {row!r}")
            pts.append((e, l))
        try:
            return cls(pts)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def loss_db(self, elevation_deg):
        el = np.asarray(elevation_deg, dtype=float)
        if np.any(el <= 0):
            raise ElevationNonPositive(
                "atmospheric loss undefined at or below the horizon")
        if np.any(el < self.elevations[0]) or np.any(el > self.elevations[-1]):
            raise TableOutOfRange(
                f"elevation outside table range "
                f"[{self.elevations[0]}, {self.elevations[-1]}] deg")
        return np.interp(el, self.elevations, self.losses)[()]


def total_loss_db(fspl: float, atmosphere: float, polarization: float,
                  g_tx: float, g_rx: float) -> LossChain:
    """Assemble the loss chain; the total is their exact dB sum."""
    return LossChain(fspl=fspl, atmosphere=atmosphere,
                     polarization=polarization, g_tx=g_tx, g_rx=g_rx)


def noise_power(n_temp_k: float, bandwidth_hz: float) -> float:
    """Receiver noise power k_b * N_temp * bandwidth, watts."""
    if n_temp_k < 0 or bandwidth_hz < 0:
        raise NonPositiveInput("noise temperature and bandwidth must be >= 0")
    return BOLTZMANN * n_temp_k * bandwidth_hz


def on_off_ratio(p_on_w: float, loss_total_db: float, p_noise_w: float,
                 p_h2o_w: float) -> float:
    """Receiver power ratio between transmitter ON and OFF.

    ratio = 1 + L*P_on / (P_noise + P_h2o), with L the linear total loss.
    """
    if p_on_w < 0:
        raise NonPositiveInput("transmit power must be >= 0")
    denom = p_noise_w + p_h2o_w
    if denom <= 0:
        raise ZeroDenominator("P_noise + P_H2O must be positive")
    return 1.0 + p_on_w * float(db_to_linear(loss_total_db)) / denom


def required_tx_power(target_ratio: float, loss_total_db: float,
                      p_noise_w: float, p_h2o_w: float) -> float:
    """Transmit power (watts) that produces the target ON/OFF ratio.

    Exact algebraic inverse of on_off_ratio.
    """
    if target_ratio <= 1.0:
        raise RatioNotAboveOne("target ratio must be > 1")
    denom = p_noise_w + p_h2o_w
    if denom <= 0:
        raise ZeroDenominator("P_noise + P_H2O must be positive")
    return (target_ratio - 1.0) * denom / float(db_to_linear(loss_total_db))


def evaluate(p_on_dbm: float, loss: LossChain, n_temp_k: float,
             bandwidth_hz: float, p_h2o_w: float = None,
             p_h2o_noise_multiplier: float = 100.0) -> LinkBudget:
    """Evaluate the full link budget for one geometry.

    P_H2O may be given in watts; otherwise it defaults to the configured
    multiple of the receiver noise power.
    """
    p_noise = noise_power(n_temp_k, bandwidth_hz)
    if p_h2o_w is None:
        p_h2o_w = p_h2o_noise_multiplier * p_noise
    p_on_w = float(dbm_to_watts(p_on_dbm))
    ratio = on_off_ratio(p_on_w, loss.total, p_noise, p_h2o_w)
    return LinkBudget(
        p_on=p_on_dbm,
        loss=loss,
        p_noise=p_noise,
        p_h2o=p_h2o_w,
        p_received=p_on_dbm + loss.total,
        on_off_ratio=ratio,
    )
