"""Two-line element set parser with strict format and checksum validation."""
from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime

from ..errors import ChecksumMismatch, FieldSyntax, LineLength, TleError
from ..timeutil import tle_epoch_to_datetime

TLE_LINE_LENGTH = 69

_EXP_FIELD = re.compile(r"^([ +-])?(\d{5})([+-]\d)$")


@dataclass(frozen=True)
class OrbitalElements:
    """Mean orbital elements decoded from a TLE.

    Angles are degrees normalized to [0, 360), mean_motion is rev/day and
    bstar is in 1/earth-radii, all exactly as carried by the element set.
    """
    catalog_number: int
    epoch: datetime
    inclination: float
    raan: float
    eccentricity: float
    arg_perigee: float
    mean_anomaly: float
    mean_motion: float
    bstar: float
    element_set_checksum_ok: bool
    name: str | None = None
    ndot: float = 0.0
    nddot: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eccentricity < 1.0:
            raise ValueError(
                f"eccentricity {self.eccentricity} outside [0, 1)")
        if self.mean_motion <= 0.0:
            raise ValueError(f"mean motion {self.mean_motion} must be > 0")

    @property
    def satellite_id(self) -> str:
        """Stable identifier used in schedules and reports."""
        return self.name if self.name else f"CAT{self.catalog_number}"


def tle_checksum(line: str) -> int:
    """Mod-10 checksum over the first 68 columns; '-' counts as 1."""
    total = 0
    for ch in line[:68]:
        if ch.isdigit():
            total += int(ch)
        elif ch == "-":
            total += 1
    return total % 10


def _field(line_text: str, line_no: int, start: int, end: int, parser,
           what: str):
    """Parse columns [start, end) (0-based) with a 1-based error column."""
    raw = line_text[start:end]
    try:
        return parser(raw)
    except (ValueError, AttributeError):
        raise FieldSyntax(
            f"line {line_no} columns {start + 1}-{end}: "
            f"cannot parse {what} from {raw!r}",
            line=line_no, column=start + 1) from None


def _parse_exp(raw: str) -> float:
    """Decode TLE assumed-decimal exponent fields like ' 28098-4'."""
    if raw.strip() == "":
        return 0.0
    m = _EXP_FIELD.match(raw)
    if not m:
        raise ValueError(raw)
    sign = -1.0 if m.group(1) == "-" else 1.0
    mantissa = int(m.group(2)) / 1.0e5
    return sign * mantissa * 10.0 ** int(m.group(3))


def _validate_line(line: str, line_no: int, expected_tag: str) -> None:
    if len(line) != TLE_LINE_LENGTH:
        raise LineLength(
            f"line {line_no} is {len(line)} characters, expected "
            f"{TLE_LINE_LENGTH}", line=line_no, column=len(line) + 1)
    if line[0] != expected_tag:
        raise FieldSyntax(
            f"line {line_no} column 1: expected line number "
            f"{expected_tag!r}, found {line[0]!r}", line=line_no, column=1)


def _verify_checksum(line: str, line_no: int) -> None:
    stated = line[68]
    if not stated.isdigit():
        raise ChecksumMismatch(
            f"line {line_no} column 69: checksum digit is {stated!r}",
            line=line_no, column=69)
    computed = tle_checksum(line)
    if computed != int(stated):
        raise ChecksumMismatch(
            f"line {line_no} column 69: checksum is {stated}, computed "
            f"{computed}", line=line_no, column=69)


def parse_tle(text: str, verify_checksum: bool = True) -> OrbitalElements:
    """Parse a two-line element set, optionally preceded by a name line.

    Raises LineLength, ChecksumMismatch, or FieldSyntax; each error reports
    the offending line and column.  With verify_checksum=False a bad
    checksum is recorded in element_set_checksum_ok instead of raising.
    """
    lines = [ln.rstrip("\r\n") for ln in text.splitlines() if ln.strip()]
    name = None
    if len(lines) == 3:
        name = lines[0].strip().lstrip("0 ").strip() or None
        lines = lines[1:]
    if len(lines) != 2:
        raise LineLength(
            f"expected 2 element lines (plus optional name line), got "
            f"{len(lines)}", line=None, column=None)
    line1, line2 = lines

    _validate_line(line1, 1, "1")
    _validate_line(line2, 2, "2")

    checksum_ok = True
    try:
        _verify_checksum(line1, 1)
        _verify_checksum(line2, 2)
    except ChecksumMismatch:
        if verify_checksum:
            raise
        checksum_ok = False

    catalog1 = _field(line1, 1, 2, 7, lambda s: int(s), "catalog number")
    catalog2 = _field(line2, 2, 2, 7, lambda s: int(s), "catalog number")
    if catalog1 != catalog2:
        raise FieldSyntax(
            f"catalog number differs between lines: {catalog1} vs {catalog2}",
            line=2, column=3)

    epoch_year = _field(line1, 1, 18, 20, lambda s: int(s), "epoch year")
    epoch_day = _field(line1, 1, 20, 32, lambda s: float(s), "epoch day")
    ndot = _field(line1, 1, 33, 43, lambda s: float(s), "mean motion rate")
    nddot = _field(line1, 1, 44, 52, _parse_exp, "mean motion acceleration")
    bstar = _field(line1, 1, 53, 61, _parse_exp, "bstar drag term")

    inclination = _field(line2, 2, 8, 16, lambda s: float(s), "inclination")
    raan = _field(line2, 2, 17, 25, lambda s: float(s), "RAAN")
    eccentricity = _field(line2, 2, 26, 33,
                          lambda s: float("0." + s.strip()), "eccentricity")
    arg_perigee = _field(line2, 2, 34, 42, lambda s: float(s),
                         "argument of perigee")
    mean_anomaly = _field(line2, 2, 43, 51, lambda s: float(s),
                          "mean anomaly")
    mean_motion = _field(line2, 2, 52, 63, lambda s: float(s), "mean motion")

    if mean_motion <= 0.0:
        raise FieldSyntax(
            f"line 2 columns 53-63: mean motion {mean_motion} must be > 0",
            line=2, column=53)

    return OrbitalElements(
        catalog_number=catalog1,
        epoch=tle_epoch_to_datetime(epoch_year, epoch_day),
        inclination=inclination % 360.0,
        raan=raan % 360.0,
        eccentricity=eccentricity,
        arg_perigee=arg_perigee % 360.0,
        mean_anomaly=mean_anomaly % 360.0,
        mean_motion=mean_motion,
        bstar=bstar,
        element_set_checksum_ok=checksum_ok,
        name=name,
        ndot=ndot,
        nddot=nddot,
    )


def load_tle_file(path) -> OrbitalElements:
    """Read a TLE (optionally with name line) from a text file.  A file
    that cannot be read as ASCII text raises TleError naming the path."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise TleError(f"cannot read TLE file {path}: {exc}") from None
    return parse_tle(text)


def format_tle(name: str | None, line1_body: str, line2_body: str) -> str:
    """Append mod-10 checksums to 68-column line bodies (fixture helper)."""
    if len(line1_body) != 68 or len(line2_body) != 68:
        raise ValueError("line bodies must be exactly 68 columns")
    lines = []
    if name:
        lines.append(name)
    lines.append(line1_body + str(tle_checksum(line1_body + "0")))
    lines.append(line2_body + str(tle_checksum(line2_body + "0")))
    return "\n".join(lines) + "\n"
