"""UTC time helpers: julian dates, TLE epochs, and the leap-second table.

All public APIs take and return timezone-aware UTC datetimes.  Interval
arithmetic uses the POSIX convention (every day is 86 400 s), which matches
how TLE epochs and SGP4 time offsets are defined.  The cumulative TAI-UTC
leap-second table is compiled in below for callers that need it; at the
hundred-millisecond scheduling granularity of this package the sub-second
placement of a leap second is irrelevant, but the table keeps the time scale
explicit and deterministic.
"""
from __future__ import annotations

from datetime import datetime, timedelta, timezone

SECONDS_PER_DAY = 86400.0
MINUTES_PER_DAY = 1440.0

#: Julian date of the Unix epoch 1970-01-01T00:00:00Z.
JD_UNIX_EPOCH = 2440587.5

#: SGP4 epochs count days from 1949 December 31 00:00 UT.
JD_1949_DEC_31 = 2433281.5

# (effective UTC instant, TAI-UTC seconds).  Update path: append the new row
# announced in IERS Bulletin C and bump the package version; the table is
# data, no code change is needed.
_LEAP_SECONDS = (
    (datetime(1972, 1, 1, tzinfo=timezone.utc), 10),
    (datetime(1972, 7, 1, tzinfo=timezone.utc), 11),
    (datetime(1973, 1, 1, tzinfo=timezone.utc), 12),
    (datetime(1974, 1, 1, tzinfo=timezone.utc), 13),
    (datetime(1975, 1, 1, tzinfo=timezone.utc), 14),
    (datetime(1976, 1, 1, tzinfo=timezone.utc), 15),
    (datetime(1977, 1, 1, tzinfo=timezone.utc), 16),
    (datetime(1978, 1, 1, tzinfo=timezone.utc), 17),
    (datetime(1979, 1, 1, tzinfo=timezone.utc), 18),
    (datetime(1980, 1, 1, tzinfo=timezone.utc), 19),
    (datetime(1981, 7, 1, tzinfo=timezone.utc), 20),
    (datetime(1982, 7, 1, tzinfo=timezone.utc), 21),
    (datetime(1983, 7, 1, tzinfo=timezone.utc), 22),
    (datetime(1985, 7, 1, tzinfo=timezone.utc), 23),
    (datetime(1988, 1, 1, tzinfo=timezone.utc), 24),
    (datetime(1990, 1, 1, tzinfo=timezone.utc), 25),
    (datetime(1991, 1, 1, tzinfo=timezone.utc), 26),
    (datetime(1992, 7, 1, tzinfo=timezone.utc), 27),
    (datetime(1993, 7, 1, tzinfo=timezone.utc), 28),
    (datetime(1994, 7, 1, tzinfo=timezone.utc), 29),
    (datetime(1996, 1, 1, tzinfo=timezone.utc), 30),
    (datetime(1997, 7, 1, tzinfo=timezone.utc), 31),
    (datetime(1999, 1, 1, tzinfo=timezone.utc), 32),
    (datetime(2006, 1, 1, tzinfo=timezone.utc), 33),
    (datetime(2009, 1, 1, tzinfo=timezone.utc), 34),
    (datetime(2012, 7, 1, tzinfo=timezone.utc), 35),
    (datetime(2015, 7, 1, tzinfo=timezone.utc), 36),
    (datetime(2017, 1, 1, tzinfo=timezone.utc), 37),
)


def ensure_utc(t: datetime) -> datetime:
    """Return t as an aware UTC datetime; naive datetimes are rejected."""
    if t.tzinfo is None:
        raise ValueError("naive datetime; timestamps must be timezone-aware UTC")
    return t.astimezone(timezone.utc)


def tai_minus_utc(t: datetime) -> int:
    """Cumulative leap seconds (TAI-UTC) in effect at UTC instant t."""
    t = ensure_utc(t)
    offset = 10
    for effective, value in _LEAP_SECONDS:
        if t >= effective:
            offset = value
        else:
            break
    return offset


def julian_date(t: datetime) -> float:
    """Julian date of a UTC instant (UT1 approximated by UTC)."""
    t = ensure_utc(t)
    return JD_UNIX_EPOCH + t.timestamp() / SECONDS_PER_DAY


def from_julian_date(jd: float) -> datetime:
    """Inverse of julian_date, to microsecond resolution."""
    seconds = (jd - JD_UNIX_EPOCH) * SECONDS_PER_DAY
    return datetime.fromtimestamp(round(seconds, 6), tz=timezone.utc)


def days_since(t: datetime, t0: datetime) -> float:
    """Elapsed days t - t0 on the POSIX timeline."""
    return (ensure_utc(t) - ensure_utc(t0)).total_seconds() / SECONDS_PER_DAY


def minutes_since(t: datetime, t0: datetime) -> float:
    """Elapsed minutes t - t0 on the POSIX timeline."""
    return (ensure_utc(t) - ensure_utc(t0)).total_seconds() / 60.0


def add_seconds(t: datetime, seconds: float) -> datetime:
    return ensure_utc(t) + timedelta(seconds=seconds)


def iso_utc(t: datetime) -> str:
    """ISO 8601 with microseconds and a 'Z' suffix, as outputs print it."""
    return t.isoformat(timespec="microseconds").replace("+00:00", "Z")


def tle_epoch_to_datetime(two_digit_year: int, day_of_year: float) -> datetime:
    """Decode the TLE epoch fields (YY, DDD.DDDDDDDD) to a UTC datetime.

    Years 57-99 map to 1957-1999, 00-56 to 2000-2056 (the NORAD pivot).
    Day 1.0 is January 1 00:00 UTC.
    """
    year = two_digit_year + (1900 if two_digit_year >= 57 else 2000)
    jan1 = datetime(year, 1, 1, tzinfo=timezone.utc)
    return jan1 + timedelta(days=day_of_year - 1.0)
