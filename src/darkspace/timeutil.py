"""UTC time helpers: julian dates and TLE epochs.

All public APIs take and return timezone-aware UTC datetimes.  Interval
arithmetic uses the POSIX convention (every day is 86 400 s), which matches
how TLE epochs and SGP4 time offsets are defined.
"""
from __future__ import annotations

from datetime import datetime, timedelta, timezone

SECONDS_PER_DAY = 86400.0
MINUTES_PER_DAY = 1440.0

#: Julian date of the Unix epoch 1970-01-01T00:00:00Z.
JD_UNIX_EPOCH = 2440587.5

#: SGP4 epochs count days from 1949 December 31 00:00 UT.
JD_1949_DEC_31 = 2433281.5


def ensure_utc(t: datetime) -> datetime:
    """Return t as an aware UTC datetime; naive datetimes are rejected."""
    if t.tzinfo is None:
        raise ValueError("naive datetime; timestamps must be timezone-aware UTC")
    return t.astimezone(timezone.utc)


def julian_date(t: datetime) -> float:
    """Julian date of a UTC instant (UT1 approximated by UTC)."""
    t = ensure_utc(t)
    return JD_UNIX_EPOCH + t.timestamp() / SECONDS_PER_DAY


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
