from datetime import datetime, timedelta, timezone

import pytest

from darkspace.timeutil import (JD_UNIX_EPOCH, SECONDS_PER_DAY, julian_date,
                                minutes_since, tle_epoch_to_datetime)


def test_julian_date_j2000():
    t = datetime(2000, 1, 1, 12, 0, tzinfo=timezone.utc)
    assert julian_date(t) == pytest.approx(2451545.0)


def test_julian_round_trip():
    # A single-float julian date resolves ~50 us at this magnitude.
    t = datetime(2023, 4, 23, 7, 31, 12, 345678, tzinfo=timezone.utc)
    seconds = (julian_date(t) - JD_UNIX_EPOCH) * SECONDS_PER_DAY
    back = datetime.fromtimestamp(round(seconds, 6), tz=timezone.utc)
    assert abs((back - t).total_seconds()) < 1.0e-4


def test_naive_datetime_rejected():
    with pytest.raises(ValueError):
        julian_date(datetime(2023, 1, 1))


def test_tle_epoch_pivot():
    assert tle_epoch_to_datetime(57, 1.0).year == 1957
    assert tle_epoch_to_datetime(99, 1.0).year == 1999
    assert tle_epoch_to_datetime(0, 1.0).year == 2000
    assert tle_epoch_to_datetime(56, 1.0).year == 2056


def test_tle_epoch_day_fraction():
    t = tle_epoch_to_datetime(23, 113.5)
    assert t == datetime(2023, 4, 23, 12, 0, tzinfo=timezone.utc)


def test_minutes_since():
    a = datetime(2023, 1, 1, tzinfo=timezone.utc)
    assert minutes_since(a + timedelta(hours=2), a) == 120.0
