"""Loss chain arithmetic, noise power, and the ON/OFF ratio equation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkspace.errors import (ConfigError, ElevationNonPositive,
                              NonPositiveInput, RatioNotAboveOne,
                              TableOutOfRange, ZeroDenominator)
from darkspace.linkbudget import (BOLTZMANN, CosecantModel, TableModel,
                                  db_to_linear, dbm_to_watts, evaluate,
                                  fspl_db, noise_power, on_off_ratio,
                                  required_tx_power, total_loss_db)

TABLE_POINTS = [(25.8, -10.9), (85.6, -6.1)]


def test_fspl_reference_value():
    # Hand oracle: 20*log10(4*pi*1e3*23.8e9 / c) = 119.979...
    assert fspl_db(1.0e3, 23.8e9) == pytest.approx(-119.98, abs=0.01)


def test_fspl_doubling_distance():
    a = fspl_db(1.0e3, 23.8e9)
    b = fspl_db(2.0e3, 23.8e9)
    assert a - b == pytest.approx(6.02, abs=0.01)


def test_fspl_table_edge_geometry():
    assert fspl_db(1578.0e3, 23.8e9) == pytest.approx(-184.0, abs=0.5)


def test_fspl_rejects_nonpositive():
    with pytest.raises(NonPositiveInput):
        fspl_db(0.0, 1.0e9)
    with pytest.raises(NonPositiveInput):
        fspl_db(1.0e3, -1.0)


def test_fspl_monotone():
    d = np.logspace(2, 7, 40)
    losses = fspl_db(d, 23.8e9)
    assert np.all(np.diff(losses) < 0)
    f = np.logspace(9, 11, 40)
    assert np.all(np.diff(fspl_db(1.0e5, f)) < 0)


def test_table_model_exact_points():
    model = TableModel(TABLE_POINTS)
    assert model.loss_db(25.8) == pytest.approx(-10.9)
    assert model.loss_db(85.6) == pytest.approx(-6.1)


@pytest.mark.parametrize("point", [(math.nan, -1.0), (30.0, -math.inf),
                                   (math.inf, -1.0)])
def test_table_model_rejects_non_finite_points(point):
    with pytest.raises(ConfigError, match="finite"):
        TableModel(TABLE_POINTS + [point])


def test_table_model_out_of_range():
    model = TableModel(TABLE_POINTS)
    with pytest.raises(TableOutOfRange):
        model.loss_db(10.0)
    with pytest.raises(ElevationNonPositive):
        model.loss_db(-3.0)


def test_cosecant_model():
    model = CosecantModel(6.08)
    assert model.loss_db(90.0) == pytest.approx(-6.08)
    assert model.loss_db(30.0) == pytest.approx(-12.16, abs=0.01)
    with pytest.raises(ElevationNonPositive):
        model.loss_db(0.0)


def test_total_loss_table_rows():
    nadir = total_loss_db(-185.0, -6.1, -3.0, 15.0, 30.0)
    assert nadir.total == pytest.approx(-149.1, abs=1e-9)
    assert round(nadir.total) == -149
    edge = total_loss_db(-184.0, -10.9, -3.0, 15.0, 30.0)
    assert edge.total == pytest.approx(-152.9, abs=1e-9)
    assert round(edge.total) == -153


def test_total_loss_fspl_only():
    chain = total_loss_db(-180.0, 0.0, 0.0, 0.0, 0.0)
    assert chain.total == -180.0


def test_loss_chain_total_recomputes():
    chain = total_loss_db(-185.0, -6.1, -3.0, 15.0, 30.0)
    assert chain.total == (chain.fspl + chain.atmosphere
                           + chain.polarization + chain.g_tx + chain.g_rx)


def test_noise_power_reference():
    p = noise_power(500.0, 200.0e6)
    assert p == pytest.approx(1.3806e-12, rel=1e-3)
    assert 10.0 * math.log10(p / 1.0e-3) == pytest.approx(-88.6, abs=0.05)


def test_noise_power_zero_bandwidth():
    assert noise_power(500.0, 0.0) == 0.0


def test_noise_power_linear_in_temperature():
    assert noise_power(1000.0, 1.0e6) == pytest.approx(
        2 * noise_power(500.0, 1.0e6))


def test_ratio_off_transmitter():
    assert on_off_ratio(0.0, -149.0, 1e-12, 1e-10) == 1.0


def test_ratio_ten_exactly():
    # Choose P_on so the excess term is exactly 9x the denominator.
    p_noise, p_h2o = 1.0e-12, 99.0e-12
    loss_db_total = -149.0
    p_on = 9.0 * (p_noise + p_h2o) / float(db_to_linear(loss_db_total))
    assert on_off_ratio(p_on, loss_db_total, p_noise, p_h2o) == pytest.approx(
        10.0, rel=1e-12)


def test_received_power_anchor():
    """P_on 40 dBm through the -149 dB chain lands near -110 dBm."""
    chain = total_loss_db(-185.0, -6.1, -3.0, 15.0, 30.0)
    budget = evaluate(40.0, chain, 500.0, 200.0e6)
    assert budget.p_received == pytest.approx(-109.0, abs=0.2)
    assert abs(budget.p_received - (-110.0)) <= 1.0
    assert budget.p_h2o == pytest.approx(100.0 * budget.p_noise)


def test_ratio_errors():
    with pytest.raises(ZeroDenominator):
        on_off_ratio(1.0, -100.0, 0.0, 0.0)
    with pytest.raises(RatioNotAboveOne):
        required_tx_power(1.0, -100.0, 1e-12, 1e-10)
    with pytest.raises(NonPositiveInput):
        on_off_ratio(-1.0, -100.0, 1e-12, 1e-10)


def test_edge_needs_more_power_than_nadir():
    p_noise, p_h2o = 1.38e-12, 1.38e-10
    p_edge = required_tx_power(10.0, -153.0, p_noise, p_h2o)
    p_nadir = required_tx_power(10.0, -149.0, p_noise, p_h2o)
    assert p_edge / p_nadir == pytest.approx(10 ** 0.4, rel=1e-12)


def test_required_power_vanishes_at_unit_ratio():
    p = [required_tx_power(1.0 + 10.0 ** -k, -150.0, 1e-12, 1e-10)
         for k in range(1, 8)]
    assert all(a > b for a, b in zip(p, p[1:]))
    # Linear in (ratio - 1): each decade above 1 drops the power tenfold.
    assert p[-1] == pytest.approx(p[0] * 1e-6, rel=1e-9)


@given(st.floats(1.0 + 1e-6, 1e6), st.floats(-200.0, -50.0),
       st.floats(1e-15, 1e-9), st.floats(0.0, 1e-7))
@settings(max_examples=300, deadline=None)
def test_required_power_inverts_ratio(ratio, loss, p_noise, p_h2o):
    p_on = required_tx_power(ratio, loss, p_noise, p_h2o)
    assert on_off_ratio(p_on, loss, p_noise, p_h2o) == pytest.approx(
        ratio, rel=1e-12)


@given(st.floats(-300.0, 300.0))
@settings(max_examples=200, deadline=None)
def test_db_round_trip(db):
    assert 10.0 * np.log10(db_to_linear(db)) == pytest.approx(db, abs=1e-12)


@given(st.floats(-150.0, 100.0))
@settings(max_examples=200, deadline=None)
def test_dbm_round_trip(dbm):
    assert (10.0 * np.log10(dbm_to_watts(dbm) / 1.0e-3)
            == pytest.approx(dbm, abs=1e-12))


def test_ratio_monotonicity():
    base = on_off_ratio(1.0, -150.0, 1e-12, 1e-10)
    assert on_off_ratio(2.0, -150.0, 1e-12, 1e-10) > base
    assert on_off_ratio(1.0, -150.0, 1e-12, 2e-10) < base
    assert base >= 1.0


def test_table_model_from_csv(tmp_path):
    path = tmp_path / "atm.csv"
    path.write_text("elevation_deg,loss_db\n25.8,-10.9\n85.6,-6.1\n")
    model = TableModel.from_csv(path)
    assert model.loss_db(25.8) == pytest.approx(-10.9)
