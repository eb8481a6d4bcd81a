import math

import pytest
from hypothesis import given, strategies as st

from wsn_multipath.metrics import (
    average_edp,
    edp_coefficients,
    path_delay,
    path_edp,
    path_energy,
    receive_energy_per_bit,
    transmit_energy_per_bit,
)
from wsn_multipath.model import DomainError, NetworkParams


PARAMS = NetworkParams()


def test_path_delay_zero_packets():
    assert path_delay(0, 0.02, 5) == 0.0


def test_path_delay_known_value():
    assert path_delay(20, 0.02, 5) == pytest.approx(2.0)


@given(st.integers(min_value=0, max_value=500))
def test_path_delay_linear_in_packets(packets):
    assert path_delay(2 * packets, 0.02, 5) == pytest.approx(
        2 * path_delay(packets, 0.02, 5))


def test_transmit_energy_no_path_loss():
    # amplifier coefficient at its positive floor: electronics dominate
    p = NetworkParams(tx_amp_w_per_mk=1e-30)
    assert transmit_energy_per_bit(p, 10.0) == pytest.approx(
        p.tx_electronics_w * p.tx_bit_time_s)


def test_transmit_energy_monotone_in_distance():
    p = NetworkParams(tx_amp_w_per_mk=1e-6, radio_range_m=100.0)
    assert transmit_energy_per_bit(p, 20.0) > transmit_energy_per_bit(p, 10.0)


def test_transmit_energy_arithmetic():
    p = NetworkParams(tx_electronics_w=1e-3, tx_amp_w_per_mk=1e-6,
                      path_loss_exp=2.0, tx_bit_time_s=2e-5,
                      radio_range_m=100.0)
    assert transmit_energy_per_bit(p, 10.0) == pytest.approx(2.2e-8)


def test_transmit_energy_range_check():
    with pytest.raises(DomainError):
        transmit_energy_per_bit(PARAMS, PARAMS.radio_range_m + 1.0)
    with pytest.raises(DomainError):
        transmit_energy_per_bit(PARAMS, 0.0)


def test_receive_energy_table_value():
    assert receive_energy_per_bit(PARAMS) == pytest.approx(1.6384e-8)


def test_receive_energy_linear_in_bit_time():
    doubled = NetworkParams(rx_bit_time_s=PARAMS.rx_bit_time_s * 2)
    assert receive_energy_per_bit(doubled) == pytest.approx(
        2 * receive_energy_per_bit(PARAMS))


def test_path_energy_zero_packets_is_sensing_only():
    assert path_energy(PARAMS, 0, 4, 80.0) == pytest.approx(
        PARAMS.sensing_w * 5)


def test_path_energy_increasing_in_packets():
    lo = path_energy(PARAMS, 10, 4, 80.0)
    hi = path_energy(PARAMS, 11, 4, 80.0)
    assert hi > lo


def test_path_energy_manual_evaluation():
    # frozen from a by-hand evaluation of the model at these inputs
    p = PARAMS
    per_bit = ((p.tx_electronics_w + p.tx_amp_w_per_mk * 20.0 ** 2) * p.tx_bit_time_s
               + p.rx_electronics_w * p.rx_bit_time_s)
    expected = per_bit * 25 * 1000.0 * 5 + p.sensing_w * 5
    assert path_energy(p, 25, 4, 80.0) == pytest.approx(expected, rel=1e-12)
    assert path_energy(p, 25, 4, 80.0) == pytest.approx(0.0050140, rel=1e-4)


def test_path_energy_rejects_zero_hops():
    with pytest.raises(DomainError):
        path_energy(PARAMS, 10, 0, 80.0)


@pytest.mark.parametrize("function, args", [
    (path_delay, (-1, 0.02, 4)), (path_delay, (1, -0.02, 4)), (path_delay, (1, 0.02, -4)),
    (path_energy, (PARAMS, -1, 4, 80.0)), (path_energy, (PARAMS, 10, 4, 0.0)),
])
def test_arguments_outside_the_domain_are_rejected(function, args):
    with pytest.raises(DomainError):
        function(*args)


def test_path_edp_zero_packets():
    assert path_edp(PARAMS, 0, 4, 0.02, 80.0) == 0.0


def test_path_edp_is_product_of_parts():
    edp = path_edp(PARAMS, 25, 4, 0.02, 80.0)
    assert edp == path_energy(PARAMS, 25, 4, 80.0) * path_delay(25, 0.02, 4)


@given(st.integers(min_value=1, max_value=300))
def test_path_edp_strictly_increasing(packets):
    assert (path_edp(PARAMS, packets + 1, 4, 0.02, 80.0)
            > path_edp(PARAMS, packets, 4, 0.02, 80.0))


def test_path_edp_matches_quadratic_coefficients():
    a, b = edp_coefficients(PARAMS, 4, 0.02, 80.0)
    for packets in (1, 7, 40):
        assert path_edp(PARAMS, packets, 4, 0.02, 80.0) == pytest.approx(
            a * packets ** 2 + b * packets, rel=1e-12)


@given(st.floats(min_value=1.0, max_value=9.0),
       st.integers(min_value=1, max_value=200))
def test_path_edp_convex_in_packets(hops, packets):
    f = lambda x: path_edp(PARAMS, x, hops, 0.02, 25.0)
    mid = f(packets + 1)
    assert mid < (f(packets) + f(packets + 2)) / 2 + 1e-18


def test_average_edp_zero_traffic():
    assert average_edp(PARAMS, 0, 3, 14 / 3, 0.02, 74.0) == 0.0


def test_average_edp_single_path_collapse():
    assert average_edp(PARAMS, 100, 1, 4.0, 0.02, 74.0) == pytest.approx(
        path_edp(PARAMS, 100, 4.0, 0.02, 74.0), rel=1e-15)


def test_average_edp_mixed_hops_positive_finite():
    value = average_edp(PARAMS, 100, 3, 14 / 3, 0.02, 74.0)
    assert math.isfinite(value) and value > 0


def test_average_edp_needs_a_path():
    with pytest.raises(DomainError):
        average_edp(PARAMS, 100, 0, 4.0, 0.02, 74.0)


def test_shorter_hops_cut_transmit_term():
    # for a fixed span, more hops means shorter hops and a smaller per-bit cost
    p = NetworkParams(tx_amp_w_per_mk=1e-6, radio_range_m=100.0)
    few = transmit_energy_per_bit(p, 80.0 / 2)
    many = transmit_energy_per_bit(p, 80.0 / 8)
    assert many < few

