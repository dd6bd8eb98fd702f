"""Free-space path loss, SNR, and sum-rate checks against hand-derived values."""

import math

import pytest

from qirl_uav.channel import CarrierConfig, GroundUser, Position3, path_loss_db, snr, sum_rate

CARRIER_2GHZ = CarrierConfig(2e9)

# Hand evaluation: 20*log10(100) + 20*log10(2e9) - 147.55.
PL_100M_2GHZ = 78.47059991327961

# 1 W over 1 W noise through that loss, and the single-user 2 MHz rate.
SNR_AT_PL = 1.4221322987123143e-8
RATE_SINGLE_2MHZ = 0.04103406470624137


def unit_user(x: float = 0.0, y: float = 0.0, bandwidth: float = 2e6) -> GroundUser:
    return GroundUser(Position3(x, y, 0.0), tx_power=1.0, noise_power=1.0, bandwidth=bandwidth)


def test_path_loss_reference_point():
    pl = path_loss_db(100.0, CARRIER_2GHZ)
    assert abs(pl - 78.4706) < 0.001
    assert pl == pytest.approx(PL_100M_2GHZ, rel=1e-12)


def test_path_loss_cancels_at_unit_distance_and_reference_frequency():
    # The 147.55 dB offset is what makes pl(1 m, 10^(147.55/20) Hz) = 0.
    f0 = 10 ** (147.55 / 20)
    assert path_loss_db(1.0, CarrierConfig(f0)) == pytest.approx(0.0, abs=1e-9)


def test_path_loss_grows_with_distance_and_frequency():
    assert path_loss_db(200.0, CARRIER_2GHZ) > path_loss_db(100.0, CARRIER_2GHZ)
    assert path_loss_db(100.0, CarrierConfig(4e9)) > path_loss_db(100.0, CARRIER_2GHZ)
    # doubling distance adds exactly 20*log10(2) dB
    delta = path_loss_db(200.0, CARRIER_2GHZ) - path_loss_db(100.0, CARRIER_2GHZ)
    assert delta == pytest.approx(20.0 * math.log10(2.0), rel=1e-12)


def test_path_loss_rejects_bad_distance():
    for d in (0.0, -5.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            path_loss_db(d, CARRIER_2GHZ)


def test_snr_reference_point():
    assert snr(PL_100M_2GHZ, unit_user()) == pytest.approx(SNR_AT_PL, rel=1e-12)


def test_snr_scales_linearly_with_tx_power():
    pl = 80.0
    base = snr(pl, unit_user())
    doubled = snr(pl, GroundUser(Position3(0, 0, 0), 2.0, 1.0, 2e6))
    assert doubled == 2.0 * base


def test_snr_is_zero_once_the_linear_loss_overflows():
    # 10 ** (loss / 10) exceeds a double beyond about 3080 dB; 1e200 m is ~4040 dB
    assert snr(path_loss_db(1e200, CARRIER_2GHZ), unit_user()) == 0.0
    assert snr(path_loss_db(1e150, CARRIER_2GHZ), unit_user()) > 0.0
    assert sum_rate(Position3(0.0, 0.0, 100.0), (unit_user(1e200),), CARRIER_2GHZ) == 0.0


def test_snr_is_infinite_once_the_linear_loss_underflows():
    # 1e-200 m is about -3961 dB: 10 ** (loss / 10) underflows to 0.0
    assert snr(path_loss_db(1e-200, CARRIER_2GHZ), unit_user()) == math.inf
    assert sum_rate(Position3(0.0, 0.0, 1e-200), (unit_user(),), CARRIER_2GHZ) == math.inf


def test_single_user_rate_reference_point():
    uav = Position3(0.0, 0.0, 100.0)
    rate = sum_rate(uav, (unit_user(),), CARRIER_2GHZ)
    assert rate == pytest.approx(RATE_SINGLE_2MHZ, rel=1e-12)


def test_sum_rate_adds_per_user_contributions():
    uav = Position3(30.0, 40.0, 100.0)
    users = (unit_user(0.0, 0.0), unit_user(100.0, 0.0), unit_user(50.0, 80.0))
    total = sum_rate(uav, users, CARRIER_2GHZ)
    singles = sum(sum_rate(uav, (u,), CARRIER_2GHZ) for u in users)
    assert total == pytest.approx(singles, rel=1e-12)
    assert total > 0.0


def test_sum_rate_decreases_as_uav_moves_away():
    user = (unit_user(0.0, 0.0),)
    near = sum_rate(Position3(0.0, 0.0, 100.0), user, CARRIER_2GHZ)
    far = sum_rate(Position3(150.0, 0.0, 100.0), user, CARRIER_2GHZ)
    assert near > far > 0.0


def test_sum_rate_input_validation():
    with pytest.raises(ValueError):
        sum_rate(Position3(0, 0, 100.0), (), CARRIER_2GHZ)
    with pytest.raises(ValueError):
        sum_rate(Position3(0, 0, 0.0), (unit_user(),), CARRIER_2GHZ)
    with pytest.raises(ValueError):
        sum_rate(Position3(0, 0, -100.0), (unit_user(),), CARRIER_2GHZ)


def test_ground_user_validation():
    with pytest.raises(ValueError):
        Position3(math.inf, 0.0, 0.0)
    with pytest.raises(ValueError):
        GroundUser(Position3(0, 0, 1.0), 1.0, 1.0, 2e6)  # not on the ground
    with pytest.raises(ValueError):
        GroundUser(Position3(0, 0, 0.0), 0.0, 1.0, 2e6)
    with pytest.raises(ValueError):
        GroundUser(Position3(0, 0, 0.0), 1.0, -1.0, 2e6)
    with pytest.raises(ValueError):
        GroundUser(Position3(0, 0, 0.0), 1.0, 1.0, 0.0)


def test_carrier_validation():
    with pytest.raises(ValueError):
        CarrierConfig(0.0)
    with pytest.raises(ValueError):
        CarrierConfig(math.inf)
