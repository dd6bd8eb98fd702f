"""Free-space path loss, uplink SNR, and weighted sum rate."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

# 20*log10(4*pi/c) with c in m/s; cancels at d=1 m, f=10^(147.55/20) Hz.
FSPL_OFFSET_DB = 147.55


@dataclass(frozen=True)
class GroundUser:
    """Uplink transmitter on the ground at (x, y) meters; the UAV hovers at
    the grid's altitude above that plane."""

    x: float
    y: float
    tx_power: float  # W
    noise_power: float  # W
    bandwidth: float  # Hz

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("coordinates must be finite")
        for name in ("tx_power", "noise_power", "bandwidth"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"user {name} must be positive and finite")


@dataclass(frozen=True)
class CarrierConfig:
    carrier_freq: float  # Hz

    def __post_init__(self):
        if self.carrier_freq <= 0.0 or not math.isfinite(self.carrier_freq):
            raise ValueError("carrier_freq must be positive and finite")


def path_loss_db(distance: float, carrier: CarrierConfig) -> float:
    """Free-space path loss in dB at the given 3-D distance in meters."""
    if distance <= 0.0 or not math.isfinite(distance):
        raise ValueError("distance must be positive and finite")
    return 20.0 * math.log10(distance) + 20.0 * math.log10(carrier.carrier_freq) - FSPL_OFFSET_DB


def snr(path_loss: float, user: GroundUser) -> float:
    """Received SNR for one user given a path loss in dB. A loss too large
    for a double in linear units gives 0.0, the SNR's exact limit; one too
    small (a linear loss that underflows to 0) gives inf."""
    try:
        return user.tx_power / (user.noise_power * 10.0 ** (path_loss / 10.0))
    except OverflowError:
        return 0.0
    except ZeroDivisionError:
        return math.inf


@np.errstate(over="ignore", divide="ignore")  # inf, where Python's float * and / (and snr) give inf
def rate_field(
    xs: list[float], ys: list[float], altitude: float, users: tuple[GroundUser, ...], carrier: CarrierConfig
) -> np.ndarray:
    """Weighted sum uplink rate in bits/s, rates[j, i], seen by a UAV hovering
    at each grid point (xs[i], ys[j], altitude): one pass per user, in user
    order. The libm steps run through `map` and every + - * / in numpy, in
    the order of path_loss_db and snr, so each rate is bit-identical to those
    scalar formulas. The first point whose distance is not finite is refused:
    as `coordinates must be finite` when its x, y or the altitude is not,
    else as path_loss_db refuses it."""
    if not users:
        raise ValueError("at least one ground user is required")
    if altitude <= 0.0:
        raise ValueError("UAV altitude must be positive")
    n1, n = len(xs), len(xs) * len(ys)
    carrier_db = 20.0 * math.log10(carrier.carrier_freq)
    total, first_refused = np.zeros(n), n
    for user in users:
        dx = [x - user.x for x in xs] * len(ys)
        dy = chain.from_iterable(map(repeat, [y - user.y for y in ys], repeat(n1)))
        log_d = np.fromiter(map(math.log10, map(math.hypot, dx, dy, repeat(altitude))), float, n)
        finite = np.isfinite(log_d)  # where the distance is (hypot >= altitude > 0); inf would pay SNR 0 below
        if not finite.all():
            first_refused = min(first_refused, int(finite.argmin()))
            continue
        loss = 20.0 * log_d + carrier_db - FSPL_OFFSET_DB
        try:
            linear = np.fromiter(map(pow, repeat(10.0), (loss / 10.0).tolist()), float, n)
            gain = user.tx_power / (user.noise_power * linear)
        except OverflowError:  # some linear loss exceeds a double: snr's 0.0 for those terms alone
            gain = np.array([snr(pl, user) for pl in loss.tolist()])
        total += user.bandwidth * np.fromiter(map(math.log2, (1.0 + gain).tolist()), float, n)
    if first_refused < n:
        if not all(map(math.isfinite, (xs[first_refused % n1], ys[first_refused // n1], altitude))):
            raise ValueError("coordinates must be finite")
        raise ValueError("distance must be positive and finite")
    return total.reshape(len(ys), n1)

