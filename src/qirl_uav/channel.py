"""Free-space path loss, uplink SNR, and weighted sum rate."""

from __future__ import annotations

import math
from dataclasses import dataclass

# 20*log10(4*pi/c) with c in m/s; cancels at d=1 m, f=10^(147.55/20) Hz.
FSPL_OFFSET_DB = 147.55


@dataclass(frozen=True)
class Position3:
    """Point in meters, z up."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for v in (self.x, self.y, self.z):
            if not math.isfinite(v):
                raise ValueError("coordinates must be finite")

    def distance_to(self, other: "Position3") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))


@dataclass(frozen=True)
class GroundUser:
    """Uplink transmitter on the ground (position z must be 0)."""

    position: Position3
    tx_power: float  # W
    noise_power: float  # W
    bandwidth: float  # Hz

    def __post_init__(self):
        if self.position.z != 0.0:
            raise ValueError("ground user must sit at z = 0")
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
    for a double in linear units gives 0.0, the SNR's exact limit."""
    try:
        return user.tx_power / (user.noise_power * 10.0 ** (path_loss / 10.0))
    except OverflowError:
        return 0.0


def sum_rate(uav_position: Position3, users: tuple[GroundUser, ...], carrier: CarrierConfig) -> float:
    """Weighted sum uplink rate in bits/s seen by a hovering UAV.

    Each user contributes bandwidth * log2(1 + SNR) where the SNR uses the
    3-D UAV-to-user distance. Orthogonal access: contributions just add.
    """
    if not users:
        raise ValueError("at least one ground user is required")
    if uav_position.z <= 0.0:
        raise ValueError("UAV altitude must be positive")
    total = 0.0
    for user in users:
        d = uav_position.distance_to(user.position)
        total += user.bandwidth * math.log2(1.0 + snr(path_loss_db(d, carrier), user))
    return total
