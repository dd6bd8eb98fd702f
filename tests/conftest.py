"""Shared fixtures and small environment builders."""

from pathlib import Path

import pytest

from qirl_uav.channel import CarrierConfig, GroundUser, Position3
from qirl_uav.gridworld import EnvConfig, GridSpec, GridWorld, build
from qirl_uav.layout import parse_layout

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "configs"
TINY_LAYOUT = CONFIG_DIR / "tiny_3x3_uniform.txt"
DESK_LAYOUT = CONFIG_DIR / "uplink_10x10.txt"


def make_uniform_env(
    n1: int = 3,
    n2: int = 3,
    reward: float = 1.0,
    max_steps: int = 4,
    start: tuple[int, int] = (0, 0),
    terminal: tuple[int, int] | None = None,
    boundary_penalty: float = 0.0,
    cell_size: float = 20.0,
) -> GridWorld:
    """Synthetic constant-reward grid; terminal defaults to the far corner."""
    if terminal is None:
        terminal = (n1 - 1, n2 - 1)
    grid = GridSpec(n1, n2, cell_size, Position3(cell_size / 2, cell_size / 2, 0.0), 100.0)
    return build(
        EnvConfig(
            grid=grid,
            users=(),
            carrier=CarrierConfig(2e9),
            start_cell=start,
            terminal_cell=terminal,
            max_steps=max_steps,
            total_bandwidth=10e6,
            uniform_reward=reward,
            boundary_penalty=boundary_penalty,
        )
    )


def make_channel_env(
    n1: int,
    n2: int,
    users_xy: list[tuple[float, float]],
    max_steps: int,
    start: tuple[int, int] = (0, 0),
    terminal: tuple[int, int] | None = None,
    boundary_penalty: float = 0.0,
) -> GridWorld:
    """Grid whose cell rewards come from the uplink channel model."""
    if terminal is None:
        terminal = (n1 - 1, n2 - 1)
    users = tuple(
        GroundUser(Position3(x, y, 0.0), tx_power=1.0, noise_power=1.0, bandwidth=2e6)
        for x, y in users_xy
    )
    grid = GridSpec(n1, n2, 20.0, Position3(10.0, 10.0, 0.0), 100.0)
    return build(
        EnvConfig(
            grid=grid,
            users=users,
            carrier=CarrierConfig(2e9),
            start_cell=start,
            terminal_cell=terminal,
            max_steps=max_steps,
            total_bandwidth=10e6,
            boundary_penalty=boundary_penalty,
        )
    )


@pytest.fixture
def tiny_env() -> GridWorld:
    return build(parse_layout(TINY_LAYOUT))


@pytest.fixture(scope="session")
def desk_env() -> GridWorld:
    return build(parse_layout(DESK_LAYOUT))
