"""Shared fixtures and small environment builders."""

from pathlib import Path

import pytest
from hypothesis import strategies as st

from qirl_uav.channel import CarrierConfig, GroundUser
from qirl_uav.gridworld import EnvConfig, GridWorld, build, manhattan
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
    return build(
        EnvConfig(
            n1=n1,
            n2=n2,
            cell_size=cell_size,
            origin=(cell_size / 2, cell_size / 2),
            altitude=100.0,
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
        GroundUser(x, y, tx_power=1.0, noise_power=1.0, bandwidth=2e6)
        for x, y in users_xy
    )
    return build(
        EnvConfig(
            n1=n1,
            n2=n2,
            cell_size=20.0,
            origin=(10.0, 10.0),
            altitude=100.0,
            users=users,
            carrier=CarrierConfig(2e9),
            start_cell=start,
            terminal_cell=terminal,
            max_steps=max_steps,
            total_bandwidth=10e6,
            boundary_penalty=boundary_penalty,
        )
    )


@st.composite
def small_channel_envs(draw, max_budget: int | None = None):
    """Channel grids of at most 16 cells (small enough to enumerate) with 1-3
    users and a non-zero rebound penalty. The step budget is the
    start-terminal Manhattan distance, or drawn from it up to max_budget."""
    n1 = draw(st.integers(2, 8))
    n2 = draw(st.integers(2, 16 // n1))
    start, terminal = draw(
        st.lists(st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1)), min_size=2, max_size=2, unique=True)
    )
    users = draw(
        st.lists(st.tuples(st.floats(0.0, 20.0 * n1), st.floats(0.0, 20.0 * n2)), min_size=1, max_size=3)
    )
    penalty = draw(st.floats(-5.0, -1e-3))
    distance = manhattan(start, terminal)
    budget = distance if max_budget is None else draw(st.integers(distance, max_budget))
    return make_channel_env(n1, n2, users, budget, start, terminal, penalty)


@pytest.fixture
def tiny_env() -> GridWorld:
    return build(parse_layout(TINY_LAYOUT))


@pytest.fixture(scope="session")
def desk_env() -> GridWorld:
    return build(parse_layout(DESK_LAYOUT))
