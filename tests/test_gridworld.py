"""Grid geometry, transition mechanics, and environment validation."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings

from qirl_uav.channel import CarrierConfig, GroundUser, Position3
from qirl_uav.gridworld import (
    ACTION_DELTAS,
    N_ACTIONS,
    Action,
    EnvConfig,
    GridSpec,
    build,
    manhattan,
)
from qirl_uav.layout import parse_layout

from conftest import DESK_LAYOUT, TINY_LAYOUT, make_channel_env, make_uniform_env, small_channel_envs


def test_action_deltas_match_enum_semantics():
    # forward/backward move along +y/-y, left/right along -x/+x
    assert ACTION_DELTAS[Action.FORWARD] == (0, 1)
    assert ACTION_DELTAS[Action.BACKWARD] == (0, -1)
    assert ACTION_DELTAS[Action.LEFT] == (-1, 0)
    assert ACTION_DELTAS[Action.RIGHT] == (1, 0)
    assert N_ACTIONS == 4


def test_manhattan():
    assert manhattan((0, 0), (2, 2)) == 4
    assert manhattan((3, 1), (1, 4)) == 5
    assert manhattan((2, 2), (2, 2)) == 0


def test_state_indexing_roundtrip():
    env = make_uniform_env(n1=3, n2=4, max_steps=5)
    seen = set()
    for i in range(3):
        for j in range(4):
            s = env.state_of(i, j)
            assert env.cell_of(s) == (i, j)
            seen.add(s)
    assert seen == set(range(env.n_states))
    with pytest.raises(ValueError):
        env.state_of(3, 0)
    with pytest.raises(ValueError):
        env.cell_of(12)


def test_cell_center_geometry():
    env = make_uniform_env(n1=4, n2=4, max_steps=6, cell_size=20.0)
    center = env.cell_center(env.state_of(2, 3))
    assert (center.x, center.y, center.z) == (50.0, 70.0, 100.0)


def test_step_moves_one_cell():
    env = make_uniform_env(n1=3, n2=3, max_steps=4, terminal=(2, 2))
    mid = env.state_of(1, 1)
    assert env.cell_of(env.step(mid, Action.FORWARD).next_state) == (1, 2)
    assert env.cell_of(env.step(mid, Action.BACKWARD).next_state) == (1, 0)
    assert env.cell_of(env.step(mid, Action.LEFT).next_state) == (0, 1)
    assert env.cell_of(env.step(mid, Action.RIGHT).next_state) == (2, 1)


def test_step_pays_entered_cell_reward():
    env = make_channel_env(3, 3, [(10.0, 10.0)], max_steps=4)
    mid = env.state_of(1, 1)
    out = env.step(mid, Action.LEFT)
    assert out.reward == float(env.rewards[out.next_state])
    assert not out.boundary_hit and not out.terminal


def test_rebound_keeps_state_and_flags_boundary():
    env = make_uniform_env(n1=3, n2=3, max_steps=4)
    corner = env.state_of(0, 0)
    for action in (Action.BACKWARD, Action.LEFT):
        out = env.step(corner, action)
        assert out.next_state == corner
        assert out.reward == 0.0
        assert out.boundary_hit and not out.terminal


def test_rebound_honors_configured_penalty():
    env = make_uniform_env(n1=3, n2=3, max_steps=4, boundary_penalty=-0.3)
    out = env.step(env.state_of(0, 0), Action.LEFT)
    assert out.reward == -0.3


def test_terminal_entry_pays_bonus_and_ends_episode():
    env = make_uniform_env(n1=3, n2=3, reward=1.0, max_steps=4, terminal=(2, 2))
    before = env.state_of(2, 1)
    out = env.step(before, Action.FORWARD)
    assert out.terminal
    assert out.next_state == env.terminal_state
    assert out.reward == env.terminal_bonus == 10.0


def test_terminal_bonus_is_ten_times_field_max():
    env = make_channel_env(3, 3, [(10.0, 10.0), (50.0, 30.0)], max_steps=4)
    assert env.terminal_bonus == 10.0 * float(env.rewards.max())
    assert np.all(env.rewards > 0.0)


def test_uniform_reward_overrides_channel_field():
    env = make_uniform_env(n1=3, n2=3, reward=0.7, max_steps=4)
    assert np.all(env.rewards == 0.7)
    assert env.terminal_bonus == 7.0


def test_step_rejects_terminal_state_and_bad_action():
    env = make_uniform_env()
    with pytest.raises(ValueError):
        env.step(env.terminal_state, Action.FORWARD)
    with pytest.raises(ValueError):
        env.step(env.start_state, 4)
    with pytest.raises(ValueError):
        env.step(-1, Action.FORWARD)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_table_matches_geometry(env):
    """Check every move in env.transitions against coordinate arithmetic done
    here, independent of the table: state j * n1 + i, each action's unit step,
    rebounds at the edges, and the bonus for entering the terminal cell."""
    cfg = env.config
    n1, n2 = cfg.grid.n1, cfg.grid.n2
    terminal = cfg.terminal_cell[1] * n1 + cfg.terminal_cell[0]
    bonus = 10.0 * float(env.rewards.max())
    moves = {Action.FORWARD: (0, 1), Action.BACKWARD: (0, -1), Action.LEFT: (-1, 0), Action.RIGHT: (1, 0)}
    assert len(env.transitions) == n1 * n2
    for j in range(n2):
        for i in range(n1):
            s = j * n1 + i
            if s == terminal:
                continue
            for action, (di, dj) in moves.items():
                out = env.transitions[s][action]
                assert env.step(s, action) is out
                ti, tj = i + di, j + dj
                if 0 <= ti < n1 and 0 <= tj < n2:
                    nxt = tj * n1 + ti
                    reward = bonus if nxt == terminal else float(env.rewards[nxt])
                    expected = (nxt, _bits(reward), False, nxt == terminal)
                else:
                    expected = (s, _bits(cfg.boundary_penalty), True, False)
                assert (out.next_state, _bits(out.reward), out.boundary_hit, out.terminal) == expected
    # absorbing terminal row: a zero-reward self-loop under every action
    assert len(env.transitions[terminal]) == N_ACTIONS
    for out in env.transitions[terminal]:
        assert (out.next_state, _bits(out.reward)) == (terminal, _bits(0.0))


@pytest.mark.parametrize("penalty", [None, -0.75])
@pytest.mark.parametrize("layout", [TINY_LAYOUT, DESK_LAYOUT], ids=["tiny", "desk"])
def test_transition_table_matches_geometry_on_shipped_layouts(layout, penalty):
    config = parse_layout(layout)
    if penalty is not None:
        config = dataclasses.replace(config, boundary_penalty=penalty)
    assert_table_matches_geometry(build(config))


@settings(max_examples=60, deadline=None)
@given(small_channel_envs())
def test_transition_table_matches_geometry_on_drawn_grids(env):
    assert_table_matches_geometry(env)


def _config(**overrides):
    base = dict(
        grid=GridSpec(3, 3, 20.0, (10.0, 10.0), 100.0),
        users=(),
        carrier=CarrierConfig(2e9),
        start_cell=(0, 0),
        terminal_cell=(2, 2),
        max_steps=4,
        total_bandwidth=10e6,
        uniform_reward=1.0,
    )
    base.update(overrides)
    return EnvConfig(**base)


def test_env_config_validation():
    with pytest.raises(ValueError):
        _config(start_cell=(3, 0))  # outside the grid
    with pytest.raises(ValueError):
        _config(terminal_cell=(0, 0))  # equal to start
    with pytest.raises(ValueError):
        _config(max_steps=3)  # below the start-terminal Manhattan distance
    with pytest.raises(ValueError):
        _config(uniform_reward=None)  # no users and no synthetic reward
    with pytest.raises(ValueError):
        _config(uniform_reward=-1.0)
    with pytest.raises(ValueError):
        _config(boundary_penalty=0.5)  # rebounds may not be rewarded
    for penalty in (-np.inf, np.nan):  # every reward a move pays is finite
        with pytest.raises(ValueError, match="boundary_penalty must be <= 0 and finite"):
            _config(boundary_penalty=penalty)
    with pytest.raises(ValueError):
        _config(total_bandwidth=0.0)


def test_build_refuses_rewards_that_are_not_finite():
    # the learners read every reward unchecked, so build is where a field that
    # is not finite must stop: a cell rate that overflows, or a terminal bonus
    # (10x the field maximum) that does
    loud = GroundUser(Position3(0, 0, 0), 1e300, 1e-300, 1e6)
    with pytest.raises(ValueError, match="not finite: terminal bonus .* inf"):
        build(_config(users=(loud,), uniform_reward=None))
    with pytest.raises(ValueError, match="not finite"):
        build(_config(uniform_reward=1e308))
    assert build(_config(uniform_reward=1e307)).terminal_bonus == 1e308


GROUND_USER = GroundUser(Position3(10, 10, 0), 1.0, 1.0, 2e6)
FLOAT_FIELDS = [
    (lambda v: dataclasses.replace(GROUND_USER, tx_power=v), "user tx_power must be positive and finite"),
    (lambda v: dataclasses.replace(GROUND_USER, noise_power=v), "user noise_power must be positive and finite"),
    (lambda v: dataclasses.replace(GROUND_USER, bandwidth=v), "user bandwidth must be positive and finite"),
    (lambda v: GridSpec(3, 3, v, (10.0, 10.0), 100.0), "cell_size must be positive and finite"),
    (lambda v: GridSpec(3, 3, 20.0, (v, 10.0), 100.0), "origin must be finite"),
    (lambda v: GridSpec(3, 3, 20.0, (10.0, v), 100.0), "origin must be finite"),
    (lambda v: GridSpec(3, 3, 20.0, (10.0, 10.0), v), "altitude must be positive and finite"),
    (lambda v: _config(total_bandwidth=v), "total bandwidth must be positive and finite"),
    (lambda v: _config(uniform_reward=v), "uniform_reward must be positive and finite"),
    (lambda v: _config(boundary_penalty=v), "boundary_penalty must be <= 0 and finite"),
]
FLOAT_FIELD_IDS = [
    "GroundUser.tx_power", "GroundUser.noise_power", "GroundUser.bandwidth", "GridSpec.cell_size",
    "GridSpec.origin x", "GridSpec.origin y", "GridSpec.altitude", "EnvConfig.total_bandwidth",
    "EnvConfig.uniform_reward", "EnvConfig.boundary_penalty",
]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("make, complaint", FLOAT_FIELDS, ids=FLOAT_FIELD_IDS)
def test_every_float_field_refuses_nan_and_infinity(make, complaint, value):
    """The dataclass that holds a value is its one rule, for a Python caller
    as for a layout line."""
    with pytest.raises(ValueError, match=complaint):
        make(value)


def test_env_config_rejects_oversubscribed_bandwidth():
    user = GroundUser(Position3(10, 10, 0), 1.0, 1.0, 6e6)
    with pytest.raises(ValueError):
        _config(users=(user, user), uniform_reward=None, total_bandwidth=10e6)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1, 3, 20.0, (10, 10), 100.0)
    with pytest.raises(ValueError):
        GridSpec(3, 3, 0.0, (10, 10), 100.0)
    with pytest.raises(ValueError):
        GridSpec(3, 3, 20.0, (10, 10), -5.0)


def test_build_channel_rewards_peak_under_user_cluster():
    env = make_channel_env(3, 3, [(50.0, 50.0)], max_steps=4)
    # single user under cell (2,2): that cell is closest, hence richest
    assert int(np.argmax(env.rewards)) == env.state_of(2, 2)
