"""Grid geometry, transition mechanics, and environment validation."""

import dataclasses
import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qirl_uav.channel import CarrierConfig, GroundUser, Position3, path_loss_db, rate_field, snr
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
    """Check every non-terminal move of `step`, and the same entry of the
    transition model's arrays, against coordinate arithmetic done here,
    independent of both: state j * n1 + i, each action's unit step, rebounds
    at the edges, and the bonus for entering the terminal cell. Then check
    the arrays' absorbing terminal row, which `step` refuses."""
    cfg = env.config
    n1, n2 = cfg.grid.n1, cfg.grid.n2
    terminal = cfg.terminal_cell[1] * n1 + cfg.terminal_cell[0]
    bonus = 10.0 * float(env.rewards.max())
    moves = {Action.FORWARD: (0, 1), Action.BACKWARD: (0, -1), Action.LEFT: (-1, 0), Action.RIGHT: (1, 0)}
    nxt_of, reward_of = env.transition_model
    assert nxt_of.shape == reward_of.shape == (n1 * n2, N_ACTIONS)

    def array_move(s, a):  # entry (s, a), with the flags derived as `step` derives them
        n = int(nxt_of[s, a])
        return (n, _bits(float(reward_of[s, a])), n == s, n == terminal)

    for j in range(n2):
        for i in range(n1):
            s = j * n1 + i
            if s == terminal:
                continue
            for action, (di, dj) in moves.items():
                ti, tj = i + di, j + dj
                if 0 <= ti < n1 and 0 <= tj < n2:
                    nxt = tj * n1 + ti
                    reward = bonus if nxt == terminal else float(env.rewards[nxt])
                    expected = (nxt, _bits(reward), False, nxt == terminal)
                else:
                    expected = (s, _bits(cfg.boundary_penalty), True, False)
                out = env.step(s, action)
                assert (out.next_state, _bits(out.reward), out.boundary_hit, out.terminal) == expected
                assert array_move(s, action) == expected
    # absorbing terminal row: a zero-reward self-loop under every action
    for action in range(N_ACTIONS):
        assert array_move(terminal, action) == (terminal, _bits(0.0), True, True)


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


def scalar_field(env):
    """The field as the per-cell scalar formulas give it: math.dist, then
    path_loss_db and snr, adding the users in order."""
    cfg = env.config
    rates = []
    for s in range(env.n_states):
        c = env.cell_center(s)
        total = 0.0
        for u in cfg.users:
            d = math.dist((c.x, c.y, c.z), (u.position.x, u.position.y, 0.0))
            total += u.bandwidth * math.log2(1.0 + snr(path_loss_db(d, cfg.carrier), u))
        rates.append(total)
    return np.array(rates)


def assert_field_is_scalar_field(env):
    expected = scalar_field(env)
    assert env.rewards.tobytes() == expected.tobytes()
    cfg = env.config
    centers = map(env.cell_center, range(env.n_states))
    per_cell = [rate_field([c.x], [c.y], c.z, cfg.users, cfg.carrier)[0, 0] for c in centers]
    assert np.array(per_cell).tobytes() == expected.tobytes()


@st.composite
def channel_configs(draw):
    """Grids up to 10x10 with 1-5 users anywhere from a cell center to 1e200 m
    away, so some path losses overflow a double in linear units."""
    n1, n2 = draw(st.integers(2, 10)), draw(st.integers(2, 10))
    size = draw(st.floats(1e-3, 1e5))
    origin = (draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6)))
    on_center = st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1)).map(
        lambda ij: (origin[0] + ij[0] * size, origin[1] + ij[1] * size)
    )
    anywhere = st.tuples(*[st.one_of(st.floats(-1e6, 1e6), st.floats(-1e200, 1e200))] * 2)
    powers = st.floats(1e-9, 1e9)
    users = tuple(
        GroundUser(Position3(x, y, 0.0), draw(powers), draw(powers), draw(st.floats(1.0, 1e7)))
        for x, y in draw(st.lists(st.one_of(on_center, anywhere), min_size=1, max_size=5))
    )
    return EnvConfig(
        grid=GridSpec(n1, n2, size, origin, draw(st.floats(1e-3, 1e5))),
        users=users,
        carrier=CarrierConfig(draw(st.floats(1e6, 1e11))),
        start_cell=(0, 0),
        terminal_cell=(n1 - 1, n2 - 1),
        max_steps=n1 + n2,
        total_bandwidth=2.0 * sum(u.bandwidth for u in users),
    )


@settings(max_examples=200, deadline=None)
@given(channel_configs())
def test_field_is_the_scalar_rate_at_every_cell_center_bit_for_bit(config):
    assert_field_is_scalar_field(build(config))


def test_field_bit_for_bit_with_a_user_on_a_cell_center():
    assert_field_is_scalar_field(make_channel_env(3, 4, [(30.0, 50.0), (17.0, 3.0)], max_steps=5))
    env = make_channel_env(3, 4, [(30.0, 50.0)], max_steps=5)  # on cell (1, 2): 100 m straight down
    (user,) = env.config.users
    rate = user.bandwidth * math.log2(1.0 + snr(path_loss_db(100.0, env.config.carrier), user))
    assert env.rewards[env.state_of(1, 2)] == rate == env.rewards.max()


def test_field_pays_nothing_where_the_path_loss_overflows(tmp_path):
    """Cells 1e160 m apart: the user on cell (0, 0)'s center has a finite
    linear loss there and one beyond a double everywhere else, which pays
    SNR 0.0 for those terms alone."""
    layout = tmp_path / "far.txt"
    text = TINY_LAYOUT.read_text().replace("cell_size 20", "cell_size 1e160")
    layout.write_text(text.replace("uniform_reward 1.0", "user 5e159 5e159 1 1 1e6"))
    env = build(parse_layout(layout))
    assert env.rewards.tolist() == [0.020517032353120686] + [0.0] * 8
    assert_field_is_scalar_field(env)


FIELD_16X16 = """\
grid 16 16
cell_size 12.5
altitude 80
origin 6.25 -3.1
carrier_freq 2.4e9
bandwidth 20e6
start 0 15
terminal 15 0
max_steps 60
user 0 0 1 1 1e6
user 193.75 6.25 0.5 1e-3 1.5e6
user 42.1 117.3 2 1 1e6
user 100 100 1 1e-9 2e6
user -40 250 1 1 1e6
user 187.5 187.5 0.1 1 1e6
user 3.3 190.7 5 0.2 0.5e6
user 77.7 12.9 1 1 1e6
user 150.25 60.75 1e-3 1e-12 2e6
user 6.25 59.4 1 1 1e6
user 1e4 -2e4 1 1e-15 1e6
user 120 140 3 3 1e6
"""


def test_reward_fields_are_golden(tmp_path):
    """SHA-256 of the field bytes, taken from the per-cell scalar loop that
    the one-pass-per-user field replaced: a drifting bit fails here."""
    layout = tmp_path / "field_16x16.txt"
    layout.write_text(FIELD_16X16)
    digests = {
        path.name: hashlib.sha256(build(parse_layout(path)).rewards.tobytes()).hexdigest()
        for path in (DESK_LAYOUT, layout)
    }
    assert digests == {
        "uplink_10x10.txt": "69cccb89c2605d5384d2fb1a182e4b5a5a34feb1a139cc6dfeeb85d7106e6400",
        "field_16x16.txt": "47a3db9e37d1ae318f316763a13e186c9abc283a36ee09aab7d6ad1acc5599d6",
    }
