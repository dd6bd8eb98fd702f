"""Backward-induction planner vs exhaustive enumeration, plus guard rails."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qirl_uav.gridworld import manhattan
from qirl_uav.oracle import MAX_ENUM_DEPTH, MAX_ENUM_STATES, dp_optimal, enumerate_paths

from conftest import make_channel_env, make_uniform_env, small_channel_envs

# Instances small enough to enumerate: the two planners must agree exactly.
BATTERY = [
    make_uniform_env(n1=3, n2=3, reward=1.0, max_steps=4),
    make_uniform_env(n1=3, n2=3, reward=1.0, max_steps=6),  # slack for a detour
    make_uniform_env(n1=2, n2=2, reward=0.7, max_steps=8),
    make_uniform_env(n1=3, n2=3, reward=1.0, max_steps=5, boundary_penalty=-0.25),
    make_uniform_env(n1=4, n2=4, reward=0.5, max_steps=9, start=(1, 1), terminal=(3, 2)),
    make_channel_env(3, 3, [(30.0, 50.0), (10.0, 10.0)], max_steps=8),
    make_channel_env(2, 4, [(30.0, 70.0)], max_steps=7, terminal=(1, 3)),
]


@pytest.mark.parametrize("env", BATTERY, ids=lambda e: f"{e.n1}x{e.n2}b{e.max_steps}")
def test_planners_agree_exactly_on_enumerable_instances(env):
    dp = dp_optimal(env)
    brute_return, brute_path = enumerate_paths(env, env.max_steps)
    assert dp.optimal_return == brute_return
    assert dp.reaches_terminal
    assert brute_path[0] == env.start_state
    assert brute_path[-1] == env.terminal_state


# an example at depth 12 walks up to 4^12 action sequences, 0.5-2.5 s on a 2-core VM, hence few examples
@settings(max_examples=5, deadline=None)
@given(small_channel_envs(max_budget=MAX_ENUM_DEPTH))
def test_dp_matches_enumeration_on_drawn_grids(env):
    """DP maximizes over every path, enumeration only over terminal-reaching
    ones: DP is never below, and equal once its own path reaches the terminal."""
    dp = dp_optimal(env)
    brute_return, _ = enumerate_paths(env, env.max_steps)
    assert dp.optimal_return >= brute_return
    if dp.reaches_terminal:
        assert dp.optimal_return == pytest.approx(brute_return, rel=1e-12)


def test_three_by_three_uniform_optimum_is_thirteen():
    env = make_uniform_env(n1=3, n2=3, reward=1.0, max_steps=4)
    dp = dp_optimal(env)
    assert dp.optimal_return == 13.0
    assert dp.horizon_used == 4
    assert dp.reaches_terminal and dp.terminal_reachable


def test_single_step_environment_pays_exactly_the_bonus():
    env = make_uniform_env(n1=2, n2=2, reward=0.3, max_steps=1, terminal=(1, 0))
    dp = dp_optimal(env)
    assert dp.optimal_return == env.terminal_bonus
    assert dp.optimal_path == (env.start_state, env.terminal_state)
    assert enumerate_paths(env, 1)[0] == env.terminal_bonus


def test_optimal_path_is_walkable_and_consistent():
    for env in BATTERY:
        dp = dp_optimal(env)
        total = 0.0
        s = dp.optimal_path[0]
        assert s == env.start_state
        for nxt in dp.optimal_path[1:]:
            moved = False
            for action in range(4):
                out = env.step(s, action)
                if out.next_state == nxt:
                    total += out.reward
                    s = nxt
                    moved = True
                    break
            assert moved, "path contains an impossible transition"
        assert total == pytest.approx(dp.optimal_return, rel=1e-12)
        assert dp.horizon_used == len(dp.optimal_path) - 1


def test_return_scales_linearly_with_uniform_reward():
    # doubling every cell reward (bonus included) doubles the optimum exactly
    one = dp_optimal(make_uniform_env(reward=1.0, max_steps=6))
    two = dp_optimal(make_uniform_env(reward=2.0, max_steps=6))
    assert two.optimal_return == 2.0 * one.optimal_return
    assert two.optimal_path == one.optimal_path


def test_horizon_override_models_tighter_budgets():
    env = make_uniform_env(n1=3, n2=3, max_steps=8)
    full = dp_optimal(env)
    tight = dp_optimal(env, horizon=4)
    assert tight.optimal_return < full.optimal_return
    assert tight.optimal_return == 13.0
    infeasible = dp_optimal(env, horizon=3)  # below the Manhattan distance
    assert not infeasible.terminal_reachable
    assert not infeasible.reaches_terminal
    zero = dp_optimal(env, horizon=0)
    assert zero.optimal_return == 0.0
    assert zero.optimal_path == (env.start_state,)
    with pytest.raises(ValueError):
        dp_optimal(env, horizon=-1)
    with pytest.raises(ValueError, match="planner cap"):
        dp_optimal(env, horizon=2_000_000_000)


def test_enumeration_reports_unreachable_terminal():
    env = make_uniform_env(n1=3, n2=3, max_steps=4)
    best, path = enumerate_paths(env, 3)  # terminal is 4 moves away
    assert best == -math.inf
    assert path == ()


def test_enumeration_guards_against_blowup():
    wide = make_uniform_env(n1=4, n2=5, max_steps=9)
    assert wide.n_states > MAX_ENUM_STATES
    with pytest.raises(ValueError):
        enumerate_paths(wide, 9)
    small = make_uniform_env(n1=3, n2=3, max_steps=4)
    with pytest.raises(ValueError):
        enumerate_paths(small, MAX_ENUM_DEPTH + 1)
    with pytest.raises(ValueError):
        enumerate_paths(small, -1)


def test_boundary_penalty_reaches_the_planner():
    # with a harsh penalty the planner must never choose a rebound
    env = make_uniform_env(n1=3, n2=3, max_steps=6, boundary_penalty=-100.0)
    dp = dp_optimal(env)
    assert dp.optimal_return > 0.0
    seen = set()
    for a, b in zip(dp.optimal_path, dp.optimal_path[1:]):
        assert a != b, "optimal path rebounded into a wall"
        seen.add((a, b))


def test_desk_scale_oracle_regression(desk_env):
    """Frozen optimum for the shipped 10x10 uplink layout."""
    dp = dp_optimal(desk_env)
    assert dp.optimal_return == pytest.approx(177.22695941100858, rel=1e-9)
    assert dp.reaches_terminal
    assert dp.horizon_used == desk_env.max_steps  # uses the whole budget


def full_table_dp(env, h):
    """Reference: backward induction over the whole (h+1) x S value table,
    the path replayed by re-deriving each move from it."""
    nxt, rew = env.transition_model
    best = np.zeros((h + 1, env.n_states))
    for t in range(1, h + 1):
        best[t] = (rew + best[t - 1][nxt]).max(axis=1)
        best[t, env.terminal_state] = 0.0
    path, total = [env.start_state], 0.0
    for t in range(h, 0, -1):
        if (s := path[-1]) == env.terminal_state:
            break
        a = int(np.argmax(rew[s] + best[t - 1][nxt[s]]))
        total += float(rew[s, a])
        path.append(int(nxt[s, a]))
    return total, tuple(path)


@st.composite
def uniform_envs(draw):
    """Constant-reward grids, where most moves tie, with or without a rebound penalty."""
    n1, n2 = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    start, terminal = draw(
        st.lists(st.tuples(st.integers(0, n1 - 1), st.integers(0, n2 - 1)), min_size=2, max_size=2, unique=True)
    )
    reward = draw(st.sampled_from([0.1, 0.5, 1.0, 3.0]))
    penalty = draw(st.one_of(st.just(0.0), st.floats(-5.0, -1e-3)))
    return make_uniform_env(n1, n2, reward, manhattan(start, terminal), start, terminal, penalty)


@settings(max_examples=150, deadline=None)
@given(st.one_of(small_channel_envs(), uniform_envs()), st.data())
def test_dp_matches_the_full_table_reference_bit_for_bit(env, data):
    distance = manhattan(env.config.start_cell, env.config.terminal_cell)
    h = data.draw(st.one_of(st.just(0), st.integers(0, distance - 1), st.integers(distance, distance + 25)))
    dp = dp_optimal(env, horizon=h)
    total, path = full_table_dp(env, h)
    assert repr(dp.optimal_return) == repr(total)
    assert dp.optimal_path == path
    assert dp.horizon_used == len(path) - 1
    assert dp.reaches_terminal == (path[-1] == env.terminal_state)
    assert dp.terminal_reachable == (distance <= h)


def test_planner_memory_stays_under_a_quarter_of_the_full_table():
    env = make_uniform_env(n1=64, n2=64, max_steps=2000)
    full_table_bytes = (env.max_steps + 1) * env.n_states * 8
    tracemalloc.start()
    try:
        dp_optimal(env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < full_table_bytes / 4
