"""Selection and update rules for the preference-table learner and the
Q-table baselines, plus the schedule and rollout helpers."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qirl_uav.agents import (
    MAX_EXPONENT,
    MIN_TEMPERATURE,
    ExplorationSchedule,
    _apply_floor,
    QiRLAgent,
    QiRLConfig,
    QLearningAgent,
    default_boltzmann_schedule,
    default_epsilon_schedule,
    greedy_rollout,
    qirl_select,
    qirl_update,
    ql_select,
    ql_update,
)
from qirl_uav.gridworld import Action
from qirl_uav.harness import make_rng, train

from conftest import make_uniform_env, small_channel_envs


def rng_of(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def cfg_unit_scale(**kw) -> QiRLConfig:
    """Config with reward_scale 1 and no floor, so exponents read directly."""
    base = dict(alpha=0.1, reward_scale=1.0, p_floor=0.0)
    base.update(kw)
    return QiRLConfig(**base)


# ---------------------------------------------------------------- tables


def test_fresh_tables():
    env = make_uniform_env()
    qirl = QiRLAgent(env)
    assert qirl.values.shape == (9,) and np.all(qirl.values == 0.0)
    assert qirl.prefs.shape == (9, 4)
    assert np.all(qirl.prefs == 0.25)
    q = QLearningAgent(env, default_epsilon_schedule()).q
    assert q.shape == (9, 4) and np.all(q == 0.0)


# ---------------------------------------------------------------- config


def test_qirl_config_validation():
    with pytest.raises(ValueError):
        QiRLConfig(alpha=0.0)
    with pytest.raises(ValueError):
        QiRLConfig(alpha=1.5)
    with pytest.raises(TypeError):
        QiRLConfig(gamma=1.0)  # undiscounted by construction: no gamma to set
    with pytest.raises(ValueError):
        QiRLConfig(k_plus=-1.0)
    with pytest.raises(ValueError):
        QiRLConfig(k_minus=0.5)
    with pytest.raises(ValueError):
        QiRLConfig(reward_scale=0.0)
    with pytest.raises(ValueError):
        QiRLConfig(exponent_clamp=0.0)
    with pytest.raises(ValueError):
        QiRLConfig(p_floor=0.02)  # floor capped at 0.01
    with pytest.raises(ValueError):
        QiRLConfig(p_floor=-0.001)
    with pytest.raises(ValueError):
        QiRLConfig(alpha_decay=-1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        QiRLConfig().k_plus = math.nan  # frozen: no rule is bypassed after construction


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "make, complaint",
    [
        (lambda v: QiRLConfig(alpha=v), "alpha must lie in"),
        (lambda v: QiRLConfig(k_plus=v), "k_plus must be positive and finite"),
        (lambda v: QiRLConfig(k_minus=v), "k_minus must be negative and finite"),
        (lambda v: QiRLConfig(reward_scale=v), "reward_scale must be positive and finite"),
        (lambda v: QiRLConfig(exponent_clamp=v), "exponent_clamp must lie in"),
        (lambda v: QiRLConfig(p_floor=v), "p_floor must lie in"),
        (lambda v: QiRLConfig(alpha_decay=v), "alpha_decay must be non-negative and finite"),
        (lambda v: ExplorationSchedule("epsilon_greedy", v, 0.9, 0.05), "initial must be non-negative and finite"),
        (lambda v: ExplorationSchedule("epsilon_greedy", 1.0, v, 0.05), "decay must lie in"),
        (lambda v: ExplorationSchedule("epsilon_greedy", 1.0, 0.9, v), "floor must be at least"),
        (lambda v: ExplorationSchedule("boltzmann", 1.0, 0.9, v), "floor must be at least"),
    ],
    ids=[
        "alpha", "k_plus", "k_minus", "reward_scale", "exponent_clamp", "p_floor", "alpha_decay",
        "initial", "decay", "epsilon floor", "boltzmann floor",
    ],
)
def test_every_float_knob_refuses_nan_and_infinity(make, complaint, value):
    with pytest.raises(ValueError, match=complaint):
        make(value)


@pytest.mark.filterwarnings("error")
def test_exponent_clamp_is_bounded_so_the_factor_stays_finite():
    assert math.isfinite(math.exp(QiRLConfig(exponent_clamp=MAX_EXPONENT).exponent_clamp))
    with pytest.raises(ValueError, match=r"exponent_clamp must lie in \(0, 709.78\]"):
        QiRLConfig(exponent_clamp=math.nextafter(MAX_EXPONENT, math.inf))
    # the largest clamp on the largest exponent still leaves a probability-shaped row;
    # list tables, as the agent holds: the overflowing exponent is plain float arithmetic
    values, prefs = [0.0, 0.0], [[0.25] * 4 for _ in range(2)]
    cfg = cfg_unit_scale(k_plus=1e308, k_minus=-1e308, exponent_clamp=MAX_EXPONENT)
    qirl_update(values, prefs, 0, 2, 1e300, 1, cfg)  # factor exp(clamp)
    assert sum(prefs[0]) == pytest.approx(1.0) and prefs[0][2] == pytest.approx(1.0)
    assert min(prefs[0]) > 0.0
    qirl_update(values, prefs, 0, 2, 1e300, 0, cfg)  # a rebound, punished: exp(-clamp) on the entry near 1
    assert sum(prefs[0]) == pytest.approx(1.0) and min(prefs[0]) > 0.0


def test_alpha_decay_schedule():
    cfg = QiRLConfig(alpha=0.4, alpha_decay=0.1, reward_scale=1.0)
    assert cfg.alpha_at(0) == 0.4
    assert cfg.alpha_at(10) == pytest.approx(0.2)
    steps = [cfg.alpha_at(k) for k in range(0, 1000, 50)]
    assert all(a > b for a, b in zip(steps, steps[1:]))
    assert steps[-1] > 0.0


def test_exploration_schedule_decays_to_floor():
    sched = ExplorationSchedule("epsilon_greedy", 1.0, 0.9, 0.05)
    assert sched.value(0) == 1.0
    assert sched.value(1) == pytest.approx(0.9)
    assert sched.value(500) == 0.05
    with pytest.raises(ValueError):
        ExplorationSchedule("greedy", 1.0, 0.9, 0.05)
    with pytest.raises(ValueError):
        ExplorationSchedule("epsilon_greedy", 1.0, 0.0, 0.05)
    with pytest.raises(ValueError):
        ExplorationSchedule("boltzmann", 1.0, 0.9, 0.0)  # temperature needs a positive floor


def test_default_schedules():
    eps = default_epsilon_schedule()
    assert (eps.kind, eps.initial, eps.decay, eps.floor) == ("epsilon_greedy", 1.0, 0.995, 0.01)
    boltz = default_boltzmann_schedule(10.0)
    assert (boltz.kind, boltz.initial, boltz.floor) == ("boltzmann", 10.0, 0.1)
    assert default_epsilon_schedule(decay=0.5) == dataclasses.replace(eps, decay=0.5)
    assert default_boltzmann_schedule(10.0, floor=0.5) == dataclasses.replace(boltz, floor=0.5)


def test_weak_field_needs_a_boltzmann_floor_override():
    # 1% of a 2e-13 bonus is under MIN_TEMPERATURE: the default floor is refused by name,
    # while a valid override is checked alone and accepted
    with pytest.raises(ValueError, match=r"default Boltzmann floor \(1% of terminal bonus 2e-13\).*--explore-floor"):
        default_boltzmann_schedule(2e-13)
    assert default_boltzmann_schedule(2e-13, floor=1e-6).floor == 1e-6
    with pytest.raises(ValueError, match="floor must be at least 1e-12"):
        default_boltzmann_schedule(2e-13, floor=1e-13)  # an override is reported as given
    with pytest.raises(ValueError, match="decay must lie in"):
        default_boltzmann_schedule(2e-13, decay=2.0)  # another field's error is not the floor's


# ---------------------------------------------------------------- selection


def test_qirl_select_follows_preference_row():
    prefs = np.full((2, 4), 0.25)
    prefs[0] = [1.0, 0.0, 0.0, 0.0]
    prefs[1] = [0.0, 0.0, 0.0, 1.0]
    rng = rng_of(0)
    assert all(qirl_select(prefs, 0, rng) == 0 for _ in range(20))
    assert all(qirl_select(prefs, 1, rng) == 3 for _ in range(20))


def test_qirl_select_consumes_one_uniform():
    prefs = np.full((1, 4), 0.25)
    a, b = rng_of(1), rng_of(1)
    qirl_select(prefs, 0, a)
    b.random()
    assert a.random() == b.random()


def test_qirl_select_distribution():
    prefs = np.full((1, 4), 0.25)
    prefs[0] = [0.7, 0.2, 0.1, 0.0]
    rng = rng_of(3)
    counts = np.bincount([qirl_select(prefs, 0, rng) for _ in range(10_000)], minlength=4)
    assert counts[3] == 0
    assert np.all(np.abs(counts / 10_000 - prefs[0]) < 0.02)


def test_epsilon_greedy_selection():
    q = np.zeros((1, 4))
    q[0] = [0.0, 2.0, 1.0, 0.0]
    greedy = ExplorationSchedule("epsilon_greedy", 0.0, 1.0, 0.0)
    assert all(ql_select(q, 0, greedy.kind, greedy.value(0), rng_of(4)) == 1 for _ in range(10))
    explore = ExplorationSchedule("epsilon_greedy", 1.0, 1.0, 1.0)
    rng = rng_of(5)
    seen = {ql_select(q, 0, explore.kind, explore.value(0), rng) for _ in range(200)}
    assert seen == {0, 1, 2, 3}


def test_epsilon_greedy_breaks_ties_uniformly():
    q = np.zeros((1, 4))
    q[0] = [1.0, 1.0, 0.0, 0.0]
    greedy = ExplorationSchedule("epsilon_greedy", 0.0, 1.0, 0.0)
    rng = rng_of(6)
    counts = np.bincount([ql_select(q, 0, greedy.kind, greedy.value(0), rng) for _ in range(4000)], minlength=4)
    assert counts[2] == counts[3] == 0
    assert abs(counts[0] - counts[1]) < 300


def test_epsilon_greedy_consumes_two_uniforms_even_when_greedy():
    q = np.zeros((1, 4))
    greedy = ExplorationSchedule("epsilon_greedy", 0.0, 1.0, 0.0)
    a, b = rng_of(7), rng_of(7)
    ql_select(q, 0, greedy.kind, greedy.value(0), a)
    b.random()
    b.random()
    assert a.random() == b.random()


def test_boltzmann_selection_limits():
    q = np.zeros((1, 4))
    q[0] = [0.0, 1.0, 0.0, 0.0]
    cold = ExplorationSchedule("boltzmann", 1e-6, 1.0, 1e-6)
    assert all(ql_select(q, 0, cold.kind, cold.value(0), rng_of(8)) == 1 for _ in range(20))
    hot = ExplorationSchedule("boltzmann", 1e6, 1.0, 1e6)
    rng = rng_of(9)
    counts = np.bincount([ql_select(q, 0, hot.kind, hot.value(0), rng) for _ in range(8000)], minlength=4)
    assert np.all(np.abs(counts / 8000 - 0.25) < 0.03)  # near-uniform at high temperature


def test_boltzmann_survives_extreme_values():
    q = np.zeros((1, 4))
    q[0] = [1e8, -1e8, 0.0, 0.0]
    sched = ExplorationSchedule("boltzmann", 1.0, 1.0, 1.0)
    assert all(ql_select(q, 0, sched.kind, sched.value(0), rng_of(10)) == 0 for _ in range(20))


@pytest.mark.parametrize(
    "row, argmax",
    [([1e300, 2e300, -1e300, 0.0], {1}), ([-1e300, -2e300, -1e300, -3e300], {0, 2})],
    ids=["q-over-tau-overflows-to-inf", "q-over-tau-overflows-to-minus-inf"],
)
def test_boltzmann_draws_the_argmax_when_q_over_tau_overflows(row, argmax):
    """q/tau past the float range once made every weight NaN, so the sampler
    fell through to action 3; the draw is the argmax, ties split evenly, and
    each call still consumes one uniform."""
    rng, twin = rng_of(13), rng_of(13)
    picks = [ql_select([row], 0, "boltzmann", MIN_TEMPERATURE, rng) for _ in range(2000)]
    twin.random(2000)
    assert rng.random() == twin.random()
    counts = np.bincount(picks, minlength=4)
    assert set(np.flatnonzero(counts)) == argmax
    assert all(abs(counts[a] / 2000 - 1 / len(argmax)) < 0.05 for a in argmax)


def test_boltzmann_schedule_refuses_a_floor_below_the_minimum_temperature():
    # the schedule is the one guard: value() never drops below the floor, and
    # ql_select divides by whatever temperature it is given
    with pytest.raises(ValueError, match="at least 1e-12"):
        ExplorationSchedule("boltzmann", 1.0, 0.5, 1e-13)
    with pytest.raises(ValueError):
        ExplorationSchedule("boltzmann", 1.0, 0.5, math.nan)
    sched = ExplorationSchedule("boltzmann", 1.0, 0.5, MIN_TEMPERATURE)
    assert min(sched.value(e) for e in range(200)) == MIN_TEMPERATURE
    assert ql_select(np.zeros((1, 4)), 0, sched.kind, sched.value(199), rng_of(11)) in range(4)
    ExplorationSchedule("epsilon_greedy", 1.0, 0.5, 0.0)  # epsilon may reach 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        sched.floor = 0.0


def test_boltzmann_consumes_one_uniform():
    sched = ExplorationSchedule("boltzmann", 1.0, 1.0, 1.0)
    a, b = rng_of(12), rng_of(12)
    ql_select(np.zeros((1, 4)), 0, sched.kind, sched.value(0), a)
    b.random()
    assert a.random() == b.random()


# ---------------------------------------------------------------- value updates


def test_td_step_worked_example():
    """V=0, next V=1, r=0.5, alpha=0.1 moves the value to 0.15."""
    values = np.array([0.0, 1.0])
    prefs = np.full((2, 4), 0.25)
    cfg = cfg_unit_scale()
    qirl_update(values, prefs, 0, 0, 0.5, 1, cfg)
    assert values[0] == pytest.approx(0.15, abs=1e-12)
    assert values[1] == 1.0  # only the departed state moves


def test_zero_learning_rate_freezes_values():
    # the constructor rejects alpha=0 and the config is frozen, but the update math must honor it
    cfg = cfg_unit_scale()
    object.__setattr__(cfg, "alpha", 0.0)
    values = np.array([0.3, 1.0])
    prefs = np.full((2, 4), 0.25)
    qirl_update(values, prefs, 0, 2, 0.5, 1, cfg)
    assert values[0] == 0.3 and values[1] == 1.0
    assert prefs[0, 2] > 0.25  # the preference step still happens


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["-inf", "inf"])
def test_value_that_overflows_is_refused_before_it_is_written(sign):
    """A rebound paying the largest double from a value of the largest double
    leaves the float range; the update raises, naming the state, and leaves
    both tables as they were. List tables, as the agent holds."""
    v_state = reward = sign * sys.float_info.max
    values = [v_state, 0.0]
    prefs = [[0.25] * 4 for _ in range(2)]
    with pytest.raises(ValueError, match="value of state 0 overflowed to -?inf:"):
        qirl_update(values, prefs, 0, 1, reward, 0, cfg_unit_scale(alpha=1.0))
    assert values == [v_state, 0.0]
    assert all(p == 0.25 for row in prefs for p in row)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["-inf", "inf"])
def test_q_value_that_overflows_is_refused_before_it_is_written(sign):
    """The baselines' backup has the same guard: the largest double plus a
    bootstrap of the largest double raises, naming state and action, and
    leaves the Q table as it was. A list table, as the agent holds."""
    q = [[0.0] * 4, [sign * sys.float_info.max] * 4]
    before = np.array(q).tobytes()
    with pytest.raises(ValueError, match="Q value of state 0, action 2 overflowed to"):
        ql_update(q, 0, 2, sign * sys.float_info.max, 1, alpha=1.0, gamma=1.0)
    assert np.array(q).tobytes() == before


def test_td_converges_on_deterministic_chain():
    """Replaying a fixed 0 -> 1 -> 2 path drives values to the remaining returns."""
    values = np.zeros(3)
    prefs = np.full((3, 4), 0.25)
    cfg = cfg_unit_scale(alpha=0.3, reward_scale=10.0)
    for _ in range(400):
        qirl_update(values, prefs, 0, 3, 0.5, 1, cfg)
        qirl_update(values, prefs, 1, 3, 10.0, 2, cfg)  # terminal entry: V(2) stays 0
    assert abs(values[1] - 10.0) < 1e-6
    assert abs(values[0] - 10.5) < 1e-6
    assert values[2] == 0.0


def test_cut_transition_bootstraps_zero():
    cfg = cfg_unit_scale(alpha=0.5, reward_scale=10.0)
    values = np.array([5.0, 9.0])
    prefs = np.full((2, 4), 0.25)
    qirl_update(values, prefs, 0, 0, 0.2, 1, cfg, end=True)
    # target is r + 0, not r + V(next)
    assert values[0] == pytest.approx(5.0 + 0.5 * (0.2 - 5.0))


def test_cut_preference_factor_still_reads_stranded_value():
    """The truncated step is punished in proportion to the value it left behind."""
    cfg = cfg_unit_scale(alpha=0.5, reward_scale=10.0)
    values = np.array([5.0, 9.0])
    prefs = np.full((2, 4), 0.25)
    qirl_update(values, prefs, 0, 0, 0.2, 1, cfg, end=True)
    # delta = 0.2 - 5.0 < 0, so k_minus; exponent = -(0.2 + 9.0)/10
    expected = 0.25 * math.exp(-0.92)
    expected = expected / (expected + 0.75)
    assert prefs[0, 0] == pytest.approx(expected, rel=1e-12)


def test_rebound_factor_reads_post_update_value():
    cfg = cfg_unit_scale(alpha=0.5, reward_scale=10.0)
    values = np.array([2.0])
    prefs = np.full((1, 4), 0.25)
    qirl_update(values, prefs, 0, 1, -0.5, 0, cfg)
    assert values[0] == 1.75  # 2 + 0.5*(-0.5 + 2 - 2)
    # rebound: next == state, so the factor sees the value written above
    expected = 0.25 * math.exp(-(-0.5 + 1.75) / 10.0)
    expected = expected / (expected + 0.75)
    assert prefs[0, 1] == pytest.approx(expected, rel=1e-12)


def test_ql_update_backup():
    q = np.zeros((2, 4))
    q[1] = [0.0, 2.0, 0.0, 0.0]
    ql_update(q, 0, 3, 1.0, 1, alpha=0.5, gamma=0.5, end=False)
    assert q[0, 3] == 0.5 * (1.0 + 0.5 * 2.0)
    ql_update(q, 0, 2, 1.0, 1, alpha=0.5, gamma=0.5, end=True)
    assert q[0, 2] == 0.5  # terminal: no bootstrap


def test_qirl_update_requires_resolved_scale():
    with pytest.raises(ValueError):
        qirl_update(np.zeros(2), np.full((2, 4), 0.25), 0, 0, 1.0, 1, QiRLConfig())


# ---------------------------------------------------------------- preference updates


def test_preference_worked_example():
    """A factor of e^0.5 on one action of a uniform row gives 0.35466/0.21511."""
    values = np.zeros(2)
    prefs = np.full((2, 4), 0.25)
    qirl_update(values, prefs, 0, 0, 0.5, 1, cfg_unit_scale(k_plus=1.0))
    assert prefs[0, 0] == pytest.approx(0.35466, abs=1e-4)
    assert np.all(np.abs(prefs[0, 1:] - 0.21511) < 1e-4)
    assert prefs[0].sum() == pytest.approx(1.0, abs=1e-12)


def test_positive_branch_raises_chosen_preference():
    rng = rng_of(13)
    cfg = cfg_unit_scale(k_plus=0.8, k_minus=-0.8)
    for _ in range(100):
        prefs = np.asarray(rng.dirichlet(np.ones(4))).reshape(1, 4)
        values = np.array([0.0, float(rng.uniform(0.1, 5.0))])
        action = int(rng.integers(4))
        before = prefs[0].copy()
        qirl_update(values, prefs, 0, action, float(rng.uniform(0.1, 2.0)), 1, cfg)
        assert prefs[0, action] > before[action]
        others = [i for i in range(4) if i != action]
        assert all(prefs[0, i] < before[i] for i in others)
        # renormalization preserves the ordering of the unchosen actions
        assert np.argsort(before[others]).tolist() == np.argsort(prefs[0][others]).tolist()
        assert prefs[0].sum() == pytest.approx(1.0, abs=1e-9)


def test_negative_delta_lowers_chosen_preference():
    cfg = cfg_unit_scale()
    values = np.array([5.0, 0.0])  # r + V(next) - V(state) < 0
    prefs = np.full((2, 4), 0.25)
    qirl_update(values, prefs, 0, 2, 0.1, 1, cfg)
    assert prefs[0, 2] < 0.25


def test_boundary_hit_forces_punishment_branch():
    """A rebound (next_state == state) is punished even when its TD error is non-negative."""
    cfg = cfg_unit_scale()
    values = np.array([3.0])
    prefs = np.full((1, 4), 0.25)
    # delta = 1.0 + 3.0 - 3.0 > 0, but the move stayed put
    qirl_update(values, prefs, 0, 1, 1.0, 0, cfg)
    assert values[0] == 3.1
    assert prefs[0, 1] < 0.25


@pytest.mark.parametrize(
    "values, reward, next_state, boosted",
    [
        pytest.param([0.0], -5.0, 0, False, id="penalized rebound"),
        pytest.param([0.0, -3.0], -1.0, 1, False, id="negative delta"),
        pytest.param([-10.0, -3.0], -1.0, 1, True, id="positive delta"),
    ],
)
def test_branch_alone_sets_the_sign_when_reward_plus_value_is_negative(values, reward, next_state, boosted):
    """reward + V(next) < 0 in every case: the factor is exp(k * |reward + V(next)|),
    so a rebound or a negative TD error lowers the chosen preference and a
    non-negative TD error raises it."""
    values = np.array(values)
    prefs = np.full((len(values), 4), 0.25)
    qirl_update(values, prefs, 0, 2, reward, next_state, cfg_unit_scale())
    assert (prefs[0, 2] > 0.25) == boosted and prefs[0, 2] != 0.25


def test_zero_delta_takes_the_boost_branch():
    cfg = cfg_unit_scale()
    values = np.array([1.0, 0.0])
    prefs = np.full((2, 4), 0.25)
    qirl_update(values, prefs, 0, 0, 1.0, 1, cfg)  # delta exactly 0
    assert prefs[0, 0] > 0.25


def test_exponent_clamp_bounds_the_factor():
    cfg = cfg_unit_scale(alpha=1e-6, exponent_clamp=2.0)
    values = np.array([0.0, 1e9])
    prefs = np.full((2, 4), 0.25)
    qirl_update(values, prefs, 0, 0, 1.0, 1, cfg)
    # unclamped the factor would overflow; clamped it is e^2 on a uniform row
    expected = 0.25 * math.exp(2.0) / (0.25 * math.exp(2.0) + 0.75)
    assert prefs[0, 0] == pytest.approx(expected, rel=1e-9)
    assert np.all(np.isfinite(prefs))


def test_floor_keeps_rows_probability_shaped():
    cfg = cfg_unit_scale(p_floor=0.01, k_minus=-5.0)
    values = np.zeros(2)
    prefs = np.full((2, 4), 0.25)
    values[0] = 10.0  # large negative delta every time
    for _ in range(300):
        qirl_update(values, prefs, 0, 0, 0.1, 1, cfg)
        values[0] = 10.0
    assert prefs[0, 0] == pytest.approx(0.01, abs=1e-12)
    assert prefs[0].min() >= 0.01
    assert prefs[0].sum() == pytest.approx(1.0, abs=1e-9)


def test_floor_cascade_when_scaling_pushes_second_entry_under():
    # flooring the first entry rescales the rest; that nudge sends the second
    # entry under the floor too, which takes a second flooring pass; the
    # update passes a list, and an ndarray row is lifted the same way
    lifted = []
    for make_row in (np.array, list):
        row = make_row([0.005, 0.01004, 0.48496, 0.5])
        _apply_floor(row, 0.01)
        assert row[0] == 0.01
        assert row[1] == 0.01
        assert min(row) >= 0.01
        assert math.fsum(row) == pytest.approx(1.0, abs=1e-9)
        lifted.append(list(row))
    assert lifted[0] == lifted[1]


def loop_floor(p: list[float], floor: float) -> None:
    """The iterative floor that the unrolled _apply_floor replaced, kept as
    its reference: same operations, same order, any row length."""
    if floor <= 0.0:
        return
    n = len(p)
    floored = [v < floor for v in p]
    for _ in range(n):
        mass = 1.0 - floor * sum(floored)
        free_sum = 0.0
        for i in range(n):
            if not floored[i]:
                free_sum += p[i]
        scale = mass / free_sum
        newly = False
        for i in range(n):
            if not floored[i] and p[i] * scale < floor:
                floored[i] = True
                newly = True
        if not newly:
            for i in range(n):
                v = floor if floored[i] else p[i] * scale
                p[i] = v if v > floor else floor
            return


@st.composite
def floor_rows(draw):
    """A floor in [0, 0.01] and a 4-row summing to 1 as qirl_update leaves
    it: up to three small entries, each under, at or just over the floor (so
    that rescaling can push it under: a cascade) or anywhere up to 0.3, and
    one entry holding the rest, in any order."""
    floor = draw(st.floats(0.0, 0.01))
    near = st.floats(0.0, 1.1).map(lambda x: x * floor)
    small = draw(st.lists(near | st.floats(0.0, 0.3), min_size=3, max_size=3))
    return floor, draw(st.permutations([*small, 1.0 - sum(small)]))


@settings(max_examples=600, deadline=None)
@given(floor_rows())
@example((0.01, [0.005, 0.01004, 0.48496, 0.5]))  # the cascade of the test above
@example((0.01, [0.001, 0.002, 0.003, 0.994]))  # three entries floored, as most calls enter
def test_unrolled_floor_matches_the_loop_bit_for_bit(case):
    floor, row = case
    want = list(row)
    loop_floor(want, floor)
    for make_row in (list, np.array):
        got = make_row(row)
        _apply_floor(got, floor)
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_without_floor_preferences_may_vanish():
    cfg = cfg_unit_scale(p_floor=0.0, k_minus=-8.0)
    values = np.array([100.0, 0.0])
    prefs = np.full((2, 4), 0.25)
    for _ in range(50):
        values[0] = 100.0
        qirl_update(values, prefs, 0, 0, 1.0, 1, cfg)
    assert prefs[0, 0] < 1e-12
    assert prefs[0].sum() == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------- agent classes


def test_qirl_agent_resolves_reward_scale_from_env():
    env = make_uniform_env()
    agent = QiRLAgent(env)
    assert agent.cfg.reward_scale == env.terminal_bonus == 10.0
    explicit = QiRLAgent(env, QiRLConfig(reward_scale=3.0))
    assert explicit.cfg.reward_scale == 3.0


def test_qirl_agent_counts_updates_and_tracks_greedy():
    env = make_uniform_env()
    agent = QiRLAgent(env, QiRLConfig(alpha=0.5))
    out = env.step(env.start_state, Action.RIGHT)
    agent.update(env.start_state, Action.RIGHT, out.reward, out.next_state, False)
    agent.update(env.start_state, Action.RIGHT, out.reward, out.next_state, False)
    assert agent.updates == 2
    assert agent.greedy_action(env.start_state) == Action.RIGHT


def test_qlearning_agent_names_follow_schedule():
    env = make_uniform_env()
    assert QLearningAgent(env, default_epsilon_schedule()).name == "ql_eps"
    assert QLearningAgent(env, default_boltzmann_schedule(env.terminal_bonus)).name == "ql_boltz"
    with pytest.raises(ValueError):
        QLearningAgent(env, default_epsilon_schedule(), alpha=0.0)
    with pytest.raises(ValueError):
        QLearningAgent(env, default_epsilon_schedule(), gamma=1.5)


def test_qlearning_agent_advances_schedule_per_episode():
    env = make_uniform_env()
    agent = QLearningAgent(env, ExplorationSchedule("epsilon_greedy", 1.0, 0.5, 0.0))
    assert agent.schedule.value(agent.episode) == 1.0
    agent.end_episode()
    assert agent.schedule.value(agent.episode) == 0.5


def test_greedy_rollout_reaches_terminal_on_optimal_policy():
    env = make_uniform_env()  # 3x3, start (0,0), terminal (2,2), budget 4
    plan = {
        env.state_of(0, 0): Action.RIGHT,
        env.state_of(1, 0): Action.RIGHT,
        env.state_of(2, 0): Action.FORWARD,
        env.state_of(2, 1): Action.FORWARD,
    }
    rollout = greedy_rollout(env, plan.__getitem__)
    assert rollout.reached_terminal
    assert rollout.total_return == 13.0  # three unit cells plus the entry bonus
    assert len(rollout.states) == 5
    assert rollout.states[0] == env.start_state
    assert rollout.states[-1] == env.terminal_state


def test_greedy_rollout_truncates_non_terminating_policy():
    env = make_uniform_env()
    rollout = greedy_rollout(env, lambda s: Action.FORWARD)
    assert not rollout.reached_terminal
    assert len(rollout.rewards) == env.max_steps
    assert rollout.total_return == 2.0  # two moves up, then two rebounds


M = sys.float_info.max


@st.composite
def accepted_qirl_configs(draw):
    """Any QiRLConfig the constructor takes, extremes included: k, reward_scale
    and alpha_decay from the smallest to the largest double, the largest clamp."""
    positive = st.floats(0.0, M, exclude_min=True)
    return QiRLConfig(
        alpha=draw(st.floats(0.0, 1.0, exclude_min=True)),
        k_plus=draw(positive),
        k_minus=-draw(positive),
        reward_scale=draw(st.none() | positive),
        exponent_clamp=draw(st.floats(0.0, MAX_EXPONENT, exclude_min=True)),
        p_floor=draw(st.floats(0.0, 0.01)),
        alpha_decay=draw(st.floats(0.0, M)),
    )


@settings(max_examples=60, deadline=None)
@given(small_channel_envs(max_budget=12), accepted_qirl_configs(), st.integers(0, 2**32))
def test_accepted_configs_keep_every_preference_row_on_the_simplex(env, cfg, seed):
    """qirl_select does not re-check rows: every accepted knob, on a field
    whose values stay finite, must keep each row summing to 1 and at or above
    the floor, which train's check_invariants audits after every update."""
    train(env, QiRLAgent(env, cfg), 20, make_rng(seed), check_invariants=True)
