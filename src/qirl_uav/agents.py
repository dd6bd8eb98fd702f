"""Tabular learners: the quantum-inspired agent (collapse selection plus
multiplicative amplitude-style reinforcement) and two Q-learning baselines.
Both the qirl collapse and the Boltzmann softmax draw with quantum.sample_index."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .gridworld import N_ACTIONS, GridWorld
from .quantum import sample_index

MIN_TEMPERATURE = 1e-12
MAX_EXPONENT = math.log(sys.float_info.max)  # ~709.78: exp(clamp) is finite, a row's max times exp(-clamp) > 0
_NEG_INF, _INF = -math.inf, math.inf  # so a learner's per-step value check is one chained comparison


@dataclass(frozen=True)
class QiRLConfig:
    """Hyperparameters for the quantum-inspired agent. The learner is
    episodic and undiscounted, so there is no gamma to set.

    reward_scale divides the reinforcement exponent k*(r + V(s')); None means
    "use the environment's terminal bonus", resolved at agent construction.
    alpha_decay is the c in alpha_k = alpha / (1 + c*k) over the update count,
    which satisfies the usual stochastic-approximation step-size conditions.

    Every rule refuses NaN and infinity; frozen, so none is bypassed later.
    """

    kind: ClassVar[str] = "qirl"  # a ClassVar: no field, so not in asdict or the config hash
    alpha: float = 0.1
    k_plus: float = 1.0
    k_minus: float = -1.0
    reward_scale: float | None = None
    exponent_clamp: float = 10.0
    p_floor: float = 1e-4
    alpha_decay: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0.0 < self.k_plus < math.inf:
            raise ValueError("k_plus must be positive and finite")
        if not -math.inf < self.k_minus < 0.0:
            raise ValueError("k_minus must be negative and finite")
        if self.reward_scale is not None and not 0.0 < self.reward_scale < math.inf:
            raise ValueError("reward_scale must be positive and finite")
        if not 0.0 < self.exponent_clamp <= MAX_EXPONENT:
            raise ValueError(f"exponent_clamp must lie in (0, {MAX_EXPONENT:.2f}]")
        if not 0.0 <= self.p_floor <= 0.01:
            raise ValueError("p_floor must lie in [0, 0.01]")
        if not 0.0 <= self.alpha_decay < math.inf:
            raise ValueError("alpha_decay must be non-negative and finite")

    def alpha_at(self, update_count: int) -> float:
        return self.alpha / (1.0 + self.alpha_decay * update_count)


@dataclass(frozen=True)
class ExplorationSchedule:
    """Per-episode exploration parameter: max(floor, initial * decay^episode).
    A Boltzmann floor is at least MIN_TEMPERATURE, so ql_select needs no check."""

    kind: str  # "epsilon_greedy" or "boltzmann"
    initial: float
    decay: float
    floor: float

    def __post_init__(self):
        if self.kind not in ("epsilon_greedy", "boltzmann"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not 0.0 <= self.initial < math.inf:
            raise ValueError("initial must be non-negative and finite")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must lie in (0, 1]")
        if not (MIN_TEMPERATURE if self.kind == "boltzmann" else 0.0) <= self.floor < math.inf:
            raise ValueError(f"floor must be at least {MIN_TEMPERATURE:g} for boltzmann (else 0) and finite")

    def value(self, episode: int) -> float:
        return max(self.floor, self.initial * self.decay**episode)


def default_epsilon_schedule(**overrides: float) -> ExplorationSchedule:
    return ExplorationSchedule("epsilon_greedy", **{"initial": 1.0, "decay": 0.995, "floor": 0.01, **overrides})


def default_boltzmann_schedule(terminal_bonus: float, **overrides: float) -> ExplorationSchedule:
    """tau from the terminal bonus down to 1% of it; overrides replace any of
    initial, decay, floor. A default floor below MIN_TEMPERATURE names the
    bonus, once the other fields pass, as the schedule checks its floor last."""
    fields = {"initial": terminal_bonus, "decay": 0.995, "floor": 0.01 * terminal_bonus, **overrides}
    if "floor" in overrides or fields["floor"] >= MIN_TEMPERATURE:
        return ExplorationSchedule("boltzmann", **fields)
    ExplorationSchedule("boltzmann", **{**fields, "floor": MIN_TEMPERATURE})  # another field's error first
    message = f"default Boltzmann floor (1% of terminal bonus {terminal_bonus:g}) is below {MIN_TEMPERATURE:g}"
    raise ValueError(f"{message}: set one with --explore-floor")


@dataclass(frozen=True)
class QLConfig:
    """Settings of a Q-learning baseline, kind "ql_eps" or "ql_boltz". An
    explore_* value left None keeps that field of the kind's default schedule;
    schedule() resolves it against the env's terminal bonus, which Boltzmann's
    default scales with. alpha and gamma are checked by QLearningAgent."""

    kind: str
    alpha: float = 0.1
    gamma: float = 1.0
    explore_initial: float | None = None
    explore_decay: float | None = None
    explore_floor: float | None = None

    def __post_init__(self):
        if self.kind not in ("ql_eps", "ql_boltz"):
            raise ValueError(f"kind must be ql_eps or ql_boltz, got {self.kind!r}")

    @property
    def explore_overrides(self) -> dict[str, float]:
        given = {"initial": self.explore_initial, "decay": self.explore_decay, "floor": self.explore_floor}
        return {name: value for name, value in given.items() if value is not None}

    def schedule(self, terminal_bonus: float) -> ExplorationSchedule:
        if self.kind == "ql_eps":
            return default_epsilon_schedule(**self.explore_overrides)
        return default_boltzmann_schedule(terminal_bonus, **self.explore_overrides)


def qirl_select(prefs, state: int, rng) -> int:
    """Collapse the state's action distribution through quantum.sample_index;
    one uniform consumed; qirl_update keeps the row on the simplex."""
    return sample_index(prefs[state], rng)


def _apply_floor(p, floor: float) -> None:
    """Lift entries of the 4-entry row `p` (a list, or an ndarray row), which
    sums to 1, to at least `floor` <= 0.01 in place, renormalizing the rest.

    Each round, unrolled over the entries, scales the unfloored ones (summed
    in index order) to the mass left, and repeats while that pushes one more
    under the floor, so none dips back under it; at most three floor. Ends
    with an exact clamp, leaving the row sum within a few ulps of 1.
    """
    if floor <= 0.0:
        return
    p0, p1, p2, p3 = p
    f0, f1, f2, f3 = p0 < floor, p1 < floor, p2 < floor, p3 < floor
    k = (f0, f1, f2, f3).count(True)  # not a sum: np.bool_ + np.bool_ is a logical or
    while True:
        mass = 1.0 - floor * k
        free_sum = 0.0
        if not f0:
            free_sum += p0
        if not f1:
            free_sum += p1
        if not f2:
            free_sum += p2
        if not f3:
            free_sum += p3
        scale = mass / free_sum
        floored = k
        if not f0 and p0 * scale < floor:
            f0, k = True, k + 1
        if not f1 and p1 * scale < floor:
            f1, k = True, k + 1
        if not f2 and p2 * scale < floor:
            f2, k = True, k + 1
        if not f3 and p3 * scale < floor:
            f3, k = True, k + 1
        if k == floored:
            break
    v = floor if f0 else p0 * scale
    p[0] = v if v > floor else floor
    v = floor if f1 else p1 * scale
    p[1] = v if v > floor else floor
    v = floor if f2 else p2 * scale
    p[2] = v if v > floor else floor
    v = floor if f3 else p3 * scale
    p[3] = v if v > floor else floor


def qirl_update(
    values,
    prefs,
    state: int,
    action: int,
    reward: float,
    next_state: int,
    cfg: QiRLConfig,
    update_count: int = 0,
    end: bool = False,
) -> None:
    """One undiscounted TD(0) value step plus one multiplicative preference
    step, in place; a value that overflows is refused, so every row sums to 1.

    The tables are the agent's lists, or numpy arrays. The TD error is
    computed before the value write. The reinforcement factor
    exp(clamp(k * |reward + V(next_state)| / reward_scale)) reads the value
    table after the write (it differs only on rebounds, where next == state).
    k is k_minus on a rebound (qirl never steps from the terminal, so only a
    move off the grid stays put) or a negative TD error, else k_plus: the
    branch alone sets the sign. The row is rescaled, renormalized and
    floored in place.

    end marks a move that ends its episode, by terminal entry (whose V is never
    written, so stays 0) or by using up the budget. Its TD target bootstraps 0,
    here and in ql_update. On a budget cut that keeps learned values
    consistent with the finite horizon: undiscounted TD on positive-reward
    cycles has no fixed point and diverges. The preference factor still
    reads the stored V(next_state), so a truncated episode's last action is
    punished in proportion to the value it failed to cash in, exactly
    countering the boosts a loop collected on the way.
    """
    if cfg.reward_scale is None:
        raise ValueError("reward_scale unresolved; construct the config with a value or use QiRLAgent")
    alpha = cfg.alpha_at(update_count)
    v_state = values[state]
    v_next = values[next_state]
    delta = reward + (0.0 if end else v_next) - v_state
    v_new = v_state + alpha * delta
    if not _NEG_INF < v_new < _INF:
        raise ValueError(f"value of state {state} overflowed to {v_new!r}: the field's returns are too large to learn")
    values[state] = v_new
    if next_state == state:  # rebound: punished, and the factor reads the value just written
        k, v_next = cfg.k_minus, v_new
    else:
        k = cfg.k_minus if delta < 0.0 else cfg.k_plus
    exponent = k * abs(reward + v_next) / cfg.reward_scale
    exponent = min(max(exponent, -cfg.exponent_clamp), cfg.exponent_clamp)
    p = prefs[state]
    p[action] *= math.exp(exponent)
    p0, p1, p2, p3 = p
    total = p0 + p1 + p2 + p3
    p[0], p[1], p[2], p[3] = p0 / total, p1 / total, p2 / total, p3 / total
    _apply_floor(p, cfg.p_floor)


def ql_select(q, state: int, kind: str, value: float, rng) -> int:
    """Baseline action choice at this episode's epsilon or temperature.

    epsilon-greedy consumes two uniforms per call (branch, then action or
    tie-break); Boltzmann consumes one, in quantum.sample_index. Softmax
    subtracts the largest q/tau before exponentiating; where q/tau itself
    overflows, that is inf - inf, so it weights each action by
    exp((q - max q) / tau) instead, whose largest weight is 1. ExplorationSchedule
    keeps the temperature >= MIN_TEMPERATURE.
    """
    row = q[state]
    if kind == "epsilon_greedy":
        u_branch = rng.random()
        u_pick = rng.random()
        if u_branch < value:
            return min(int(u_pick * N_ACTIONS), N_ACTIONS - 1)
        top = max(row)
        ties = [i for i, v in enumerate(row) if v == top]
        return ties[min(int(u_pick * len(ties)), len(ties) - 1)]
    q0, q1, q2, q3 = row
    z0, z1, z2, z3 = q0 / value, q1 / value, q2 / value, q3 / value
    top = max(z0, z1, z2, z3)
    if not _NEG_INF < top < _INF:  # q/tau overflowed
        q_max = max(q0, q1, q2, q3)
        z0, z1, z2, z3 = (q0 - q_max) / value, (q1 - q_max) / value, (q2 - q_max) / value, (q3 - q_max) / value
        top = 0.0
    w0, w1, w2, w3 = math.exp(z0 - top), math.exp(z1 - top), math.exp(z2 - top), math.exp(z3 - top)
    total = w0 + w1 + w2 + w3
    return sample_index((w0 / total, w1 / total, w2 / total, w3 / total), rng)


def ql_update(
    q, state: int, action: int, reward: float, next_state: int, alpha: float, gamma: float, end: bool = False
) -> None:
    """Standard Q-learning backup; a Q value that overflows is refused before
    it is written. end is qirl_update's: the move bootstraps 0, not max Q(next)."""
    bootstrap = 0.0 if end else max(q[next_state])
    row = q[state]
    old = row[action]
    new = old + alpha * (reward + gamma * bootstrap - old)
    if not _NEG_INF < new < _INF:
        message = f"Q value of state {state}, action {action} overflowed to {new!r}"
        raise ValueError(f"{message}: the field's returns are too large to learn")
    row[action] = new


def _snapshot(table: list) -> np.ndarray:  # a read-only numpy copy of an agent's list table
    array = np.array(table)
    array.flags.writeable = False
    return array


class QiRLAgent:
    """Owns the list value and preference tables and the update counter."""

    name = "qirl"

    def __init__(self, env: GridWorld, cfg: QiRLConfig | None = None):
        cfg = cfg if cfg is not None else QiRLConfig()
        if cfg.reward_scale is None:
            cfg = replace(cfg, reward_scale=env.terminal_bonus)
        self.cfg = cfg
        self.value_list = [0.0] * env.n_states
        self.pref_rows = [[1.0 / N_ACTIONS] * N_ACTIONS for _ in range(env.n_states)]  # |h|^2, equal superposition
        self.updates = 0

    values = property(lambda self: _snapshot(self.value_list))
    prefs = property(lambda self: _snapshot(self.pref_rows))

    def select(self, state: int, rng: np.random.Generator) -> int:
        return qirl_select(self.pref_rows, state, rng)

    def update(self, state: int, action: int, reward: float, next_state: int, end: bool) -> None:
        qirl_update(self.value_list, self.pref_rows, state, action, reward, next_state, self.cfg, self.updates, end)
        self.updates += 1

    def end_episode(self) -> None:
        pass

    def greedy_action(self, state: int) -> int:
        row = self.pref_rows[state]
        return row.index(max(row))  # np.argmax's rule: the first maximum


class QLearningAgent:
    """Q-table learner with an epsilon-greedy or Boltzmann schedule."""

    def __init__(self, env: GridWorld, schedule: ExplorationSchedule, alpha: float = 0.1, gamma: float = 1.0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        self.q_rows = [[0.0] * N_ACTIONS for _ in range(env.n_states)]
        self.schedule, self.alpha, self.gamma, self.episode = schedule, alpha, gamma, 0
        self.explore = schedule.value(0)  # epsilon or temperature for the current episode
        self.name = "ql_eps" if schedule.kind == "epsilon_greedy" else "ql_boltz"

    q = property(lambda self: _snapshot(self.q_rows))

    def select(self, state: int, rng: np.random.Generator) -> int:
        return ql_select(self.q_rows, state, self.schedule.kind, self.explore, rng)

    def update(self, state: int, action: int, reward: float, next_state: int, end: bool) -> None:
        ql_update(self.q_rows, state, action, reward, next_state, self.alpha, self.gamma, end)

    def end_episode(self) -> None:
        self.episode += 1
        self.explore = self.schedule.value(self.episode)

    def greedy_action(self, state: int) -> int:
        row = self.q_rows[state]
        return row.index(max(row))  # np.argmax's rule: the first maximum


@dataclass
class Rollout:
    """States visited by a deterministic policy, rewards collected, and
    whether the terminal cell was reached within the step budget."""

    states: list[int] = field(default_factory=list)
    rewards: list[float] = field(default_factory=list)
    total_return: float = 0.0
    reached_terminal: bool = False


def greedy_rollout(env: GridWorld, policy) -> Rollout:
    """Follow policy(state) -> action from the start cell.

    Runs until the terminal cell or the step budget; a stationary policy that
    revisits a state can never terminate, so budget exhaustion doubles as
    cycle truncation and leaves reached_terminal False.
    """
    out = Rollout(states=[env.start_state])
    s = env.start_state
    for _ in range(env.max_steps):
        step = env.step(s, policy(s))
        out.states.append(step.next_state)
        out.rewards.append(step.reward)
        out.total_return += step.reward
        s = step.next_state
        if step.terminal:
            out.reached_terminal = True
            break
    return out
