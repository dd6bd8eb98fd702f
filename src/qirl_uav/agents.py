"""Tabular learners: the quantum-inspired agent (collapse selection plus
multiplicative amplitude-style reinforcement) and two Q-learning baselines.
Both the qirl collapse and the Boltzmann softmax draw with quantum.sample_index."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .gridworld import N_ACTIONS, FieldError, GridWorld, StepOutcome
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
            raise FieldError("kind", f"unknown schedule kind {self.kind!r}")
        if not 0.0 <= self.initial < math.inf:
            raise FieldError("initial", "initial must be non-negative and finite")
        if not 0.0 < self.decay <= 1.0:
            raise FieldError("decay", "decay must lie in (0, 1]")
        if not (MIN_TEMPERATURE if self.kind == "boltzmann" else 0.0) <= self.floor < math.inf:
            raise FieldError("floor", f"floor must be at least {MIN_TEMPERATURE:g} for boltzmann (else 0) and finite")

    def value(self, episode: int) -> float:
        return max(self.floor, self.initial * self.decay**episode)


def default_epsilon_schedule(**overrides: float) -> ExplorationSchedule:
    return ExplorationSchedule("epsilon_greedy", **{"initial": 1.0, "decay": 0.995, "floor": 0.01, **overrides})


def default_boltzmann_schedule(terminal_bonus: float, **overrides: float) -> ExplorationSchedule:
    """tau from the terminal bonus down to 1% of it; overrides replace any of
    initial, decay, floor. A default floor below MIN_TEMPERATURE names the bonus."""
    defaults = {"initial": terminal_bonus, "decay": 0.995, "floor": 0.01 * terminal_bonus}
    try:
        return ExplorationSchedule("boltzmann", **{**defaults, **overrides})
    except FieldError as exc:
        if exc.field != "floor" or "floor" in overrides:
            raise
        message = f"default Boltzmann floor (1% of terminal bonus {terminal_bonus:g}) is below {MIN_TEMPERATURE:g}"
        raise FieldError("floor", f"{message}: set one with --explore-floor") from None


def qirl_select(prefs: np.ndarray, state: int, rng: np.random.Generator) -> int:
    """Collapse the state's action distribution through quantum.sample_index;
    one uniform consumed; qirl_update keeps the row on the simplex."""
    return sample_index(prefs[state].tolist(), rng)


def _apply_floor(p: list[float], floor: float) -> None:
    """Lift entries of the row list `p` (an ndarray row works too) to at least
    `floor` in place, renormalizing the unfloored mass.

    Iterative so the scaled entries cannot dip back under the floor; ends with
    an exact clamp, leaving the row sum within a few ulps of 1.
    """
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


def qirl_update(
    values: np.ndarray,
    prefs: np.ndarray,
    state: int,
    action: int,
    reward: float,
    next_state: int,
    cfg: QiRLConfig,
    update_count: int = 0,
    cut: bool = False,
) -> None:
    """One undiscounted TD(0) value step plus one multiplicative preference
    step, in place; a value that overflows is refused, so every row sums to 1.

    The TD error is computed before the value write. The reinforcement factor
    exp(clamp(k * |reward + V(next_state)| / reward_scale)) reads the value
    table after the write (it differs only on rebounds, where next == state).
    k is k_minus on a rebound (qirl never steps from the terminal, so only a
    move off the grid stays put) or a negative TD error, else k_plus: the
    branch alone sets the sign. The row is read once as a list, renormalized,
    floored and written back once.

    cut marks the final transition of a budget-truncated episode: the TD
    target bootstraps 0 then (as on terminal entry, whose V never leaves 0),
    keeping learned values finite-horizon-consistent. Without it, undiscounted
    TD on positive-reward cycles has no fixed point and diverges. The
    preference factor still reads the stored V(next_state), so a truncated
    episode's last action is punished in proportion to the value it failed
    to cash in, exactly countering the boosts a loop collected on the way.
    """
    if cfg.reward_scale is None:
        raise ValueError("reward_scale unresolved; construct the config with a value or use QiRLAgent")
    alpha = cfg.alpha_at(update_count)
    v_state = float(values[state])
    v_next = float(values[next_state])
    delta = reward + (0.0 if cut else v_next) - v_state
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
    p = prefs[state].tolist()
    p[action] *= math.exp(exponent)
    total = p[0] + p[1] + p[2] + p[3]
    p = [p[0] / total, p[1] / total, p[2] / total, p[3] / total]
    _apply_floor(p, cfg.p_floor)
    prefs[state] = p


def ql_select(
    q: np.ndarray,
    state: int,
    schedule: ExplorationSchedule,
    episode: int,
    rng: np.random.Generator,
) -> int:
    """Exploratory action choice for the baselines.

    epsilon-greedy consumes two uniforms per call (branch, then action or
    tie-break); Boltzmann consumes one, in quantum.sample_index. Softmax
    subtracts the row max before exponentiating, so extreme Q values cannot
    overflow, and ExplorationSchedule keeps the temperature >= MIN_TEMPERATURE.
    """
    value = schedule.value(episode)
    row = q[state].tolist()
    if schedule.kind == "epsilon_greedy":
        u_branch = rng.random()
        u_pick = rng.random()
        if u_branch < value:
            return min(int(u_pick * N_ACTIONS), N_ACTIONS - 1)
        top = max(row)
        ties = [i for i, v in enumerate(row) if v == top]
        return ties[min(int(u_pick * len(ties)), len(ties) - 1)]
    z = [v / value for v in row]
    top = max(z)
    w0, w1, w2, w3 = (math.exp(v - top) for v in z)
    total = w0 + w1 + w2 + w3
    return sample_index((w0 / total, w1 / total, w2 / total, w3 / total), rng)


def ql_update(
    q: np.ndarray,
    state: int,
    action: int,
    reward: float,
    next_state: int,
    alpha: float,
    gamma: float,
    terminal: bool = False,
) -> None:
    """Standard Q-learning backup; a Q value that overflows is refused before it is written.

    terminal covers any episode-ending transition (terminal entry or budget
    cut): those bootstrap from 0 instead of max Q(next)."""
    bootstrap = 0.0 if terminal else max(q[next_state].tolist())
    old = float(q[state, action])
    new = old + alpha * (reward + gamma * bootstrap - old)
    if not _NEG_INF < new < _INF:
        message = f"Q value of state {state}, action {action} overflowed to {new!r}"
        raise ValueError(f"{message}: the field's returns are too large to learn")
    q[state, action] = new


class QiRLAgent:
    """Owns the value and preference tables plus the update counter."""

    name = "qirl"

    def __init__(self, env: GridWorld, cfg: QiRLConfig | None = None):
        cfg = cfg if cfg is not None else QiRLConfig()
        if cfg.reward_scale is None:
            cfg = replace(cfg, reward_scale=env.terminal_bonus)
        self.cfg = cfg
        self.values = np.zeros(env.n_states)
        self.prefs = np.full((env.n_states, N_ACTIONS), 1.0 / N_ACTIONS)  # uniform: |h|^2 of an equal superposition
        self.updates = 0

    def select(self, state: int, rng: np.random.Generator) -> int:
        return qirl_select(self.prefs, state, rng)

    def update(self, state: int, action: int, outcome: StepOutcome, cut: bool = False) -> None:
        qirl_update(
            self.values,
            self.prefs,
            state,
            action,
            outcome.reward,
            outcome.next_state,
            self.cfg,
            self.updates,
            cut,
        )
        self.updates += 1

    def end_episode(self) -> None:
        pass

    def greedy_action(self, state: int) -> int:
        return int(np.argmax(self.prefs[state]))


class QLearningAgent:
    """Q-table learner with an epsilon-greedy or Boltzmann schedule."""

    def __init__(self, env: GridWorld, schedule: ExplorationSchedule, alpha: float = 0.1, gamma: float = 1.0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0.0 <= gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        self.q = np.zeros((env.n_states, N_ACTIONS))
        self.schedule = schedule
        self.alpha = alpha
        self.gamma = gamma
        self.episode = 0
        self.name = "ql_eps" if schedule.kind == "epsilon_greedy" else "ql_boltz"

    def select(self, state: int, rng: np.random.Generator) -> int:
        return ql_select(self.q, state, self.schedule, self.episode, rng)

    def update(self, state: int, action: int, outcome: StepOutcome, cut: bool = False) -> None:
        ql_update(
            self.q,
            state,
            action,
            outcome.reward,
            outcome.next_state,
            self.alpha,
            self.gamma,
            outcome.terminal or cut,
        )

    def end_episode(self) -> None:
        self.episode += 1

    def greedy_action(self, state: int) -> int:
        return int(np.argmax(self.q[state]))


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
