"""Deterministic episodic grid MDP whose cell rewards are uplink sum rates."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np

from .channel import CarrierConfig, GroundUser, Position3, rate_field

TERMINAL_BONUS_FACTOR = 10.0

# Largest step budget x cell count the exact planner takes: its policy holds one
# byte per (step, cell), so this caps that table at 128 MiB.
MAX_PLAN_CELLS = 2**27


class Action(IntEnum):
    """Motion on the cell grid. Forward/backward move along +y/-y (index j),
    left/right along -x/+x (index i)."""

    FORWARD = 0
    BACKWARD = 1
    LEFT = 2
    RIGHT = 3


# (di, dj) per Action value; order must match the enum.
ACTION_DELTAS = ((0, 1), (0, -1), (-1, 0), (1, 0))

N_ACTIONS = len(Action)


class FieldError(ValueError):
    """A config value out of range: `field` names the dataclass field and
    `index` the offending entry of a tuple field, so callers can trace it."""

    def __init__(self, field: str, message: str, index: int | None = None):
        super().__init__(message)
        self.field = field
        self.index = index


@dataclass(frozen=True)
class GridSpec:
    """Grid geometry: n1 x n2 cells of cell_size meters, flown at a fixed
    altitude. origin is the (x, y) of cell (0, 0)'s center."""

    n1: int
    n2: int
    cell_size: float
    origin: tuple[float, float]
    altitude: float

    def __post_init__(self):
        for name in ("n1", "n2"):
            if getattr(self, name) < 2:
                raise FieldError(name, "grid needs at least 2 cells per side")
        for name in ("cell_size", "altitude"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise FieldError(name, f"{name} must be positive and finite")
        if not all(-np.inf < v < np.inf for v in self.origin):
            raise FieldError("origin", "origin must be finite")


@dataclass(frozen=True)
class EnvConfig:
    grid: GridSpec
    users: tuple[GroundUser, ...]
    carrier: CarrierConfig
    start_cell: tuple[int, int]
    terminal_cell: tuple[int, int]
    max_steps: int
    total_bandwidth: float
    uniform_reward: float | None = None  # synthetic override: every cell gets this
    boundary_penalty: float = 0.0

    def __post_init__(self):
        n1, n2 = self.grid.n1, self.grid.n2
        for name in ("start_cell", "terminal_cell"):
            i, j = getattr(self, name)
            if not (0 <= i < n1 and 0 <= j < n2):
                raise FieldError(name, f"{name.removesuffix('_cell')} cell ({i}, {j}) outside {n1}x{n2} grid")
        if self.start_cell == self.terminal_cell:
            raise FieldError("terminal_cell", "terminal cell equals start cell")
        if self.uniform_reward is None:
            if not self.users:
                raise FieldError("users", "no user lines and no uniform_reward: the reward field needs one of them")
        elif not 0.0 < self.uniform_reward < np.inf:
            raise FieldError("uniform_reward", "uniform_reward must be positive and finite")
        if not 0.0 < self.total_bandwidth < np.inf:
            raise FieldError("total_bandwidth", "total bandwidth must be positive and finite")
        allocated = 0.0
        for index, user in enumerate(self.users):
            allocated += user.bandwidth
            if allocated > self.total_bandwidth * (1.0 + 1e-12):
                message = f"user bandwidth sum {allocated:g} Hz exceeds total bandwidth {self.total_bandwidth:g} Hz"
                raise FieldError("users", message, index)
        distance = manhattan(self.start_cell, self.terminal_cell)
        if self.max_steps < distance:
            message = f"max_steps {self.max_steps} below start-terminal Manhattan distance {distance}"
            raise FieldError("max_steps", message)
        if self.max_steps * n1 * n2 > MAX_PLAN_CELLS:
            message = f"max_steps {self.max_steps} x {n1 * n2} cells exceeds the planner cap of {MAX_PLAN_CELLS} cells"
            raise FieldError("max_steps", message)
        if not -np.inf < self.boundary_penalty <= 0.0:
            raise FieldError("boundary_penalty", "boundary_penalty must be <= 0 and finite")


@dataclass(frozen=True, slots=True)
class StepOutcome:
    next_state: int
    reward: float
    boundary_hit: bool
    terminal: bool


def manhattan(cell_a: tuple[int, int], cell_b: tuple[int, int]) -> int:
    return abs(cell_a[0] - cell_b[0]) + abs(cell_a[1] - cell_b[1])


class GridWorld:
    """Immutable environment: precomputed per-cell rewards, flattened states.

    State id of cell (i, j) is j * n1 + i. Entering a cell pays that cell's
    reward; entering the terminal cell pays the bonus (10x the max cell
    reward) instead and ends the episode. Moves off the grid rebound: same
    state, boundary penalty (default 0), episode continues. Every move is
    read from `transition_model`, the one move model: the planners and the
    training loop read its arrays, and `step` makes one StepOutcome per call
    from them. A field or terminal bonus that is not finite is refused here.
    """

    def __init__(self, config: EnvConfig):
        self.config = config
        self.n1 = config.grid.n1
        self.n2 = config.grid.n2
        self.n_states = self.n1 * self.n2
        self.max_steps = config.max_steps
        self.boundary_penalty = config.boundary_penalty
        self.start_state = self.state_of(*config.start_cell)
        self.terminal_state = self.state_of(*config.terminal_cell)
        if config.uniform_reward is not None:
            self.rewards = np.full(self.n_states, float(config.uniform_reward))
        else:  # at the cell centers; rates[j, i] ravels to state j * n1 + i
            grid = config.grid
            xs = [grid.origin[0] + i * grid.cell_size for i in range(self.n1)]
            ys = [grid.origin[1] + j * grid.cell_size for j in range(self.n2)]
            self.rewards = rate_field(xs, ys, grid.altitude, config.users, config.carrier).ravel()
        self.terminal_bonus = TERMINAL_BONUS_FACTOR * float(self.rewards.max())
        if not (np.isfinite(self.rewards).all() and np.isfinite(self.terminal_bonus)):
            raise ValueError(f"reward field is not finite: terminal bonus (10x its maximum) {self.terminal_bonus!r}")

    def state_of(self, i: int, j: int) -> int:
        if not (0 <= i < self.n1 and 0 <= j < self.n2):
            raise ValueError(f"cell ({i}, {j}) outside {self.n1}x{self.n2} grid")
        return j * self.n1 + i

    def cell_of(self, state: int) -> tuple[int, int]:
        self._check_state(state)
        return state % self.n1, state // self.n1

    def cell_center(self, state: int) -> Position3:
        i, j = self.cell_of(state)
        ox, oy = self.config.grid.origin
        size = self.config.grid.cell_size
        return Position3(ox + i * size, oy + j * size, self.config.grid.altitude)

    @cached_property
    def transition_model(self) -> tuple[np.ndarray, np.ndarray]:
        """(next_state, reward), two read-only (n_states, 4) arrays built from
        the reward row on first use; the package's one move model. A move off
        the grid stays put and pays the boundary penalty; entering the terminal
        cell pays the bonus. The terminal row is absorbing, a zero-reward
        self-loop that `step` refuses and training never reads."""
        states = np.arange(self.n_states)[:, None]
        di, dj = np.array(ACTION_DELTAS).T
        ti, tj = states % self.n1 + di, states // self.n1 + dj
        inside = (0 <= ti) & (ti < self.n1) & (0 <= tj) & (tj < self.n2)
        nxt = np.where(inside, tj * self.n1 + ti, states)
        reward = np.where(inside, self.rewards[nxt], self.boundary_penalty)
        reward[nxt == self.terminal_state] = self.terminal_bonus
        nxt[self.terminal_state], reward[self.terminal_state] = self.terminal_state, 0.0
        nxt.flags.writeable = reward.flags.writeable = False  # shared by every reader
        return nxt, reward

    def step(self, state: int, action: int) -> StepOutcome:
        """One move of `transition_model`, made on each call. Stepping from the
        terminal cell is a contract violation (episodes end there), so a move
        that stays put is a rebound."""
        self._check_state(state)
        if state == self.terminal_state:
            raise ValueError("cannot step from the terminal cell")
        if not 0 <= action < N_ACTIONS:
            raise ValueError(f"action {action} outside 0..{N_ACTIONS - 1}")
        nxt, reward = self.transition_model
        n = int(nxt[state, action])
        return StepOutcome(n, float(reward[state, action]), n == state, n == self.terminal_state)

    def _check_state(self, state: int) -> None:
        if not 0 <= state < self.n_states:
            raise ValueError(f"state {state} outside 0..{self.n_states - 1}")


def build(config: EnvConfig) -> GridWorld:
    """Construct the environment (validates config, precomputes rewards)."""
    return GridWorld(config)
