"""Exact planners used as ground truth: finite-horizon backward induction
and (on tiny instances) exhaustive path enumeration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gridworld import MAX_PLAN_CELLS, N_ACTIONS, GridWorld, manhattan

MAX_ENUM_STATES = 16
MAX_ENUM_DEPTH = 12


@dataclass(frozen=True)
class DPResult:
    optimal_return: float
    optimal_path: tuple[int, ...]  # state ids, start first
    horizon_used: int  # steps taken by the extracted path
    reaches_terminal: bool  # extracted path ends at the terminal cell
    terminal_reachable: bool  # Manhattan distance fits inside the horizon


def dp_optimal(env: GridWorld, horizon: int | None = None) -> DPResult:
    """Maximum achievable episode return by backward induction.

    The value of s with t steps left is the largest reward + value of the
    next state with t - 1 steps left over the four moves; the terminal state
    is absorbing at 0 once its entry bonus has been paid, and rebounds are
    modeled like any other transition. Both come from `env.transition_model`,
    the arrays behind the outcomes `env.step` returns. With gamma = 1 the
    horizon index is what makes the recursion exact. Only the current value
    row is kept; each step's decision rule goes into a uint8 policy of
    horizon x n_states bytes, with ties going to the first maximum in fixed
    action order (`np.argmax`). The optimal path is replayed forward from
    that policy; the reported return is the forward sum along that path, so
    it is bit-identical to what a brute-force enumerator accumulates for the
    same path (backward induction associates the same additions in the
    opposite order, which can differ in the last ulp).

    horizon defaults to the environment's step budget; pass a smaller value
    to probe returns under tighter budgets (EnvConfig itself never admits a
    budget below the start-terminal Manhattan distance). A horizon whose
    policy would exceed MAX_PLAN_CELLS bytes (128 MiB) raises ValueError,
    as EnvConfig does for such a step budget.
    """
    h = env.max_steps if horizon is None else horizon
    if h < 0:
        raise ValueError("horizon must be non-negative")
    if h * env.n_states > MAX_PLAN_CELLS:
        raise ValueError(f"horizon {h} x {env.n_states} cells exceeds the planner cap of {MAX_PLAN_CELLS} cells")
    nxt, rew = env.transition_model
    row_starts = np.arange(env.n_states) * N_ACTIONS  # each state's first entry in candidates.ravel()
    policy = np.empty((h, env.n_states), np.uint8)  # policy[t - 1][s]: the move from s with t steps left
    best = np.zeros(env.n_states)
    for t in range(h):
        candidates = rew + best[nxt]
        choice = candidates.argmax(axis=1)
        policy[t] = choice
        best = candidates.ravel()[row_starts + choice]
        best[env.terminal_state] = 0.0

    path = [env.start_state]
    s = env.start_state
    total = 0.0
    t = h
    while t > 0 and s != env.terminal_state:
        a = int(policy[t - 1, s])
        total += float(rew[s, a])
        s = int(nxt[s, a])
        path.append(s)
        t -= 1

    return DPResult(
        optimal_return=total,
        optimal_path=tuple(path),
        horizon_used=len(path) - 1,
        reaches_terminal=(s == env.terminal_state),
        terminal_reachable=(manhattan(env.config.start_cell, env.config.terminal_cell) <= h),
    )


def enumerate_paths(env: GridWorld, max_len: int) -> tuple[float, tuple[int, ...]]:
    """Brute-force the best terminal-reaching path of at most max_len steps.

    Walks every action sequence through `env.transition_model`, read as
    lists; branches stop at the terminal cell, so its absorbing row is never
    read. The walk is exponential in max_len and refuses anything beyond 16
    cells or depth 12. Returns (best return, state path); (-inf, ()) if no
    sequence reaches the terminal cell.
    """
    if env.n_states > MAX_ENUM_STATES or max_len > MAX_ENUM_DEPTH:
        raise ValueError(
            f"refusing exhaustive enumeration: {env.n_states} cells, depth {max_len} "
            f"(limits {MAX_ENUM_STATES} cells, depth {MAX_ENUM_DEPTH})"
        )
    if max_len < 0:
        raise ValueError("max_len must be non-negative")

    best_return = -math.inf
    best_path: tuple[int, ...] = ()
    path = [env.start_state]
    nxt, rew = (column.tolist() for column in env.transition_model)

    def walk(s: int, steps_left: int, acc: float) -> None:
        nonlocal best_return, best_path
        if steps_left == 0:
            return
        for s_next, reward in zip(nxt[s], rew[s]):
            if s_next == env.terminal_state:
                if acc + reward > best_return:
                    best_return = acc + reward
                    best_path = tuple(path) + (s_next,)
            else:
                path.append(s_next)
                walk(s_next, steps_left - 1, acc + reward)
                path.pop()

    walk(env.start_state, max_len, 0.0)
    return best_return, best_path
