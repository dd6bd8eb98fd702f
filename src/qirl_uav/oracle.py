"""Exact planners used as ground truth: finite-horizon backward induction
and (on tiny instances) exhaustive path enumeration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gridworld import N_ACTIONS, GridWorld, manhattan

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

    best[t][s] is the largest return collectable from s with t steps left;
    the terminal state is absorbing at 0 once its entry bonus has been paid,
    and rebounds are modeled like any other transition. Both come from
    `env.transitions`, the table `env.step` reads. With gamma = 1 the
    horizon index is what makes the recursion exact. The optimal path is
    replayed forward, ties broken by fixed action order; the reported return
    is the forward sum along that path, so it is bit-identical to what a
    brute-force enumerator accumulates for the same path (the backward table
    associates the same additions in the opposite order, which can differ in
    the last ulp).

    horizon defaults to the environment's step budget; pass a smaller value
    to probe returns under tighter budgets (EnvConfig itself never admits a
    budget below the start-terminal Manhattan distance).
    """
    h = env.max_steps if horizon is None else horizon
    if h < 0:
        raise ValueError("horizon must be non-negative")
    nxt = np.array([[out.next_state for out in row] for row in env.transitions])
    rew = np.array([[out.reward for out in row] for row in env.transitions], dtype=float)
    best = np.zeros((h + 1, env.n_states))
    for t in range(1, h + 1):
        candidates = rew + best[t - 1][nxt]
        best[t] = candidates.max(axis=1)
        best[t, env.terminal_state] = 0.0

    path = [env.start_state]
    s = env.start_state
    total = 0.0
    t = h
    while t > 0 and s != env.terminal_state:
        values = rew[s] + best[t - 1][nxt[s]]
        a = int(np.argmax(values))
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

    Walks every action sequence (branches stop at the terminal cell), so it
    is exponential in max_len and refuses anything beyond 16 cells or depth
    12. Returns (best return, state path); (-inf, ()) if no sequence reaches
    the terminal cell.
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

    def walk(s: int, steps_left: int, acc: float) -> None:
        nonlocal best_return, best_path
        if steps_left == 0:
            return
        for a in range(N_ACTIONS):
            out = env.step(s, a)
            if out.terminal:
                if acc + out.reward > best_return:
                    best_return = acc + out.reward
                    best_path = tuple(path) + (out.next_state,)
            else:
                path.append(out.next_state)
                walk(out.next_state, steps_left - 1, acc + out.reward)
                path.pop()

    walk(env.start_state, max_len, 0.0)
    return best_return, best_path
