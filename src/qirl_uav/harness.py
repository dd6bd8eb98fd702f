"""Seeded experiment runner: trains agents on a layout, writes episodes.csv,
trajectory.csv, and summary.json, and computes convergence metrics.

Reproducibility protocol: each (config, seed) pair gets its own
numpy Philox generator (counter-based), Generator(Philox(seed)). Selection
draw counts are fixed per agent kind (one uniform per step for qirl and
ql_boltz, two for ql_eps), so identical configs replay identical episodes
and the CSV outputs are byte-identical. Floats are written with repr(),
which round-trips exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .agents import (
    _INF,
    _NEG_INF,
    ExplorationSchedule,
    QiRLAgent,
    QiRLConfig,
    QLearningAgent,
    default_boltzmann_schedule,
    default_epsilon_schedule,
    greedy_rollout,
)
from .gridworld import GridWorld, build
from .layout import parse_layout
from .oracle import dp_optimal

AGENT_KINDS = ("qirl", "ql_eps", "ql_boltz")
WINDOW = 50  # moving-average width for convergence metrics
SPOT_CHECK_EVERY = 100  # re-simulate 1% of episodes to re-verify logged returns

EPISODE_COLUMNS = ("seed", "episode", "return", "steps", "reached_terminal")
TRAJECTORY_COLUMNS = ("seed", "step", "cell_i", "cell_j", "x_m", "y_m", "reward")


@dataclass(frozen=True)
class EpisodeLog:
    episode: int  # 1-based
    total_return: float
    steps: int
    reached_terminal: bool


@dataclass(frozen=True)
class ConvergenceMetric:
    episodes_to_90pct: int | None  # None when fewer than WINDOW episodes
    final_return_mean: float | None
    oracle_gap: float


@dataclass
class RunConfig:
    """One run's settings. explore overrides some of initial, decay and floor
    of a baseline's default schedule; make_agent builds that schedule from the
    env, as Boltzmann's scales with its terminal bonus."""

    env_file: str
    agent: str
    episodes: int
    seeds: tuple[int, ...]
    output_dir: str
    alpha: float = 0.1
    gamma: float = 1.0  # baselines only; the qirl agent is pinned at 1
    qirl: QiRLConfig | None = None  # qirl only; None: QiRLConfig(alpha=alpha)
    explore: dict[str, float] = field(default_factory=dict)  # baselines only

    def __post_init__(self):
        if self.agent not in AGENT_KINDS:
            raise ValueError(f"agent must be one of {AGENT_KINDS}, got {self.agent!r}")
        # a knob this agent kind would ignore is refused, so the hash covers exactly what trains
        if self.agent == "qirl":
            self.qirl = self.qirl or QiRLConfig(alpha=self.alpha)
            ignored = {"exploration overrides": self.explore, "gamma != 1": self.gamma != 1.0}
            ignored["qirl.alpha != alpha"] = self.qirl.alpha != self.alpha
        else:
            ignored = {"a qirl config": self.qirl}
        for knob, given in ignored.items():
            if given:
                raise ValueError(f"agent {self.agent!r} does not take {knob}")
        unknown = set(self.explore) - {"initial", "decay", "floor"}
        if unknown:
            raise ValueError(f"exploration override {min(unknown)!r} is not one of initial, decay, floor")
        if self.episodes < 1:
            raise ValueError("episodes must be at least 1")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if min(self.seeds) < 0:
            raise ValueError("seeds must be non-negative")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def make_agent(config: RunConfig, env: GridWorld):
    """A fresh agent for one seed: qirl from config.qirl, a baseline from its
    kind's default schedule for env, built once with config.explore applied."""
    if config.agent == "qirl":
        return QiRLAgent(env, config.qirl)
    if config.agent == "ql_eps":
        schedule = default_epsilon_schedule(**config.explore)
    else:
        schedule = default_boltzmann_schedule(env.terminal_bonus, **config.explore)
    return QLearningAgent(env, schedule, alpha=config.alpha, gamma=config.gamma)


def train(
    env: GridWorld,
    agent,
    episodes: int,
    rng: np.random.Generator,
    check_invariants: bool = False,
) -> list[EpisodeLog]:
    """Run the episodic loop: select, step, update until terminal or budget.

    An episode return outside the float range is refused, as the learners
    refuse such a value. Every SPOT_CHECK_EVERY-th episode is replayed
    through the environment from its recorded actions to re-verify the
    logged return. With check_invariants, every qirl update is followed by a
    preference-row audit (sum within 1e-9 of 1, entries at or above the floor).
    """
    logs = []
    is_qirl = isinstance(agent, QiRLAgent)
    for episode in range(1, episodes + 1):
        verify = episode % SPOT_CHECK_EVERY == 0
        actions = [] if verify else None
        s = env.start_state
        total = 0.0
        steps = 0
        reached = False
        while steps < env.max_steps:
            a = agent.select(s, rng)
            out = env.step(s, a)
            # the budget-exhausting transition of a truncated episode bootstraps 0
            cut = steps + 1 >= env.max_steps and not out.terminal
            agent.update(s, a, out, cut)
            if check_invariants and is_qirl:
                row = agent.prefs[s]
                if abs(float(row.sum()) - 1.0) > 1e-9:
                    raise AssertionError(f"preference row sum drifted at state {s}")
                if float(row.min()) < agent.cfg.p_floor:
                    raise AssertionError(f"preference row under the floor at state {s}")
            if actions is not None:
                actions.append(a)
            total += out.reward
            steps += 1
            s = out.next_state
            if out.terminal:
                reached = True
                break
        agent.end_episode()
        if not _NEG_INF < total < _INF:
            raise ValueError(f"episode {episode} return overflowed to {total!r}: the field's returns are too large")
        if actions is not None:
            replayed = _replay_return(env, actions)
            if replayed != total:
                raise AssertionError(f"episode {episode} return {total!r} != replayed {replayed!r}")
        logs.append(EpisodeLog(episode, total, steps, reached))
    return logs


def _replay_return(env: GridWorld, actions: list[int]) -> float:
    s = env.start_state
    total = 0.0
    for a in actions:
        out = env.step(s, a)
        total += out.reward
        s = out.next_state
    return total


def convergence_metrics(logs: list[EpisodeLog], optimal_return: float, greedy_return: float) -> ConvergenceMetric:
    """Window-averaged convergence summary against the planner optimum.

    episodes_to_90pct is the first (1-based) episode whose trailing
    WINDOW-mean reaches 90% of the final trailing mean; a constant return
    sequence therefore yields exactly WINDOW. Undefined (None) with fewer
    than WINDOW episodes. oracle_gap = (optimal - greedy) / optimal.
    """
    gap = (optimal_return - greedy_return) / optimal_return
    if len(logs) < WINDOW:
        return ConvergenceMetric(None, None, gap)
    returns = np.array([log.total_return for log in logs])
    moving = np.convolve(returns, np.full(WINDOW, 1.0 / WINDOW), mode="valid")
    final = float(moving[-1])
    reached = np.flatnonzero(moving >= 0.9 * final)
    episodes_to_90pct = int(reached[0]) + WINDOW if reached.size else None
    return ConvergenceMetric(episodes_to_90pct, final, gap)


def config_hash(config: RunConfig, env_file_bytes: bytes, schedule: ExplorationSchedule | None = None) -> str:
    """SHA-256 over the layout bytes and every setting that trains. schedule,
    make_agent's resolution of config.explore, is hashed only when explore is
    non-empty. The qirl entry keeps the learner's fixed gamma of 1, so hashes
    match those of earlier runs."""
    payload = {
        "env_sha256": hashlib.sha256(env_file_bytes).hexdigest(),
        "agent": config.agent,
        "episodes": config.episodes,
        "seeds": list(config.seeds),
        "alpha": config.alpha,
        "gamma": config.gamma,
        "qirl": {**asdict(config.qirl), "gamma": 1.0} if config.qirl is not None else None,
        "schedule": asdict(schedule) if config.explore else None,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _fmt(value: float) -> str:
    return repr(float(value))


def write_episodes_csv(path: Path, rows: Iterable[tuple[int, EpisodeLog]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EPISODE_COLUMNS)
        for seed, log in rows:
            writer.writerow(
                [seed, log.episode, _fmt(log.total_return), log.steps, "true" if log.reached_terminal else "false"]
            )


def read_episodes_csv(path: Path) -> list[tuple[int, EpisodeLog]]:
    """Parse a file written by write_episodes_csv; a malformed row raises
    ValueError naming the file and line."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != EPISODE_COLUMNS:
            raise ValueError(f"unexpected episodes.csv header in {path}")
        for rec in reader:
            try:
                seed, episode, total, steps, reached = rec
                if reached not in ("true", "false"):
                    raise ValueError(f"reached_terminal must be true or false, got {reached!r}")
                rows.append((int(seed), EpisodeLog(int(episode), float(total), int(steps), reached == "true")))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    return rows


def write_trajectory_csv(path: Path, env: GridWorld, rollouts: dict[int, "Rollout"]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_COLUMNS)
        for seed in sorted(rollouts):
            rollout = rollouts[seed]
            rewards = [0.0] + rollout.rewards  # step 0: the start cell, nothing collected yet
            for step, (state, reward) in enumerate(zip(rollout.states, rewards)):
                i, j = env.cell_of(state)
                center = env.cell_center(state)
                writer.writerow([seed, step, i, j, _fmt(center.x), _fmt(center.y), _fmt(reward)])


def run(config: RunConfig) -> dict[str, Path]:
    """Train over every seed, then plan, and write the three output files.

    The layout's bytes are read once, then parsed and hashed. Seeds run one
    after another in listed order, each with a fresh agent and generator, so
    outputs are reproducible byte for byte. The plan comes last, so a knob an
    agent refuses costs no plan. Returns the paths of the written files.
    """
    env_bytes = Path(config.env_file).read_bytes()
    env = build(parse_layout(config.env_file, env_bytes))
    if env.terminal_bonus == 0.0:  # qirl and Boltzmann scale by it, oracle_gap divides by the optimum
        raise ValueError(f"every cell of {config.env_file} pays 0, so the terminal bonus is 0: nothing to learn")

    logs_of = {}
    rollouts = {}
    for seed in config.seeds:
        rng = make_rng(seed)
        agent = make_agent(config, env)
        logs_of[seed] = train(env, agent, config.episodes, rng)
        rollouts[seed] = greedy_rollout(env, agent.greedy_action)
    oracle = dp_optimal(env)

    per_seed = {}
    for seed, rollout in rollouts.items():
        metric = convergence_metrics(logs_of[seed], oracle.optimal_return, rollout.total_return)
        greedy_steps = len(rollout.states) - 1
        per_seed[str(seed)] = {
            "episodes_to_90pct": metric.episodes_to_90pct,
            "final_return_mean": metric.final_return_mean,
            "oracle_gap": metric.oracle_gap,
            "greedy_return": rollout.total_return,
            "greedy_return_per_step": rollout.total_return / greedy_steps if greedy_steps else 0.0,
            "greedy_steps": greedy_steps,
            "greedy_reached_terminal": rollout.reached_terminal,
        }

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "episodes": out_dir / "episodes.csv",
        "trajectory": out_dir / "trajectory.csv",
        "summary": out_dir / "summary.json",
    }
    rows = ((seed, log) for seed, logs in logs_of.items() for log in logs)
    write_episodes_csv(paths["episodes"], rows)
    write_trajectory_csv(paths["trajectory"], env, rollouts)
    summary = {
        "agent": config.agent,
        "env_file": str(config.env_file),
        "config_hash": config_hash(config, env_bytes, agent.schedule if config.explore else None),
        "episodes": config.episodes,
        "window": WINDOW,
        "oracle_return": oracle.optimal_return,
        "oracle_path_steps": oracle.horizon_used,
        "oracle_reaches_terminal": oracle.reaches_terminal,
        "oracle_return_per_step": oracle.optimal_return / oracle.horizon_used if oracle.horizon_used else 0.0,
        "seeds": per_seed,
    }
    with open(paths["summary"], "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths
