"""Seeded experiment runner: trains agents on a layout, writes episodes.csv,
trajectory.csv, and summary.json, and computes convergence metrics. A seed's
training record is one EpisodeLog of columns; no object is made per episode.

Reproducibility protocol: each (config, seed) pair gets its own numpy Philox
generator (counter-based), Generator(Philox(seed)). Selection draw counts are
fixed per agent kind (one uniform per step for qirl and ql_boltz, two for
ql_eps; train draws them in blocks but leaves the generator where scalar draws
would), so identical configs replay identical episodes and the CSV outputs are
byte-identical. Floats are written with repr(), which round-trips exactly.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import os
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
UNIFORM_BLOCK = 4096  # uniforms train draws from the generator at a time

EPISODE_COLUMNS = ("seed", "episode", "return", "steps", "reached_terminal")
TRAJECTORY_COLUMNS = ("seed", "step", "cell_i", "cell_j", "x_m", "y_m", "reward")


@dataclass(frozen=True)
class EpisodeLog:
    """One seed's training record as columns: episode k sits at index k - 1."""
    returns: list[float]
    steps: list[int]
    reached: list[bool]  # whether the episode entered the terminal cell


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


class _BlockUniforms:
    """Serves rng's uniforms in scalar rng.random() order, drawn UNIFORM_BLOCK
    at a time. Philox is counter-based, so settle() can set rng back to its
    state before the current block and redraw just the uniforms served from
    it, leaving rng where scalar draws would."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.saved, self.block, self.pos = rng, rng.bit_generator.state, [], 0

    def random(self) -> float:
        pos = self.pos
        if pos == len(self.block):  # none drawn yet, or all served
            self.saved = self.rng.bit_generator.state
            self.block, pos = self.rng.random(UNIFORM_BLOCK).tolist(), 0
        self.pos = pos + 1
        return self.block[pos]

    def settle(self) -> None:
        self.rng.bit_generator.state = self.saved
        self.rng.random(self.pos)


def train(env: GridWorld, agent, episodes: int, rng: np.random.Generator, check_invariants: bool = False) -> EpisodeLog:
    """Run the episodic loop: select, move, update until terminal or budget.

    Moves are read from `env.transition_model` as lists; `update` gets `end`
    on terminal entry and on the step that uses up the budget. The agent's
    uniforms come from rng through _BlockUniforms, and rng ends, even on a
    refusal, where one rng.random() per draw would leave it. The loop makes no
    reference cycles, so the cyclic collector is off while it runs, then left
    as the caller had it. Each episode appends to the returned EpisodeLog's
    columns; a return outside the float range is refused, as the learners
    refuse such a value. Every SPOT_CHECK_EVERY-th episode is replayed from
    its recorded actions through `greedy_rollout` (so through `env.step`) to
    re-verify the logged return. With
    check_invariants, every qirl update is followed by a preference-row audit
    (sum within 1e-9 of 1, entries at or above the floor).
    """
    nxt, rew = (column.tolist() for column in env.transition_model)
    budget, terminal = env.max_steps, env.terminal_state
    audit = check_invariants and isinstance(agent, QiRLAgent)
    uniforms, log = _BlockUniforms(rng), EpisodeLog([], [], [])
    collecting = gc.isenabled()
    gc.disable()  # a pass would find no garbage, and its cost varies with what the process holds
    try:
        for episode in range(1, episodes + 1):
            actions = [] if episode % SPOT_CHECK_EVERY == 0 else None
            s, total, steps, reached = env.start_state, 0.0, 0, False
            while steps < budget:
                a = agent.select(s, uniforms)
                s_next, reward = nxt[s][a], rew[s][a]
                steps += 1
                reached = s_next == terminal
                agent.update(s, a, reward, s_next, reached or steps == budget)
                if audit:
                    row = agent.pref_rows[s]
                    if abs(sum(row) - 1.0) > 1e-9:
                        raise AssertionError(f"preference row sum drifted at state {s}")
                    if min(row) < agent.cfg.p_floor:
                        raise AssertionError(f"preference row under the floor at state {s}")
                if actions is not None:
                    actions.append(a)
                total += reward
                s = s_next
                if reached:
                    break
            agent.end_episode()
            if not _NEG_INF < total < _INF:
                raise ValueError(f"episode {episode} return overflowed to {total!r}: the field's returns are too large")
            if actions is not None:
                replayed = greedy_rollout(env, lambda _s, it=iter(actions): next(it)).total_return
                if replayed != total:
                    raise AssertionError(f"episode {episode} return {total!r} != replayed {replayed!r}")
            log.returns.append(total)
            log.steps.append(steps)
            log.reached.append(reached)
    finally:
        if collecting:
            gc.enable()
        uniforms.settle()
    return log


def convergence_metrics(log: EpisodeLog, optimal_return: float, greedy_return: float) -> ConvergenceMetric:
    """Window-averaged convergence summary against the planner optimum.

    episodes_to_90pct is the first (1-based) episode whose trailing
    WINDOW-mean reaches 90% of the final trailing mean; a constant return
    sequence therefore yields exactly WINDOW. Undefined (None) with fewer
    than WINDOW episodes. oracle_gap = (optimal - greedy) / optimal.
    """
    gap = (optimal_return - greedy_return) / optimal_return
    if len(log.returns) < WINDOW:
        return ConvergenceMetric(None, None, gap)
    moving = np.convolve(log.returns, np.full(WINDOW, 1.0 / WINDOW), mode="valid")
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


def write_episodes_csv(path: Path, logs_of: dict[int, EpisodeLog]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EPISODE_COLUMNS)
        for seed, log in logs_of.items():
            n, reached = len(log.returns), ["true" if r else "false" for r in log.reached]
            writer.writerows(zip([seed] * n, range(1, n + 1), map(_fmt, log.returns), log.steps, reached, strict=True))


def read_episodes_csv(path: Path) -> dict[int, EpisodeLog]:
    """Parse a file written by write_episodes_csv into each seed's record; a
    malformed row, such as a return that is not finite, raises ValueError
    naming the file and line. The episode field is checked, not kept."""
    logs_of, last_seed = {}, None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != EPISODE_COLUMNS:
            raise ValueError(f"unexpected episodes.csv header in {path}")
        for rec in reader:
            try:
                seed, episode, total, steps, reached = rec
                if seed != last_seed:
                    log, last_seed = logs_of.setdefault(int(seed), EpisodeLog([], [], [])), seed
                int(episode)
                total, steps = float(total), int(steps)
                if not _NEG_INF < total < _INF:
                    raise ValueError(f"return must be finite, got {total!r}")
                if steps < 1:
                    raise ValueError(f"steps must be at least 1, got {steps}")
                if reached not in ("true", "false"):
                    raise ValueError(f"reached_terminal must be true or false, got {reached!r}")
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
            log.returns.append(total)
            log.steps.append(steps)
            log.reached.append(reached == "true")
    return logs_of


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
    """Train over every seed, then plan, and write the three output files,
    all or nothing: each to a temporary file, all moved into place at the end.

    The layout's bytes are read once, then parsed and hashed. Seeds run one
    after another in listed order, each with a fresh agent and generator, so
    outputs are reproducible byte for byte. The plan comes last, so a knob an
    agent refuses costs no plan. Returns the paths of the written files.
    """
    env_bytes = Path(config.env_file).read_bytes()
    env = build(parse_layout(config.env_file, env_bytes))
    if env.terminal_bonus == 0.0:  # qirl and Boltzmann scale by it, oracle_gap divides by the optimum
        raise ValueError(f"every cell of {config.env_file} pays 0, so the terminal bonus is 0: nothing to learn")

    logs_of, rollouts = {}, {}
    for seed in config.seeds:
        agent = make_agent(config, env)
        logs_of[seed] = train(env, agent, config.episodes, make_rng(seed))
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
    files = {"episodes": "episodes.csv", "trajectory": "trajectory.csv", "summary": "summary.json"}
    paths = {name: out_dir / file for name, file in files.items()}
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
    staged = {name: path.with_name(f".{path.name}.tmp") for name, path in paths.items()}
    try:
        write_episodes_csv(staged["episodes"], logs_of)
        write_trajectory_csv(staged["trajectory"], env, rollouts)
        with open(staged["summary"], "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except BaseException:
        for tmp in staged.values():
            tmp.unlink(missing_ok=True)
        raise
    for name, path in paths.items():
        os.replace(staged[name], path)
    return paths
