"""Training loop, convergence metrics, output files, and reproducibility."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qirl_uav import harness
from qirl_uav.agents import QiRLAgent, QiRLConfig, default_boltzmann_schedule, default_epsilon_schedule
from qirl_uav.harness import (
    WINDOW,
    ConvergenceMetric,
    EpisodeLog,
    RunConfig,
    config_hash,
    convergence_metrics,
    make_agent,
    make_rng,
    read_episodes_csv,
    run,
    train,
    write_episodes_csv,
)
from qirl_uav.oracle import dp_optimal

from conftest import TINY_LAYOUT, make_uniform_env


def logs_of(returns) -> list[EpisodeLog]:
    return [EpisodeLog(i + 1, float(r), 4, True) for i, r in enumerate(returns)]


def tiny_config(tmp_path, agent="qirl", episodes=30, seeds=(0, 1), **kw) -> RunConfig:
    return RunConfig(
        env_file=str(TINY_LAYOUT),
        agent=agent,
        episodes=episodes,
        seeds=seeds,
        output_dir=str(Path(tmp_path) / "out"),
        **kw,
    )


# ---------------------------------------------------------------- rng


def test_make_rng_is_deterministic_per_seed():
    a = [make_rng(7).random() for _ in range(3)]
    b = [make_rng(7).random() for _ in range(3)]
    assert a == b
    assert make_rng(8).random() != a[0]


# ---------------------------------------------------------------- metrics


def test_constant_returns_converge_at_first_full_window():
    metric = convergence_metrics(logs_of([5.0] * 200), _oracle_13(), greedy_return=13.0)
    assert metric.episodes_to_90pct == WINDOW
    assert metric.final_return_mean == pytest.approx(5.0)
    assert metric.oracle_gap == 0.0


def test_step_improvement_is_located_inside_the_window():
    returns = [0.0] * 100 + [10.0] * 100
    metric = convergence_metrics(logs_of(returns), _oracle_13(), greedy_return=13.0)
    # the curve jumps at episode 101; the trailing mean crosses 90% of its
    # final level once 45 of the 50 window entries are post-jump
    assert metric.episodes_to_90pct == 145
    assert 101 <= metric.episodes_to_90pct <= 151


def test_metrics_undefined_below_window():
    metric = convergence_metrics(logs_of([1.0] * (WINDOW - 1)), _oracle_13(), greedy_return=6.5)
    assert metric.episodes_to_90pct is None
    assert metric.final_return_mean is None
    assert metric.oracle_gap == 0.5


def test_oracle_gap_sign_and_scale():
    metric = convergence_metrics(logs_of([1.0] * 60), _oracle_13(), greedy_return=0.0)
    assert metric.oracle_gap == 1.0
    better = convergence_metrics(logs_of([1.0] * 60), _oracle_13(), greedy_return=13.0)
    assert better.oracle_gap == 0.0


def _oracle_13():
    return dp_optimal(make_uniform_env()).optimal_return


# ---------------------------------------------------------------- training loop


def test_train_logs_one_entry_per_episode(tiny_env):
    agent = QiRLAgent(tiny_env)
    logs = train(tiny_env, agent, 120, make_rng(0))
    assert len(logs) == 120
    assert [log.episode for log in logs] == list(range(1, 121))
    assert all(1 <= log.steps <= tiny_env.max_steps for log in logs)
    assert all(np.isfinite(log.total_return) for log in logs)
    # reached_terminal episodes are exactly those shorter than the budget,
    # plus budget-length ones whose last move entered the terminal cell
    for log in logs:
        if log.steps < tiny_env.max_steps:
            assert log.reached_terminal


def test_train_invariant_instrumentation_passes(tiny_env):
    agent = QiRLAgent(tiny_env)
    train(tiny_env, agent, 200, make_rng(1), check_invariants=True)
    assert agent.updates >= 200
    rows = agent.prefs
    assert np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-9)
    assert rows.min() >= agent.cfg.p_floor


def test_make_agent_dispatch(tiny_env):
    cfg = tiny_config("/tmp", agent="qirl")
    assert make_agent(cfg, tiny_env).name == "qirl"
    assert make_agent(tiny_config("/tmp", agent="ql_eps"), tiny_env).name == "ql_eps"
    boltz = make_agent(tiny_config("/tmp", agent="ql_boltz"), tiny_env)
    assert boltz.name == "ql_boltz"
    # boltzmann default temperature scales with the terminal bonus
    assert boltz.schedule.initial == tiny_env.terminal_bonus
    # an override replaces its own field of the kind's default schedule and keeps the rest
    override = make_agent(tiny_config("/tmp", agent="ql_boltz", explore={"floor": 0.5}), tiny_env)
    assert override.schedule == replace(default_boltzmann_schedule(tiny_env.terminal_bonus), floor=0.5)
    assert make_agent(tiny_config("/tmp", agent="ql_eps"), tiny_env).schedule == default_epsilon_schedule()


@pytest.mark.parametrize(
    "agent, knobs",
    [
        ("ql_eps", {"qirl": QiRLConfig()}),
        ("qirl", {"explore": {"decay": 0.5}}),
        ("qirl", {"gamma": 0.9}),
        ("qirl", {"alpha": 0.5, "qirl": QiRLConfig()}),
    ],
    ids=["eps-qirl-config", "qirl-schedule", "qirl-gamma", "qirl-alpha"],
)
def test_run_config_rejects_knobs_its_agent_ignores(tmp_path, agent, knobs):
    with pytest.raises(ValueError, match=f"agent '{agent}' does not take"):
        tiny_config(tmp_path, agent=agent, **knobs)


@pytest.mark.parametrize("agent", ["ql_eps", "ql_boltz"])
@pytest.mark.parametrize("key", ["kind", "tau"])
def test_run_config_refuses_an_override_outside_initial_decay_floor(tmp_path, agent, key):
    """`kind` is a schedule field too, but no run may switch its agent's kind."""
    with pytest.raises(ValueError, match=f"exploration override '{key}' is not one of initial, decay, floor"):
        tiny_config(tmp_path, agent=agent, explore={key: 0.5})


def test_default_qirl_config_has_one_hash(tmp_path):
    implicit = tiny_config(tmp_path, alpha=0.5)
    explicit = tiny_config(tmp_path, alpha=0.5, qirl=QiRLConfig(alpha=0.5))
    assert implicit.qirl == explicit.qirl
    assert config_hash(implicit, b"layout") == config_hash(explicit, b"layout")


def test_run_config_validation(tmp_path):
    with pytest.raises(ValueError):
        tiny_config(tmp_path, agent="sarsa")
    with pytest.raises(ValueError):
        tiny_config(tmp_path, episodes=0)
    with pytest.raises(ValueError):
        tiny_config(tmp_path, seeds=())
    with pytest.raises(ValueError):
        tiny_config(tmp_path, seeds=(3, 3))


# ---------------------------------------------------------------- files


def test_episodes_csv_roundtrip_preserves_floats(tmp_path):
    rows = [
        (0, EpisodeLog(1, 0.1 + 0.2, 4, False)),
        (0, EpisodeLog(2, 1e-17, 3, True)),
        (7, EpisodeLog(1, 123456.78901234567, 4, True)),
    ]
    path = tmp_path / "episodes.csv"
    write_episodes_csv(path, rows)
    assert read_episodes_csv(path) == rows


def test_episodes_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "episodes.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_episodes_csv(path)


def test_run_writes_all_outputs(tmp_path):
    paths = run(tiny_config(tmp_path, agent="ql_eps", episodes=60, seeds=(0, 1), alpha=0.5))
    episodes = read_episodes_csv(paths["episodes"])
    assert len(episodes) == 120
    assert sorted({seed for seed, _ in episodes}) == [0, 1]

    with open(paths["summary"]) as fh:
        summary = json.load(fh)
    assert summary["agent"] == "ql_eps"
    assert summary["episodes"] == 60
    assert summary["window"] == WINDOW
    assert summary["oracle_return"] == 13.0
    assert set(summary["seeds"]) == {"0", "1"}
    for entry in summary["seeds"].values():
        assert set(entry) >= {
            "episodes_to_90pct",
            "final_return_mean",
            "oracle_gap",
            "greedy_return",
            "greedy_steps",
            "greedy_reached_terminal",
        }

    lines = paths["trajectory"].read_text().splitlines()
    assert lines[0] == "seed,step,cell_i,cell_j,x_m,y_m,reward"
    first = lines[1].split(",")
    # step 0 sits on the start cell with nothing collected yet
    assert first[:4] == ["0", "0", "0", "0"]
    assert (first[4], first[5]) == ("10.0", "10.0")
    assert first[6] == "0.0"


def test_rerun_with_same_config_is_byte_identical(tmp_path):
    cfg_a = tiny_config(tmp_path / "a", agent="qirl", episodes=110, seeds=(0, 2))
    cfg_b = tiny_config(tmp_path / "b", agent="qirl", episodes=110, seeds=(0, 2))
    paths_a = run(cfg_a)
    paths_b = run(cfg_b)
    for name in ("episodes", "trajectory", "summary"):
        assert paths_a[name].read_bytes() == paths_b[name].read_bytes()


def test_seed_changes_the_episode_stream(tmp_path):
    a = run(tiny_config(tmp_path / "a", seeds=(0,), episodes=60))
    b = run(tiny_config(tmp_path / "b", seeds=(1,), episodes=60))
    ret_a = [log.total_return for _, log in read_episodes_csv(a["episodes"])]
    ret_b = [log.total_return for _, log in read_episodes_csv(b["episodes"])]
    assert ret_a != ret_b


def test_config_hash_tracks_every_input(tmp_path):
    base = tiny_config(tmp_path)
    env_bytes = TINY_LAYOUT.read_bytes()
    h = config_hash(base, env_bytes)
    assert h == config_hash(tiny_config(tmp_path), env_bytes)
    assert h != config_hash(tiny_config(tmp_path, alpha=0.2), env_bytes)
    assert h != config_hash(tiny_config(tmp_path, episodes=31), env_bytes)
    assert h != config_hash(tiny_config(tmp_path, seeds=(0, 1, 2)), env_bytes)
    assert h != config_hash(tiny_config(tmp_path, agent="ql_eps"), env_bytes)
    assert h != config_hash(base, env_bytes + b"\n# touched")
    # output location is deliberately not part of the identity
    moved = tiny_config(tmp_path)
    moved.output_dir = str(tmp_path / "elsewhere")
    assert h == config_hash(moved, env_bytes)


def test_layout_edited_during_training_does_not_change_the_hash(tmp_path, monkeypatch):
    """config_hash names the bytes the run parsed, not whatever the file
    holds by the time the outputs are written."""
    layout = tmp_path / "tiny.txt"
    layout.write_bytes(TINY_LAYOUT.read_bytes())

    def editing_train(*args, **kwargs):
        layout.write_bytes(TINY_LAYOUT.read_bytes() + b"# edited while training\n")
        return train(*args, **kwargs)

    monkeypatch.setattr(harness, "train", editing_train)
    config = replace(tiny_config(tmp_path, seeds=(0,)), env_file=str(layout))
    summary = json.loads(run(config)["summary"].read_text())
    assert layout.read_bytes() != TINY_LAYOUT.read_bytes()
    assert summary["config_hash"] == config_hash(config, TINY_LAYOUT.read_bytes())


def test_convergence_metric_shape():
    metric = ConvergenceMetric(episodes_to_90pct=50, final_return_mean=1.0, oracle_gap=0.0)
    assert metric.episodes_to_90pct == 50
