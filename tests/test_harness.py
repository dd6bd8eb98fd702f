"""Training loop, convergence metrics, output files, and reproducibility."""

import gc
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qirl_uav import harness
from qirl_uav.agents import (
    QiRLAgent,
    QiRLConfig,
    QLConfig,
    QLearningAgent,
)
from qirl_uav.harness import (
    UNIFORM_BLOCK,
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


def log_of(returns) -> EpisodeLog:
    return EpisodeLog([float(r) for r in returns], [4] * len(returns), [True] * len(returns))


def tiny_config(tmp_path, agent="qirl", episodes=30, seeds=(0, 1), **knobs) -> RunConfig:
    """A run of `agent` on the tiny layout; knobs are fields of the agent kind's config."""
    return RunConfig(
        env_file=str(TINY_LAYOUT),
        learner=QiRLConfig(**knobs) if agent == "qirl" else QLConfig(agent, **knobs),
        episodes=episodes,
        seeds=seeds,
        output_dir=str(Path(tmp_path) / "out"),
    )


# ---------------------------------------------------------------- rng


def test_make_rng_is_deterministic_per_seed():
    a = [make_rng(7).random() for _ in range(3)]
    b = [make_rng(7).random() for _ in range(3)]
    assert a == b
    assert make_rng(8).random() != a[0]


def philox_draws(rng) -> int:
    """Uniforms consumed so far, read from the Philox counter: each counter
    step yields a block of four 64-bit outputs."""
    state = rng.bit_generator.state
    return int(state["state"]["counter"][0]) * 4 + int(state["buffer_pos"]) - 4


@pytest.mark.parametrize(
    "count", [0, 1, UNIFORM_BLOCK - 1, UNIFORM_BLOCK, UNIFORM_BLOCK + 1, 3 * UNIFORM_BLOCK + 5]
)
def test_block_uniforms_serve_and_settle_as_scalar_draws(count):
    """The block server hands out exactly the uniforms of scalar draws, and
    settle() leaves the generator's whole state where those draws would."""
    rng, scalar = make_rng(5), make_rng(5)
    uniforms = harness._BlockUniforms(rng)
    served = [uniforms.random() for _ in range(count)]
    uniforms.settle()
    assert served == [scalar.random() for _ in range(count)]
    assert repr(rng.bit_generator.state) == repr(scalar.bit_generator.state)
    assert philox_draws(rng) == count


def test_train_refused_partway_leaves_the_generator_settled():
    """Q overflows on this field after about 4000 selects, past the first
    uniform block: the refusal still leaves the generator at two draws per
    select made, in the middle of a block."""
    env = make_uniform_env(reward=0.999 * sys.float_info.max / 1000, max_steps=40)
    agent = QLearningAgent(env, QLConfig("ql_eps", alpha=1.0))
    selects = []
    select = agent.select
    agent.select = lambda state, rng: selects.append(state) or select(state, rng)
    rng = make_rng(0)
    with pytest.raises(ValueError, match="Q value of state .* overflowed to inf"):
        train(env, agent, 300, rng)
    assert philox_draws(rng) == 2 * len(selects)
    assert philox_draws(rng) > UNIFORM_BLOCK and philox_draws(rng) % UNIFORM_BLOCK != 0


@pytest.mark.parametrize("enabled", [True, False])
def test_train_runs_with_the_collector_off_and_restores_it(enabled):
    """Every select sees the cyclic collector off; train leaves it as the
    caller had it, on return and on a refusal partway."""
    seen = []

    def watched(agent):
        select = agent.select
        agent.select = lambda state, rng: seen.append(gc.isenabled()) or select(state, rng)
        return agent

    (gc.enable if enabled else gc.disable)()
    try:
        env = make_uniform_env()
        train(env, watched(QiRLAgent(env)), 20, make_rng(0))
        assert gc.isenabled() is enabled
        env = make_uniform_env(reward=0.999 * sys.float_info.max / 1000, max_steps=40)
        with pytest.raises(ValueError, match="overflowed to inf"):
            train(env, watched(QLearningAgent(env, QLConfig("ql_eps", alpha=1.0))), 300, make_rng(0))
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen and not any(seen)


# ---------------------------------------------------------------- metrics


def test_constant_returns_converge_at_first_full_window():
    metric = convergence_metrics(log_of([5.0] * 200), _oracle_13(), greedy_return=13.0)
    assert metric.episodes_to_90pct == WINDOW
    assert metric.final_return_mean == pytest.approx(5.0)
    assert metric.oracle_gap == 0.0


def test_step_improvement_is_located_inside_the_window():
    returns = [0.0] * 100 + [10.0] * 100
    metric = convergence_metrics(log_of(returns), _oracle_13(), greedy_return=13.0)
    # the curve jumps at episode 101; the trailing mean crosses 90% of its
    # final level once 45 of the 50 window entries are post-jump
    assert metric.episodes_to_90pct == 145
    assert 101 <= metric.episodes_to_90pct <= 151


def test_metrics_undefined_below_window():
    metric = convergence_metrics(log_of([1.0] * (WINDOW - 1)), _oracle_13(), greedy_return=6.5)
    assert metric.episodes_to_90pct is None
    assert metric.final_return_mean is None
    assert metric.oracle_gap == 0.5


def test_oracle_gap_sign_and_scale():
    metric = convergence_metrics(log_of([1.0] * 60), _oracle_13(), greedy_return=0.0)
    assert metric.oracle_gap == 1.0
    better = convergence_metrics(log_of([1.0] * 60), _oracle_13(), greedy_return=13.0)
    assert better.oracle_gap == 0.0


def _oracle_13():
    return dp_optimal(make_uniform_env()).optimal_return


# ---------------------------------------------------------------- training loop


def test_train_logs_one_entry_per_episode(tiny_env):
    agent = QiRLAgent(tiny_env)
    log = train(tiny_env, agent, 120, make_rng(0))
    # episode k sits at index k - 1 of every column
    assert len(log.returns) == len(log.steps) == len(log.reached) == 120
    assert all(1 <= steps <= tiny_env.max_steps for steps in log.steps)
    assert all(np.isfinite(total) for total in log.returns)
    # reached_terminal episodes are exactly those shorter than the budget,
    # plus budget-length ones whose last move entered the terminal cell
    for steps, reached in zip(log.steps, log.reached):
        if steps < tiny_env.max_steps:
            assert reached


def test_train_invariant_instrumentation_passes(tiny_env):
    agent = QiRLAgent(tiny_env)
    train(tiny_env, agent, 200, make_rng(1), check_invariants=True)
    assert agent.updates >= 200
    rows = agent.prefs
    assert np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-9)
    assert rows.min() >= agent.cfg.p_floor


def test_make_agent_dispatch(tiny_env):
    assert make_agent(QiRLConfig(), tiny_env).name == "qirl"
    assert make_agent(QLConfig("ql_eps"), tiny_env).name == "ql_eps"
    boltz = make_agent(QLConfig("ql_boltz"), tiny_env)
    assert boltz.name == "ql_boltz"
    # boltzmann default temperature scales with the terminal bonus
    assert boltz.initial == tiny_env.terminal_bonus
    # a given value replaces its own field of the kind's default schedule and keeps the rest
    override = make_agent(QLConfig("ql_boltz", explore_floor=0.5), tiny_env)
    initial, decay, _ = QLConfig("ql_boltz").schedule(tiny_env.terminal_bonus)
    assert (override.initial, override.decay, override.floor) == (initial, decay, 0.5)
    eps = make_agent(QLConfig("ql_eps"), tiny_env)
    assert (eps.initial, eps.decay, eps.floor) == (1.0, 0.995, 0.01)


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
    logs_of = {
        0: EpisodeLog([0.1 + 0.2, 1e-17], [4, 3], [False, True]),
        7: EpisodeLog([123456.78901234567], [4], [True]),
    }
    path = tmp_path / "episodes.csv"
    write_episodes_csv(path, logs_of)
    assert read_episodes_csv(path) == logs_of


EXTREME_RETURNS = (-0.0, 5e-324, sys.float_info.max, -sys.float_info.max)
FINITE_RETURNS = st.one_of(st.sampled_from(EXTREME_RETURNS), st.floats(allow_nan=False, allow_infinity=False))
EPISODE_ROWS = st.lists(st.tuples(FINITE_RETURNS, st.integers(1, 10**6), st.booleans()), min_size=1, max_size=40)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.dictionaries(st.integers(0, 2**31), EPISODE_ROWS, min_size=1, max_size=3))
@example({0: [(-0.0, 1, True), (5e-324, 2, False)], 3: [(sys.float_info.max, 4, True), (-sys.float_info.max, 1, False)]})
def test_episodes_csv_roundtrip_is_exact_for_any_finite_record(tmp_path, rows_of):
    """read_episodes_csv inverts write_episodes_csv: same seeds in the same
    order, and every return's bits (float.hex tells -0.0 from 0.0)."""
    logs_of = {seed: EpisodeLog(*map(list, zip(*rows))) for seed, rows in rows_of.items()}
    path = tmp_path / "episodes.csv"
    write_episodes_csv(path, logs_of)
    back = read_episodes_csv(path)
    assert list(back) == list(logs_of)
    for seed, log in logs_of.items():
        assert [r.hex() for r in back[seed].returns] == [r.hex() for r in log.returns]
        assert (back[seed].steps, back[seed].reached) == (log.steps, log.reached)


def test_records_add_few_objects_for_the_collector(tiny_env, tmp_path):
    """A seed's record is three lists of numbers, which the cyclic collector
    does not track: neither a 2000-episode train nor reading back 20 seeds x
    2000 rows leaves an object per episode for it to scan."""
    agent, rng, path = QiRLAgent(tiny_env), make_rng(0), tmp_path / "episodes.csv"
    gc.collect()
    before = len(gc.get_objects())
    log = train(tiny_env, agent, 2000, rng)
    assert len(gc.get_objects()) - before < 100
    write_episodes_csv(path, dict.fromkeys(range(20), log))
    gc.collect()
    before = len(gc.get_objects())
    logs_of = read_episodes_csv(path)
    assert len(gc.get_objects()) - before < 100
    assert logs_of == dict.fromkeys(range(20), log)


def test_episodes_csv_rejects_foreign_header(tmp_path):
    path = tmp_path / "episodes.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_episodes_csv(path)


def test_run_writes_all_outputs(tmp_path):
    paths = run(tiny_config(tmp_path, agent="ql_eps", episodes=60, seeds=(0, 1), alpha=0.5))
    logs_of = read_episodes_csv(paths["episodes"])
    assert sum(len(log.returns) for log in logs_of.values()) == 120
    assert sorted(logs_of) == [0, 1]

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


def test_run_that_fails_mid_write_leaves_no_output(tmp_path, monkeypatch):
    """The three files are written to temporary files and moved into place
    together: a summary.json that fails to write leaves no temporary file,
    no new output, and an earlier run's files byte-intact."""
    fresh = tiny_config(tmp_path / "fresh", agent="ql_eps")
    config = tiny_config(tmp_path, agent="ql_eps")
    earlier = {path.name: path.read_bytes() for path in run(config).values()}

    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(harness.json, "dump", fail)
    with pytest.raises(OSError, match="disk full"):
        run(replace(config, seeds=(2, 3)))
    assert {path.name: path.read_bytes() for path in Path(config.output_dir).iterdir()} == earlier
    with pytest.raises(OSError, match="disk full"):
        run(fresh)
    assert list(Path(fresh.output_dir).iterdir()) == []


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
    ret_a = read_episodes_csv(a["episodes"])[0].returns
    ret_b = read_episodes_csv(b["episodes"])[1].returns
    assert ret_a != ret_b


def test_config_hash_tracks_every_input(tmp_path):
    base = tiny_config(tmp_path)
    env_bytes = TINY_LAYOUT.read_bytes()
    h = config_hash(base, env_bytes, 10.0)
    assert h == config_hash(tiny_config(tmp_path), env_bytes, 10.0)
    assert h != config_hash(tiny_config(tmp_path, alpha=0.2), env_bytes, 10.0)
    assert h != config_hash(tiny_config(tmp_path, episodes=31), env_bytes, 10.0)
    assert h != config_hash(tiny_config(tmp_path, seeds=(0, 1, 2)), env_bytes, 10.0)
    assert h != config_hash(tiny_config(tmp_path, agent="ql_eps"), env_bytes, 10.0)
    assert h != config_hash(base, env_bytes + b"\n# touched", 10.0)
    # output location is deliberately not part of the identity
    moved = tiny_config(tmp_path)
    moved.output_dir = str(tmp_path / "elsewhere")
    assert h == config_hash(moved, env_bytes, 10.0)


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
    assert summary["config_hash"] == config_hash(config, TINY_LAYOUT.read_bytes(), 10.0)


def test_convergence_metric_shape():
    metric = ConvergenceMetric(episodes_to_90pct=50, final_return_mean=1.0, oracle_gap=0.0)
    assert metric.episodes_to_90pct == 50
