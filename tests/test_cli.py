"""Command-line interface: subcommands, output wiring, and exit codes."""

import argparse
import json

import pytest

from qirl_uav import cli, gridworld, harness
from qirl_uav.agents import QiRLConfig
from qirl_uav.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from qirl_uav.harness import RunConfig, config_hash

from conftest import TINY_LAYOUT

TINY = str(TINY_LAYOUT)


def run_cli(*argv):
    return main(list(argv))


def test_run_subcommand_trains_and_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(
        "run",
        "--config", TINY,
        "--agent", "ql_eps",
        "--episodes", "60",
        "--seeds", "0,1",
        "--out", str(out),
        "--alpha", "0.5",
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "episodes:" in printed and "summary:" in printed
    assert (out / "episodes.csv").is_file()
    assert (out / "trajectory.csv").is_file()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["agent"] == "ql_eps"
    assert len(summary["seeds"]) == 2


def test_run_subcommand_accepts_qirl_knobs(tmp_path):
    code = run_cli(
        "run",
        "--config", TINY,
        "--agent", "qirl",
        "--episodes", "30",
        "--seeds", "5",
        "--out", str(tmp_path / "q"),
        "--alpha", "0.5",
        "--k-plus", "0.5",
        "--k-minus", "-0.5",
        "--p-floor", "0.01",
    )
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "q" / "summary.json").read_text())
    assert list(summary["seeds"]) == ["5"]


def test_plain_qirl_run_hashes_the_default_qirl_config(tmp_path):
    out = tmp_path / "q"
    common = ["--agent", "qirl", "--episodes", "30", "--seeds", "0", "--out", str(out)]
    assert run_cli("run", "--config", TINY, *common) == EXIT_OK
    expected = RunConfig(env_file=TINY, agent="qirl", episodes=30, seeds=(0,), output_dir=str(out), qirl=QiRLConfig())
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config_hash"] == config_hash(expected, TINY_LAYOUT.read_bytes())


BASELINE_FLAGS = [
    ("--gamma", "0.5"),
    ("--explore-initial", "0.5"),
    ("--explore-decay", "0.5"),
    ("--explore-floor", "0.05"),
]
QIRL_FLAGS = [
    ("--k-plus", "5"),
    ("--k-minus", "-0.5"),
    ("--reward-scale", "2"),
    ("--exponent-clamp", "5"),
    ("--p-floor", "0.01"),
    ("--alpha-decay", "0.1"),
]
FOREIGN_FLAGS = [("qirl", *f) for f in BASELINE_FLAGS] + [
    (agent, *f) for agent in ("ql_eps", "ql_boltz") for f in QIRL_FLAGS
]


@pytest.mark.parametrize("agent, flag, value", FOREIGN_FLAGS)
def test_flag_for_the_other_agent_kind_is_config_error(tmp_path, capsys, agent, flag, value):
    out = tmp_path / "x"
    code = run_cli(
        "run", "--config", TINY, "--agent", agent,
        "--episodes", "5", "--seeds", "0", "--out", str(out), flag, value,
    )
    assert code == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_explore_decay_alone_overrides_the_default_schedule(tmp_path):
    """--explore-decay on its own changes training and the config hash; the
    hash of the schedule it resolves to is pinned in GOLDEN_HASHES."""
    for agent in ("ql_eps", "ql_boltz"):
        plain, decay = tmp_path / agent / "plain", tmp_path / agent / "decay"
        common = ["--config", TINY, "--agent", agent, "--episodes", "60", "--seeds", "0"]
        assert run_cli("run", *common, "--out", str(plain)) == EXIT_OK
        assert run_cli("run", *common, "--out", str(decay), "--explore-decay", "0.5") == EXIT_OK
        assert (plain / "episodes.csv").read_bytes() != (decay / "episodes.csv").read_bytes()
        hashes = [json.loads((out / "summary.json").read_text())["config_hash"] for out in (plain, decay)]
        assert hashes[0] != hashes[1]


# summary.json config_hash of `run --config configs/tiny_3x3_uniform.txt
# --episodes 5 --seeds 0`, per agent and extra flags; fixed so that a run's
# hash still names the same settings after the code that computes it moves.
GOLDEN_HASHES = {
    ("qirl",): "b36eabc921bd8bfb1449a360fd8d1860b5c8dbe1daeca60061a564fb09390fa4",
    ("ql_eps",): "f69a937a7b994d2ca202d360550f3be454878a7d46e4ff7a8a631e223448fd64",
    ("ql_eps", "--explore-floor", "0.05"): "56cd903091ee7c41f643969ffa5ea21feaef344656409ec1570232cce5b3a628",
    ("ql_boltz",): "bf6d9a25cbf2eb08d5424efcef95604f3cf33b53d5c47c97f21e99154d546bff",
    ("ql_boltz", "--explore-decay", "0.5"): "885cb689986e95155a2650087cf31dd56cbcfe2fced51cda229a9f91a9dce85e",
}


@pytest.mark.parametrize("agent_flags", list(GOLDEN_HASHES), ids="-".join)
def test_config_hash_is_golden(tmp_path, agent_flags):
    agent, *flags = agent_flags
    out = tmp_path / "g"
    argv = ["--config", TINY, "--agent", agent, "--episodes", "5", "--seeds", "0", "--out", str(out), *flags]
    assert run_cli("run", *argv) == EXIT_OK
    assert json.loads((out / "summary.json").read_text())["config_hash"] == GOLDEN_HASHES[agent_flags]


def test_explore_override_run_builds_the_env_once(tmp_path, monkeypatch):
    """The Boltzmann default scales with the terminal bonus, so the override
    is resolved against the env the run builds anyway, not a second one."""
    built = []
    init = gridworld.GridWorld.__init__

    def counting_init(self, config):
        built.append(config)
        init(self, config)

    monkeypatch.setattr(gridworld.GridWorld, "__init__", counting_init)
    argv = ["--config", TINY, "--agent", "ql_boltz", "--episodes", "5", "--seeds", "0", "--out", str(tmp_path / "b")]
    assert run_cli("run", *argv, "--explore-decay", "0.5") == EXIT_OK
    assert len(built) == 1


def test_oracle_subcommand_prints_optimum(capsys):
    assert run_cli("oracle", "--config", TINY) == EXIT_OK
    out = capsys.readouterr().out
    assert "optimal_return: 13.0" in out
    assert "reaches_terminal: true" in out
    assert "path: (0,0)" in out


def test_oracle_subcommand_honors_horizon(capsys):
    assert run_cli("oracle", "--config", TINY, "--horizon", "3") == EXIT_OK
    out = capsys.readouterr().out
    assert "terminal_reachable: false" in out


def test_metrics_subcommand_recomputes_from_run_dir(tmp_path, capsys):
    out = tmp_path / "m"
    run_cli(
        "run",
        "--config", TINY,
        "--agent", "ql_boltz",
        "--episodes", "80",
        "--seeds", "0,3",
        "--out", str(out),
        "--alpha", "0.5",
    )
    capsys.readouterr()
    assert run_cli("metrics", "--in", str(out)) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seed,episodes_to_90pct,final_return_mean,oracle_gap"
    assert len(lines) == 3
    assert lines[1].startswith("0,") and lines[2].startswith("3,")


def test_metrics_reads_the_run_not_the_current_layout(tmp_path, capsys):
    """`metrics` restates summary.json even after the layout file changed."""
    layout = tmp_path / "layout.txt"
    layout.write_text(TINY_LAYOUT.read_text())
    out = tmp_path / "m"
    common = ["--agent", "ql_eps", "--episodes", "60", "--seeds", "0,1", "--out", str(out)]
    assert run_cli("run", "--config", str(layout), *common) == EXIT_OK
    layout.write_text(TINY_LAYOUT.read_text().replace("uniform_reward 1.0", "uniform_reward 3.0"))
    capsys.readouterr()
    assert run_cli("metrics", "--in", str(out)) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())["seeds"]
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split(",")[0] for line in lines] == ["0", "1"]
    for line in lines:
        seed, ep90, final, gap = line.split(",")
        want = summary[seed]
        assert (int(ep90), float(final), float(gap)) == (
            want["episodes_to_90pct"], want["final_return_mean"], want["oracle_gap"]
        )


@pytest.mark.parametrize("key", ["seeds", "oracle_return"])
def test_metrics_on_summary_without_key_is_config_error(tmp_path, capsys, key):
    (tmp_path / "episodes.csv").write_text("seed,episode,return,steps,reached_terminal\n")
    summary = {"seeds": {}, "oracle_return": 13.0}
    del summary[key]
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert run_cli("metrics", "--in", str(tmp_path)) == EXIT_CONFIG
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "summary, key",
    [
        ({"seeds": {"0": {}}, "oracle_return": 1.0}, "seeds"),
        ({"seeds": {"0": {"greedy_return": True}}, "oracle_return": 1.0}, "seeds"),
        ({"seeds": {"x": {"greedy_return": 1.0}}, "oracle_return": 1.0}, "seeds"),
        ({"seeds": {"0": []}, "oracle_return": 1.0}, "seeds"),
        ({"seeds": [], "oracle_return": 1.0}, "seeds"),
        ({"seeds": {"0": {"greedy_return": 1.0}}, "oracle_return": 0.0}, "oracle_return"),
        ({"seeds": {"0": {"greedy_return": 1.0}}, "oracle_return": float("nan")}, "oracle_return"),
        ({"seeds": [], "oracle_return": "x"}, "oracle_return"),
        ([], "oracle_return"),
    ],
)
def test_metrics_on_malformed_summary_is_config_error(tmp_path, capsys, summary, key):
    (tmp_path / "episodes.csv").write_text("seed,episode,return,steps,reached_terminal\n")
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    assert run_cli("metrics", "--in", str(tmp_path)) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert repr(key) in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "row, complaint",
    [
        ("0,5,2.0", "not enough values to unpack"),
        ("0,5,2.0,4,false,9", "too many values to unpack"),
        ("0,5,2.0,4,maybe", "reached_terminal must be true or false, got 'maybe'"),
        ("0,1,nan,4,true", "return must be finite, got nan"),
        ("0,2,inf,-3,false", "return must be finite, got inf"),
        ("0,2,1.5,0,false", "steps must be at least 1, got 0"),
    ],
    ids=["truncated", "sixth-field", "not-a-bool", "nan-return", "inf-return", "zero-steps"],
)
def test_metrics_on_malformed_episodes_row_is_config_error(tmp_path, capsys, row, complaint):
    episodes = tmp_path / "episodes.csv"
    episodes.write_text(f"seed,episode,return,steps,reached_terminal\n0,4,1.0,4,true\n{row}\n")
    (tmp_path / "summary.json").write_text(json.dumps({"seeds": {"0": {"greedy_return": 1.0}}, "oracle_return": 13.0}))
    assert run_cli("metrics", "--in", str(tmp_path)) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"{episodes}, line 3: " in captured.err and complaint in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "summary_seeds, csv_seeds",
    [((0, 1), (0,)), ((0,), (0, 5))],
    ids=["summary-seed-without-rows", "rows-of-a-seed-the-summary-lacks"],
)
def test_metrics_on_mismatched_seeds_is_config_error(tmp_path, capsys, summary_seeds, csv_seeds):
    """Each seed of summary.json needs rows in episodes.csv, and no rows may
    belong to a seed summary.json lacks; the error names both seed sets."""
    rows = "".join(f"{seed},1,1.0,4,true\n" for seed in csv_seeds)
    (tmp_path / "episodes.csv").write_text(f"seed,episode,return,steps,reached_terminal\n{rows}")
    seeds = {str(seed): {"greedy_return": 1.0} for seed in summary_seeds}
    (tmp_path / "summary.json").write_text(json.dumps({"seeds": seeds, "oracle_return": 13.0}))
    assert run_cli("metrics", "--in", str(tmp_path)) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"seeds {list(csv_seeds)}" in captured.err and f"holds {list(summary_seeds)}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "agent, flags",
    [("qirl", ()), ("ql_eps", ()), ("ql_boltz", ()), ("ql_boltz", ("--explore-decay", "0.5"))],
    ids=["qirl", "ql_eps", "ql_boltz", "ql_boltz-explore-decay"],
)
def test_run_on_a_field_that_pays_nothing_is_config_error(tmp_path, capsys, agent, flags):
    """Every cell rate underflows to 0, so the terminal bonus, which scales
    the learners, and the planner optimum, which oracle_gap divides by, are 0.
    A Boltzmann override is resolved after that check, so it cannot preempt
    it with a complaint about the zero default temperature."""
    layout = tmp_path / "far.txt"
    layout.write_text(TINY_LAYOUT.read_text().replace("uniform_reward 1.0", "user 1e200 0 1 1 1e6"))
    out = tmp_path / "x"
    code = run_cli(
        "run", "--config", str(layout), "--agent", agent,
        "--episodes", "5", "--seeds", "0", "--out", str(out), *flags,
    )
    assert code == EXIT_CONFIG
    assert "every cell of" in capsys.readouterr().err
    assert not out.exists()


def test_step_budget_beyond_the_planner_cap_is_config_error(tmp_path, capsys):
    """Refused before the planner allocates or loops: a policy of that size
    would take about 18 GB and two billion steps. Run in-process, so any
    exception other than the handled config error fails the test."""
    assert run_cli("oracle", "--config", TINY, "--horizon", "2000000000") == EXIT_CONFIG
    assert "horizon 2000000000 x 9 cells exceeds the planner cap" in capsys.readouterr().err
    layout = tmp_path / "long.txt"
    layout.write_text(TINY_LAYOUT.read_text().replace("max_steps 4", "max_steps 2000000000"))
    assert run_cli("oracle", "--config", str(layout)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line 10:" in err and "exceeds the planner cap" in err  # the max_steps line


INFINITE_FIELD = "user 0 0 1e300 1e-300 1e6"  # every cell rate overflows to inf
WEAK_FIELD = "user 1e5 0 1 1 1"  # a terminal bonus of about 2e-13
REFUSED_INPUTS = {
    "qirl-infinite-field": ("qirl", INFINITE_FIELD, (), "reward field is not finite"),
    "ql_eps-infinite-field": ("ql_eps", INFINITE_FIELD, (), "reward field is not finite"),
    "ql_boltz-infinite-field": ("ql_boltz", INFINITE_FIELD, (), "reward field is not finite"),
    "ql_boltz-floor-1e-13": (
        "ql_boltz", None, ("--explore-floor", "1e-13", "--explore-decay", "0.5"), "floor must be at least 1e-12"
    ),
    "ql_eps-alpha-0": ("ql_eps", None, ("--alpha", "0"), "alpha must lie in (0, 1]"),
    "ql_eps-gamma-1.5": ("ql_eps", None, ("--gamma", "1.5"), "gamma must lie in [0, 1]"),
    "ql_eps-explore-decay-1.5": ("ql_eps", None, ("--explore-decay", "1.5"), "decay must lie in (0, 1]"),
    "qirl-exponent-clamp-1000": (
        "qirl", None, ("--k-plus", "1e4", "--exponent-clamp", "1000"), "exponent_clamp must lie in (0, 709.78]"
    ),
    "ql_boltz-weak-field": (
        "ql_boltz", WEAK_FIELD, (),
        "floor (1% of terminal bonus 2.05019e-13) is below 1e-12: set one with --explore-floor",
    ),
}


def count_plans_and_training(monkeypatch) -> list[str]:
    """Wrap every dp_optimal and train that `run` and `oracle` reach; the
    returned list names each call made."""
    calls = []
    for module, name in ((harness, "dp_optimal"), (harness, "train"), (cli, "dp_optimal")):
        real = getattr(module, name)

        def counting(*args, real=real, name=name, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("agent, field, flags, complaint", list(REFUSED_INPUTS.values()), ids=list(REFUSED_INPUTS))
def test_bad_input_is_refused_before_any_plan_or_training(
    tmp_path, capsys, monkeypatch, agent, field, flags, complaint
):
    """Each rule fires where its value is made, so a refused input costs no
    plan and no training step, and leaves no output directory."""
    layout = tmp_path / "layout.txt"
    text = TINY_LAYOUT.read_text()
    layout.write_text(text if field is None else text.replace("uniform_reward 1.0", field))
    calls = count_plans_and_training(monkeypatch)
    out = tmp_path / "x"
    code = run_cli(
        "run", "--config", str(layout), "--agent", agent,
        "--episodes", "200", "--seeds", "0", "--out", str(out), *flags,
    )
    assert code == EXIT_CONFIG
    assert complaint in capsys.readouterr().err
    assert not out.exists()
    assert calls == []


def _float_options_of_run() -> list[tuple[str, str]]:
    """(agent, flag) for every float option of `run`, each with an agent that takes it."""
    (subcommands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    run_parser = subcommands.choices["run"]
    cases = []
    for action in run_parser._actions:
        if action.type is float:
            if action.dest in cli._QIRL_KNOBS:
                agents = ("qirl",)
            elif action.dest in cli._BASELINE_KNOBS:
                agents = ("ql_eps", "ql_boltz")
            else:
                agents = harness.AGENT_KINDS
            cases += [(agent, action.option_strings[0]) for agent in agents]
    assert len(cases) >= 11, "the run parser's float options were not found"
    return cases


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("agent, flag", _float_options_of_run())
def test_float_flag_refuses_nan_and_infinity(tmp_path, capsys, monkeypatch, agent, flag, value):
    """Every float flag meets its config dataclass's rule: exit 1 with an
    error line, no output and no training. `--flag=-inf` is the form argparse
    reads as a value rather than an option."""
    calls = count_plans_and_training(monkeypatch)
    out = tmp_path / "x"
    code = run_cli(
        "run", "--config", TINY, "--agent", agent,
        "--episodes", "5", "--seeds", "0", "--out", str(out), f"{flag}={value}",
    )
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()
    assert calls == []


MAX_FLOAT = 1.7976931348623157e308
def test_ql_value_that_overflows_is_config_error(tmp_path, capsys):
    """Every cell and the bonus are finite, but the undiscounted bootstrap on
    loops drives Q past the float range; ql_update refuses the value at the
    write, so the run exits 1 naming it instead of dying on a NaN row."""
    layout = tmp_path / "layout.txt"
    text = TINY_LAYOUT.read_text().replace("max_steps 4", "max_steps 40")
    layout.write_text(text.replace("uniform_reward 1.0", f"uniform_reward {0.999 * MAX_FLOAT / 400!r}"))
    out = tmp_path / "x"
    code = run_cli(
        "run", "--config", str(layout), "--agent", "ql_eps", "--alpha", "1.0",
        "--episodes", "300", "--seeds", "0,1", "--out", str(out),
    )
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("error: Q value of state ") and "overflowed to inf" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "penalty, episodes, flags",
    [
        pytest.param(-5.0, "500", (), id="penalty-5"),
        pytest.param(-MAX_FLOAT / 40, "300", ("--alpha", "1.0"), id="penalty-max-over-40"),
    ],
)
def test_qirl_punishes_a_penalized_rebound(tmp_path, penalty, episodes, flags):
    """After a rebound under a negative boundary_penalty, reward + V(next) is
    negative; the punishing branch must still lower the rebounding move, so
    the greedy policy reaches the terminal rather than rebounding for the
    whole budget, and no value is driven past the float range by rebounds."""
    layout = tmp_path / "layout.txt"
    text = TINY_LAYOUT.read_text().replace("max_steps 4", "max_steps 40")
    layout.write_text(text + f"boundary_penalty {penalty!r}\n")
    out = tmp_path / "x"
    code = run_cli(
        "run", "--config", str(layout), "--agent", "qirl",
        "--episodes", episodes, "--seeds", "0,1", "--out", str(out), *flags,
    )
    assert code == EXIT_OK
    for entry in json.loads((out / "summary.json").read_text())["seeds"].values():
        assert entry["greedy_reached_terminal"] and entry["greedy_return"] == 13.0


@pytest.mark.parametrize(
    "agent, max_steps, episode", [("ql_eps", "4", 5), ("qirl", "40", 3)], ids=["ql_eps", "qirl"]
)
def test_episode_return_that_overflows_is_config_error(tmp_path, capsys, agent, max_steps, episode):
    """Every learned value stays finite under a boundary penalty of -1e308,
    but an episode's rebounds sum past the float range; train refuses that
    return, so the run exits 1 naming the episode instead of logging -inf."""
    layout = tmp_path / "layout.txt"
    text = TINY_LAYOUT.read_text().replace("max_steps 4", f"max_steps {max_steps}")
    layout.write_text(text + "boundary_penalty -1e308\n")
    out = tmp_path / "x"
    code = run_cli(
        "run", "--config", str(layout), "--agent", agent,
        "--episodes", "300", "--seeds", "0,1", "--out", str(out),
    )
    assert code == EXIT_CONFIG
    complaint = f"error: episode {episode} return overflowed to -inf: the field's returns are too large\n"
    assert capsys.readouterr().err == complaint
    assert not out.exists()


def overflowing_plan_layout(tmp_path, divisor):
    """Every cell and the bonus are finite, but 40 steps of them sum past the float range."""
    layout = tmp_path / "layout.txt"
    text = TINY_LAYOUT.read_text().replace("max_steps 4", "max_steps 40")
    layout.write_text(text.replace("uniform_reward 1.0", f"uniform_reward {MAX_FLOAT / divisor!r}"))
    return layout


@pytest.mark.filterwarnings("error")  # numpy's overflow warning must not reach stderr
def test_oracle_whose_optimum_overflows_is_config_error(tmp_path, capsys):
    """The planner refuses an optimum past the float range, naming the
    horizon, instead of printing inf over a path whose ties went to action 0."""
    assert run_cli("oracle", "--config", str(overflowing_plan_layout(tmp_path, 11))) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the optimal return over horizon 40 is not finite: the field's returns are too large\n"


@pytest.mark.filterwarnings("error")  # numpy's overflow warning must not reach stderr
def test_run_whose_optimum_overflows_is_config_error(tmp_path, capsys):
    """One episode trains without overflow; the plan that follows overflows,
    and is refused before any file is written, so no summary.json holds
    Infinity or NaN."""
    layout = overflowing_plan_layout(tmp_path, 30)
    out = tmp_path / "x"
    argv = ["--config", str(layout), "--agent", "ql_eps", "--episodes", "1", "--seeds", "0", "--out", str(out)]
    assert run_cli("run", *argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "error: the optimal return over horizon 40 is not finite: the field's returns are too large\n"
    assert not out.exists()


FIELD_REFUSALS = {
    "distance-overflows": (
        {"uniform_reward 1.0": "origin -1.7e308 10\nuser 1.7e308 0 1 1 1e6"}, "distance must be positive and finite"
    ),
    "cell-center-overflows": (
        {"cell_size 20": "cell_size 1.5e308", "uniform_reward 1.0": "origin 1e308 10\nuser 1e308 0 1 1 1e6"},
        "coordinates must be finite",
    ),
    "distance-overflows-before-a-center-does": (
        {
            "cell_size 20": "cell_size 1.5e308",
            "uniform_reward 1.0": "origin 1e308 10\nuser 1e308 0 1 1 1e6\nuser -1e308 0 1 1 1e6",
        },
        "distance must be positive and finite",
    ),
    "linear-loss-underflows": (
        {"altitude 100": "altitude 1e-200", "uniform_reward 1.0": "origin 0 0\nuser 0 0 1 1 1e6"},
        "reward field is not finite",
    ),
}


@pytest.mark.parametrize("edits, complaint", list(FIELD_REFUSALS.values()), ids=list(FIELD_REFUSALS))
def test_field_that_cannot_be_computed_is_config_error(tmp_path, capsys, edits, complaint):
    """The field refuses the first cell, in state order, whose center or
    distance to a user is not finite, as the per-cell scalar rule did; a
    linear loss that underflows to 0 gives an infinite SNR, so the field is
    refused as not finite."""
    text = TINY_LAYOUT.read_text()
    for old, new in edits.items():
        text = text.replace(old, new)
    layout = tmp_path / "layout.txt"
    layout.write_text(text)
    assert run_cli("oracle", "--config", str(layout)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {complaint}") and "Traceback" not in err


def test_weak_field_trains_with_a_boltzmann_floor_override(tmp_path):
    """The override is applied before the schedule is checked, so the default
    floor that the field is too weak for is never built."""
    layout = tmp_path / "weak.txt"
    layout.write_text(TINY_LAYOUT.read_text().replace("uniform_reward 1.0", WEAK_FIELD))
    argv = ["--config", str(layout), "--agent", "ql_boltz", "--episodes", "5", "--seeds", "0"]
    assert run_cli("run", *argv, "--out", str(tmp_path / "x"), "--explore-floor", "1e-6") == EXIT_OK


def test_oracle_refuses_a_field_that_is_not_finite(tmp_path, capsys, monkeypatch):
    layout = tmp_path / "loud.txt"
    layout.write_text(TINY_LAYOUT.read_text().replace("uniform_reward 1.0", INFINITE_FIELD))
    calls = count_plans_and_training(monkeypatch)
    assert run_cli("oracle", "--config", str(layout)) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "reward field is not finite" in captured.err and captured.out == ""
    assert calls == []


def test_oracle_on_a_user_beyond_double_path_loss_range(tmp_path, capsys):
    layout = tmp_path / "far.txt"
    layout.write_text(TINY_LAYOUT.read_text().replace("uniform_reward 1.0", "user 1e200 0 1 1 1e6"))
    assert run_cli("oracle", "--config", str(layout)) == EXIT_OK
    assert "optimal_return: 0.0" in capsys.readouterr().out


def test_missing_subcommand_is_config_error(capsys):
    assert run_cli() == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_unknown_agent_is_config_error(tmp_path, capsys):
    code = run_cli(
        "run", "--config", TINY, "--agent", "sarsa",
        "--episodes", "5", "--seeds", "0", "--out", str(tmp_path / "x"),
    )
    assert code == EXIT_CONFIG


def test_bad_seed_list_is_config_error(tmp_path, capsys):
    code = run_cli(
        "run", "--config", TINY, "--agent", "qirl",
        "--episodes", "5", "--seeds", "0,x", "--out", str(tmp_path / "x"),
    )
    assert code == EXIT_CONFIG
    assert "seeds must be comma-separated integers" in capsys.readouterr().err


def test_negative_seed_is_config_error_before_the_layout_is_read(tmp_path, capsys):
    """The layout file does not exist: reading it would exit 2."""
    code = run_cli(
        "run", "--config", str(tmp_path / "absent.txt"), "--agent", "qirl",
        "--episodes", "5", "--seeds", "0,-1", "--out", str(tmp_path / "x"),
    )
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "error: seeds must be non-negative\n"


def test_invalid_hyperparameter_is_config_error(tmp_path, capsys):
    code = run_cli(
        "run", "--config", TINY, "--agent", "qirl",
        "--episodes", "5", "--seeds", "0", "--out", str(tmp_path / "x"),
        "--alpha", "2.5",
    )
    assert code == EXIT_CONFIG
    assert "alpha" in capsys.readouterr().err


def test_malformed_layout_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "grid 3\ncell_size 20\naltitude 100\ncarrier_freq 2e9\nbandwidth 10e6\n"
        "start 0 0\nterminal 2 2\nmax_steps 4\nuniform_reward 1\n"
    )
    assert run_cli("oracle", "--config", str(bad)) == EXIT_CONFIG
    assert "line 1" in capsys.readouterr().err


def test_missing_layout_file_is_runtime_error(tmp_path, capsys):
    assert run_cli("oracle", "--config", str(tmp_path / "nope.txt")) == EXIT_RUNTIME
    assert "error:" in capsys.readouterr().err


def test_metrics_on_empty_dir_is_config_error(tmp_path, capsys):
    assert run_cli("metrics", "--in", str(tmp_path)) == EXIT_CONFIG
    assert "does not contain" in capsys.readouterr().err
