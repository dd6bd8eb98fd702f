"""Command line: `run` trains and writes outputs, `oracle` prints the DP
optimum for a layout, `metrics` recomputes convergence numbers from the
summary.json and episodes.csv of a run directory. Exit codes: 0 success,
1 configuration error, 2 runtime error."""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import fields
from pathlib import Path

from .agents import QiRLConfig, QLConfig
from .gridworld import build
from .harness import AGENT_KINDS, RunConfig, convergence_metrics, read_episodes_csv, run
from .layout import LayoutError, parse_layout
from .oracle import dp_optimal

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # config errors must exit 1, not argparse's 2
        raise _CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qirl-uav", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="train an agent and write episodes/trajectory/summary files")
    runp.add_argument("--config", required=True, help="environment layout file")
    runp.add_argument("--agent", required=True, choices=AGENT_KINDS)
    runp.add_argument("--episodes", required=True, type=int)
    runp.add_argument("--seeds", required=True, help="comma-separated integers, e.g. 0,1,2")
    runp.add_argument("--out", required=True, help="output directory")
    # One float flag per field of QiRLConfig and QLConfig, its dest the field's name;
    # a knob left out keeps the default of the config that owns it.
    runp.add_argument("--alpha", type=float, help="learning rate")
    runp.add_argument("--gamma", type=float, help="baseline discount")
    runp.add_argument("--alpha-decay", type=float, help="qirl: c in alpha/(1+c*k)")
    runp.add_argument("--k-plus", type=float, help="qirl reinforcement exponent, positive branch")
    runp.add_argument("--k-minus", type=float, help="qirl reinforcement exponent, negative branch")
    runp.add_argument("--reward-scale", type=float, help="qirl exponent divisor (default: terminal bonus)")
    runp.add_argument("--exponent-clamp", type=float, help="qirl bound on the reinforcement exponent")
    runp.add_argument("--p-floor", type=float, help="qirl preference floor")
    runp.add_argument("--explore-initial", type=float, help="epsilon0 or tau0 override")
    runp.add_argument("--explore-decay", type=float, help="per-episode decay override")
    runp.add_argument("--explore-floor", type=float, help="epsilon/tau floor override")
    runp.set_defaults(func=_cmd_run)

    oraclep = sub.add_parser("oracle", help="print the DP-optimal return and path for a layout")
    oraclep.add_argument("--config", required=True)
    oraclep.add_argument("--horizon", type=int, default=None, help="override the layout's step budget")
    oraclep.set_defaults(func=_cmd_oracle)

    metricsp = sub.add_parser("metrics", help="recompute convergence metrics from a run directory")
    metricsp.add_argument("--in", dest="run_dir", required=True, help="directory written by `run`")
    metricsp.set_defaults(func=_cmd_metrics)
    return parser


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise _CliError(f"seeds must be comma-separated integers, got {text!r}")
    return seeds


def _cmd_run(args) -> int:
    """The knob flags given go to the agent kind's config, sorted by its
    fields; a flag that is no field of it is refused."""
    learner_type = QiRLConfig if args.agent == "qirl" else QLConfig
    flags, own = vars(args), {f.name for f in fields(learner_type)}
    given = {f.name: flags[f.name] for t in (QiRLConfig, QLConfig) for f in fields(t) if flags.get(f.name) is not None}
    foreign = [name for name in given if name not in own]
    if foreign:
        raise _CliError(f"--{foreign[0].replace('_', '-')} does not apply to --agent {args.agent}")
    config = RunConfig(
        env_file=args.config,
        seeds=_parse_seeds(args.seeds),
        learner=QiRLConfig(**given) if learner_type is QiRLConfig else QLConfig(args.agent, **given),
        episodes=args.episodes,
        output_dir=args.out,
    )
    paths = run(config)
    for name in ("episodes", "trajectory", "summary"):
        print(f"{name}: {paths[name]}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    env = build(parse_layout(args.config))
    result = dp_optimal(env, args.horizon)
    print(f"optimal_return: {result.optimal_return!r}")
    print(f"path_steps: {result.horizon_used}")
    per_step = result.optimal_return / result.horizon_used if result.horizon_used else 0.0
    print(f"return_per_step: {per_step!r}")
    print(f"reaches_terminal: {str(result.reaches_terminal).lower()}")
    print(f"terminal_reachable: {str(result.terminal_reachable).lower()}")
    cells = " ".join(f"({i},{j})" for i, j in (env.cell_of(s) for s in result.optimal_path))
    print(f"path: {cells}")
    return EXIT_OK


def _is_finite_number(value) -> bool:
    return type(value) in (int, float) and math.isfinite(value)  # JSON true/false are no numbers


def _is_seed_entry(key: str, entry) -> bool:
    return bool(re.fullmatch(r"-?[0-9]+", key)) and isinstance(entry, dict) and _is_finite_number(entry.get("greedy_return"))


def _cmd_metrics(args) -> int:
    run_dir = Path(args.run_dir)
    episodes_path = run_dir / "episodes.csv"
    summary_path = run_dir / "summary.json"
    if not episodes_path.is_file() or not summary_path.is_file():
        raise _CliError(f"{run_dir} does not contain episodes.csv and summary.json")
    summary = json.loads(summary_path.read_text())
    summary = summary if isinstance(summary, dict) else {}
    oracle_return, seeds = summary.get("oracle_return"), summary.get("seeds")
    if not (_is_finite_number(oracle_return) and oracle_return != 0):
        raise _CliError(f"{summary_path}: 'oracle_return' must be a finite non-zero number")
    if not (isinstance(seeds, dict) and seeds and all(_is_seed_entry(k, v) for k, v in seeds.items())):
        raise _CliError(f"{summary_path}: 'seeds' must map integer seeds to entries with a numeric 'greedy_return'")
    logs_of, want = read_episodes_csv(episodes_path), {int(key) for key in seeds}
    if set(logs_of) != want:
        raise _CliError(f"{episodes_path} holds seeds {sorted(logs_of)} but {summary_path} holds {sorted(want)}")

    print("seed,episodes_to_90pct,final_return_mean,oracle_gap")
    for seed_key in sorted(seeds, key=int):
        seed = int(seed_key)
        metric = convergence_metrics(logs_of[seed], oracle_return, seeds[seed_key]["greedy_return"])
        print(
            f"{seed},{metric.episodes_to_90pct},"
            f"{'' if metric.final_return_mean is None else repr(metric.final_return_mean)},"
            f"{metric.oracle_gap!r}"
        )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_CliError, LayoutError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
