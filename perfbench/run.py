"""qirl-uav benchmark: end-to-end and per-layer timings on three workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk_train --seed 0 --seconds 30 --trace 0

Every workload drives the package through `qirl_uav.cli.main` with the argv a
user would type, one pass at a time, in this one process with no threads.
Passes repeat until the next one would overrun `--seconds` (at least
MIN_PASSES untraced passes, or one untraced+traced pair with `--trace 1`).

--trace 0 prints the end-to-end metrics (median over passes); only the few
coarse functions they need are wrapped (parse_layout, build, dp_optimal,
train, make_rng), each called a handful of times per pass.
--trace 1 runs each pass twice, untraced and then with every layer wrapped,
and prints the per-layer metrics (self times, counts and ratios).

Every invocation's output is checked (pinned digests, pinned optimum, path
replay, metrics-vs-summary, RNG draw counts); a failed check or a non-zero
exit counts toward `failed`. The last stdout line is the JSON result. See
perfbench/README.md for why each workload exists and what each metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = Path(".bench_work")  # relative to ROOT, so summary.json's env_file is stable
PINS_FILE = BENCH_DIR / "pins.json"

sys.path.insert(0, str(BENCH_DIR))
from layouts import generate_layout  # noqa: E402
from spans import Tracer, calibrate  # noqa: E402

AGENTS = ("qirl", "ql_eps", "ql_boltz")
DRAWS_PER_SELECT = {"qirl": 1, "ql_eps": 2, "ql_boltz": 1}  # the README's contract
MIN_PASSES = 2
OUTPUT_FILES = ("episodes.csv", "trajectory.csv", "summary.json")
NO_PIN = "no pinned reference for this input"

# desk_train: the acceptance gate's 10x10 recipes (checks 08a-08c) and seeds.
DESK_LAYOUT = "configs/uplink_10x10.txt"
GATE_SEEDS = tuple(range(20))
DESK_RECIPES = {
    "qirl": ["--episodes", "800"],
    "ql_eps": ["--episodes", "1200", "--alpha", "0.5", "--gamma", "0.8", "--explore-floor", "0.05"],
    "ql_boltz": ["--episodes", "1200", "--alpha", "0.5", "--gamma", "0.8"],
}

# tiny_episodes: the gate's 3x3 recipes (check 07), 20 seeds x 2000 episodes.
TINY_LAYOUT = "configs/tiny_3x3_uniform.txt"
TINY_RECIPES = {
    "qirl": ["--alpha", "0.5", "--k-plus", repr(1 / 3), "--k-minus", repr(-1 / 3), "--p-floor", "0.01"],
    "ql_eps": ["--alpha", "0.5", "--gamma", "0.9", "--explore-floor", "0.05"],
    "ql_boltz": ["--alpha", "0.5"],
}

# plan_large: `oracle` on a generated 96x96 layout, then a short `run` +
# `metrics` per agent on one fixed generated 12x12 layout. Large layout seeds
# come from a pinned pool; the workload seed picks the order. The training
# tail is the same in every pass so that its rates do not vary with the pool.
PLAN_POOL = 16
PLAN_SEED_BASE = 7000
LARGE_SIZE = (96, 128, 3000)  # side, users, horizon
SMALL_SIZE = (12, 8, 150)
SMALL_LAYOUT = WORK / "plan" / "small.txt"
SMALL_EPISODES = "60"

# Every function the coarse (untraced) pass wraps; the traced pass adds FINE.
COARSE = [
    ("qirl_uav.layout", "parse_layout", "layout.parse_layout"),
    ("qirl_uav.gridworld", "build", "gridworld.build"),
    ("qirl_uav.oracle", "dp_optimal", "oracle.dp_optimal"),
    ("qirl_uav.harness", "train", "harness.train"),
    ("qirl_uav.harness", "make_rng", "harness.make_rng"),
]
FINE = [
    ("qirl_uav.cli", "_cmd_metrics", "cli.metrics"),
    ("qirl_uav.gridworld", "GridWorld.step", "gridworld.step"),
    ("qirl_uav.agents", "QiRLAgent.select", "agents.select"),
    ("qirl_uav.agents", "QLearningAgent.select", "agents.select"),
    ("qirl_uav.agents", "QiRLAgent.update", "agents.update"),
    ("qirl_uav.agents", "QLearningAgent.update", "agents.update"),
    ("qirl_uav.agents", "_apply_floor", "agents._apply_floor"),
    ("qirl_uav.agents", "greedy_rollout", "agents.greedy_rollout"),
    ("qirl_uav.harness", "write_episodes_csv", "harness.write"),
    ("qirl_uav.harness", "write_trajectory_csv", "harness.write"),
    ("qirl_uav.harness", "read_episodes_csv", "harness.read_episodes_csv"),
    ("qirl_uav.harness", "convergence_metrics", "harness.convergence_metrics"),
]


class Call:
    """One CLI invocation of a pass, plus what its output check needs."""

    def __init__(self, argv, check, kind=None, out_dir=None):
        self.argv = argv
        self.check = check  # check(call) -> list of problems
        self.kind = kind  # agent kind for `run`
        self.out_dir = out_dir
        self.code = None
        self.stdout = ""
        self.rngs = []  # generators harness.make_rng returned, in seed order
        self.envs = []  # environments gridworld.build returned
        self.steps = 0  # training transitions, from episodes.csv
        self.episodes = 0


# ---------------------------------------------------------------- workloads


def _run_argv(layout, kind, out_dir, seeds, recipe):
    return ["run", "--config", layout, "--agent", kind, "--seeds", seeds, "--out", str(out_dir), *recipe]


def desk_pass(index, order, pins):
    gate_seed = order[index % len(order)]
    calls = []
    for kind in AGENTS:
        out = WORK / "desk" / kind
        pin = pins.get("desk_train", {}).get(f"{kind}/{gate_seed}")
        argv = _run_argv(DESK_LAYOUT, kind, out, str(gate_seed), DESK_RECIPES[kind])
        calls.append(Call(argv, lambda c, pin=pin: check_run(c, pin), kind, out))
        calls.append(Call(["metrics", "--in", str(out)], lambda c, out=out: check_metrics(c, out)))
    return calls


def tiny_pass(index, order, pins):
    seeds = ",".join(str(s) for s in GATE_SEEDS)
    calls = []
    for kind in order:
        out = WORK / "tiny" / kind
        pin = pins.get("tiny_episodes", {}).get(kind)
        argv = _run_argv(TINY_LAYOUT, kind, out, seeds, ["--episodes", "2000", *TINY_RECIPES[kind]])
        calls.append(Call(argv, lambda c, pin=pin: check_run(c, pin), kind, out))
        calls.append(Call(["metrics", "--in", str(out)], lambda c, out=out: check_metrics(c, out)))
    return calls


def plan_layout_path(pool_index):
    return WORK / "plan" / f"large_{pool_index:02d}.txt"


def write_plan_layouts():
    (WORK / "plan").mkdir(parents=True, exist_ok=True)
    for p in range(PLAN_POOL):
        plan_layout_path(p).write_text(generate_layout(PLAN_SEED_BASE + p, *LARGE_SIZE))
    SMALL_LAYOUT.write_text(generate_layout(PLAN_SEED_BASE, *SMALL_SIZE))


def plan_pass(index, order, pins):
    p = order[index % len(order)]
    large = plan_layout_path(p)
    pin = pins.get("plan_large", {}).get(f"large/{p:02d}")
    calls = [Call(["oracle", "--config", str(large)], lambda c: check_oracle(c, pin))]
    for kind in AGENTS:
        out = WORK / "plan" / kind
        pin_run = pins.get("plan_large", {}).get(f"small/{kind}")
        argv = _run_argv(str(SMALL_LAYOUT), kind, out, "0,1", ["--episodes", SMALL_EPISODES])
        calls.append(Call(argv, lambda c, pin=pin_run: check_run(c, pin), kind, out))
        calls.append(Call(["metrics", "--in", str(out)], lambda c, out=out: check_metrics(c, out)))
    return calls


def workload_order(name, seed):
    """The inputs a workload seed selects: gate seeds for desk_train, the
    agent order for tiny_episodes, pool layouts for plan_large."""
    rng = random.Random(seed)
    if name == "desk_train":
        return rng.sample(GATE_SEEDS, len(GATE_SEEDS))
    if name == "tiny_episodes":
        return rng.sample(AGENTS, len(AGENTS))
    return rng.sample(range(PLAN_POOL), PLAN_POOL)


WORKLOADS = {"desk_train": desk_pass, "tiny_episodes": tiny_pass, "plan_large": plan_pass}


# ---------------------------------------------------------------- checks


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def philox_draws(rng):
    """Uniform draws consumed so far, read from the Philox counter: each
    counter step yields a block of four 64-bit outputs."""
    state = rng.bit_generator.state
    return int(state["state"]["counter"][0]) * 4 + int(state["buffer_pos"]) - 4


def check_run(call, pin):
    problems = []
    steps_by_seed = {}
    with open(call.out_dir / "episodes.csv", newline="") as fh:
        for rec in csv.DictReader(fh):
            seed = int(rec["seed"])
            steps_by_seed[seed] = steps_by_seed.get(seed, 0) + int(rec["steps"])
            call.episodes += 1
    call.steps = sum(steps_by_seed.values())
    if pin is None:
        problems.append(NO_PIN)
    else:
        for name in OUTPUT_FILES:
            if sha256_file(call.out_dir / name) != pin[name]:
                problems.append(f"{name} digest differs from the pinned one")
    seeds = [int(tok) for tok in call.argv[call.argv.index("--seeds") + 1].split(",")]
    if call.rngs:  # absent when a later change stops calling harness.make_rng
        if len(call.rngs) != len(seeds):
            problems.append(f"{len(call.rngs)} generators made for {len(seeds)} seeds")
        per_select = DRAWS_PER_SELECT[call.kind]
        for seed, rng in zip(seeds, call.rngs):
            draws, selects = philox_draws(rng), steps_by_seed.get(seed, 0)
            if draws != per_select * selects:
                problems.append(f"seed {seed}: {draws} draws for {selects} selects, want {per_select} each")
    return problems


def check_metrics(call, out_dir):
    """Every `metrics` line must restate the per-seed numbers of summary.json."""
    summary = json.loads((out_dir / "summary.json").read_text())["seeds"]
    lines = call.stdout.strip().splitlines()
    if not lines or lines[0] != "seed,episodes_to_90pct,final_return_mean,oracle_gap":
        return ["metrics header missing"]
    problems = []
    seen = []
    for line in lines[1:]:
        seed, ep90, final, gap = line.split(",")
        want = summary.get(seed)
        seen.append(seed)
        got = (
            None if ep90 == "None" else int(ep90),
            None if final == "" else float(final),
            float(gap),
        )
        if want is None or got != (want["episodes_to_90pct"], want["final_return_mean"], want["oracle_gap"]):
            problems.append(f"metrics line {line!r} disagrees with summary.json")
    if sorted(seen, key=int) != sorted(summary, key=int):
        problems.append("metrics seeds differ from summary.json seeds")
    return problems


CELL = re.compile(r"\((\d+),(\d+)\)")


def oracle_fields(call):
    return dict(line.split(": ", 1) for line in call.stdout.strip().splitlines())


def check_oracle(call, pin):
    """Pinned optimum and path length, and a replay of the printed path
    through env.step whose rewards must sum to the printed return exactly."""
    fields = oracle_fields(call)
    problems = []
    if pin is None:
        problems.append(NO_PIN)
    else:
        if fields.get("optimal_return") != pin["optimal_return"]:
            problems.append(f"optimal_return {fields.get('optimal_return')} != pinned {pin['optimal_return']}")
        if int(fields.get("path_steps", -1)) != pin["path_steps"]:
            problems.append(f"path_steps {fields.get('path_steps')} != pinned {pin['path_steps']}")
    if not call.envs:
        return problems + ["no environment captured for the replay"]
    env = call.envs[-1]
    states = [env.state_of(int(i), int(j)) for i, j in CELL.findall(fields.get("path", ""))]
    if len(states) - 1 != int(fields.get("path_steps", -1)):
        problems.append("printed path length disagrees with path_steps")
    total = 0.0
    for s, nxt in zip(states, states[1:]):
        outcomes = [env.step(s, a) for a in range(4)]
        moves = [o for o in outcomes if o.next_state == nxt]
        if not moves:
            return problems + [f"path jumps from state {s} to {nxt}"]
        total += moves[0].reward
    if repr(total) != fields.get("optimal_return"):
        problems.append(f"replayed return {total!r} != printed {fields.get('optimal_return')}")
    return problems


# ---------------------------------------------------------------- passes


def _kind(args, index):
    try:
        return args[index].name
    except (AttributeError, IndexError):
        return "unknown"


def _observe_build(tracer, pass_envs):
    def observe(args, kwargs, env):
        pass_envs.append(env)
        tracer.counts["gridworld.build.terms"] += env.n_states * max(1, len(env.config.users))

    return observe


def _observe_dp(tracer):
    def observe(args, kwargs, result):
        env = args[0]
        horizon = args[1] if len(args) > 1 else kwargs.get("horizon")
        h = env.max_steps if horizon is None else horizon
        tracer.counts["oracle.dp_optimal.updates"] += h * env.n_states * 4
        table = (h + 1) * env.n_states * 8
        tracer.counts["oracle.dp_optimal.table_bytes"] = max(tracer.counts["oracle.dp_optimal.table_bytes"], table)

    return observe


def attach(tracer, fine, rngs, envs):
    observers = {
        "gridworld.build": _observe_build(tracer, envs),
        "oracle.dp_optimal": _observe_dp(tracer),
        "harness.make_rng": lambda a, k, rng: rngs.append(rng),
    }
    key_of = {"harness.train": lambda args: "harness.train." + _kind(args, 1)}
    if fine:
        counts = tracer.counts

        def observe_step(args, kwargs, out):
            if out.boundary_hit:
                counts["gridworld.step.rebounds"] += 1

        def observe_read(args, kwargs, rows):
            counts["harness.read_episodes_csv.rows"] += len(rows)

        observers["gridworld.step"] = observe_step
        observers["harness.read_episodes_csv"] = observe_read
        key_of["agents.select"] = lambda args: "agents.select." + _kind(args, 0)
        key_of["agents.update"] = lambda args: "agents.update." + _kind(args, 0)
    for module, qualname, key in COARSE + (FINE if fine else []):
        tracer.attach(module, qualname, key, key_of.get(key), observers.get(key))


def run_pass(cli, calls, fine, bias=(0.0, 0.0)):
    """Execute a pass's invocations under the tracer, then check outputs.

    Returns (wall seconds, tracer, [(call, problems)] for failed calls)."""
    tracer = Tracer(*bias)
    for call in calls:
        if call.out_dir is not None:
            shutil.rmtree(call.out_dir, ignore_errors=True)
    rngs, envs = [], []
    attach(tracer, fine, rngs, envs)
    start = time.perf_counter()
    try:
        for call in calls:
            buffer = io.StringIO()
            try:
                with contextlib.redirect_stdout(buffer):
                    call.code = cli.main(call.argv)
            except Exception:  # the invocation boundary: count it as failed and go on
                traceback.print_exc(file=sys.stderr)
                call.code = -1
            call.stdout = buffer.getvalue()
            call.rngs, call.envs = rngs[:], envs[:]
            rngs.clear()
            envs.clear()
    finally:
        wall = time.perf_counter() - start
        tracer.detach()

    failures = []
    for call in calls:
        problems = [f"exit code {call.code}"] if call.code != 0 else []
        if not problems:
            try:
                problems = call.check(call)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"output unreadable: {exc!r}"]
        if problems:
            failures.append((call, problems))
    return wall, tracer, failures


def report_failures(failures):
    for call, problems in failures:
        print(f"check failed: {' '.join(call.argv)}: {'; '.join(problems)}", file=sys.stderr)
    return len(failures)


def end_to_end(wall, tracer, calls):
    train = [rec for key, rec in tracer.stats.items() if key.startswith("harness.train.")]
    train_s = sum(rec[1] for rec in train) / 1e9

    def total(*keys):
        return sum(tracer.stats[k][1] for k in keys if k in tracer.stats) / 1e9

    steps = sum(c.steps for c in calls)
    episodes = sum(c.episodes for c in calls)
    return {
        "wall_s": wall,
        "setup_s": total("layout.parse_layout", "gridworld.build"),
        "plan_s": total("oracle.dp_optimal"),
        "train_steps_per_s": steps / train_s if train_s else None,
        "episodes_per_s": episodes / train_s if train_s else None,
    }


def _per_call_ns(tracer, key):
    rec = tracer.stats.get(key)
    return rec[2] / rec[0] if rec and rec[0] else None


def per_layer(tracer, calls, wall, untraced_wall, untraced_tracer):
    st = tracer.stats
    counts = tracer.counts
    m = {}

    def put(name, value):
        if value is not None:
            m[name] = value

    put("layout.parse_layout.s", tracer.self_s("layout.parse_layout"))
    build_s = tracer.self_s("gridworld.build")
    terms = counts.get("gridworld.build.terms")
    if build_s is not None and terms and "gridworld.build" not in tracer.broken:
        put("gridworld.build.s", build_s)
        put("gridworld.build.terms", terms)
        put("gridworld.build.ns_per_term", build_s * 1e9 / terms)
    dp_s = tracer.self_s("oracle.dp_optimal")
    updates = counts.get("oracle.dp_optimal.updates")
    if dp_s is not None and updates and "oracle.dp_optimal" not in tracer.broken:
        put("oracle.dp_optimal.s", dp_s)
        put("oracle.dp_optimal.updates", updates)
        put("oracle.dp_optimal.ns_per_update", dp_s * 1e9 / updates)
        put("oracle.dp_optimal.table_bytes", counts["oracle.dp_optimal.table_bytes"])
    step = st.get("gridworld.step")
    if step and "gridworld.step" not in tracer.broken:
        put("gridworld.step.calls", step[0])
        put("gridworld.step.ns", step[2] / step[0])
        put("gridworld.step.rebound_share", counts.get("gridworld.step.rebounds", 0) / step[0])
    for kind in AGENTS:
        put(f"agents.select.ns.{kind}", _per_call_ns(tracer, f"agents.select.{kind}"))
        put(f"agents.update.ns.{kind}", _per_call_ns(tracer, f"agents.update.{kind}"))
    put("agents._apply_floor.ns", _per_call_ns(tracer, "agents._apply_floor"))
    put("agents.greedy_rollout.s", tracer.self_s("agents.greedy_rollout"))

    for kind in AGENTS:  # throughput from the untraced twin pass, free of wrapper cost
        rec = untraced_tracer.stats.get(f"harness.train.{kind}")
        steps = sum(c.steps for c in calls if c.kind == kind)
        if rec and steps:
            put(f"harness.train.steps_per_s.{kind}", steps / (rec[1] / 1e9))
    train_self = sum(rec[2] for key, rec in st.items() if key.startswith("harness.train."))
    steps = sum(c.steps for c in calls)
    if train_self and steps:
        put("harness.train.loop_ns_per_step", train_self / steps)
    if "harness.write" in st:
        put("harness.write.s", tracer.self_s("harness.write"))
        put(
            "harness.write.bytes",
            sum((c.out_dir / name).stat().st_size for c in calls if c.kind for name in OUTPUT_FILES),
        )
    read = st.get("harness.read_episodes_csv")
    if read and "harness.read_episodes_csv" not in tracer.broken:
        put("harness.read_episodes_csv.s", read[2] / 1e9)
        put("harness.read_episodes_csv.rows", counts.get("harness.read_episodes_csv.rows", 0))
    put("harness.convergence_metrics.s", tracer.self_s("harness.convergence_metrics"))
    put("cli.metrics.self_s", tracer.self_s("cli.metrics"))
    for kind in AGENTS:
        runs = [c for c in calls if c.kind == kind and c.rngs]
        selects = sum(c.steps for c in runs)
        if selects:
            put(f"agents.rng_draws_per_select.{kind}", sum(philox_draws(r) for c in runs for r in c.rngs) / selects)
    put("trace.overhead_share", wall / untraced_wall - 1.0)
    put("trace.coverage", sum(rec[2] for rec in st.values()) / 1e9 / wall)
    return m


# ---------------------------------------------------------------- main


def machine_context():
    def command(*argv):
        try:
            return subprocess.run(argv, capture_output=True, text=True, timeout=10, cwd=ROOT).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return ""

    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": (command("git", "rev-parse", "--short", "HEAD") if (ROOT / ".git").exists() else "") or "unknown",
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(samples, units, label):
    """Median per metric over passes; prints one line per metric."""
    result = {}
    for name, unit in units.items():
        values = [s[name] for s in samples if s.get(name) is not None]
        if not values:
            print(f"{name:40s} absent", flush=True)
            continue
        med = statistics.median(values)
        q1, q3 = quartiles(values)
        print(f"{name:40s} {med:14.6g} {unit:6s} median of {len(values)} {label}, quartiles {q1:.6g} .. {q3:.6g}")
        result[name] = {"value": med, "unit": unit}
    return result


def load_units():
    """Metric names and units, end-to-end and per-layer, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec[group]} for group in ("end_to_end", "per_layer"))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from qirl_uav import cli
    except ImportError as exc:
        print(f"error: cannot import the qirl_uav package from src/: {exc}", file=sys.stderr)
        return 2
    for layout in (DESK_LAYOUT, TINY_LAYOUT):
        if not Path(layout).is_file():
            print(f"error: {layout} is missing; run from a full checkout", file=sys.stderr)
            return 2
    pins = json.loads(PINS_FILE.read_text())
    e2e_units, layer_units = load_units()

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    if args.workload == "plan_large":
        write_plan_layouts()
    order = workload_order(args.workload, args.seed)
    make_pass = WORKLOADS[args.workload]

    with contextlib.redirect_stdout(io.StringIO()):  # warm-up: imports and first-call paths
        cli.main(["oracle", "--config", TINY_LAYOUT])

    context = machine_context()
    bias = calibrate() if args.trace else (0.0, 0.0)
    e2e, layers = [], []
    attempted = failed = 0
    start = time.perf_counter()
    index = 0
    cycle = 0.0
    while True:
        cycle_start = time.perf_counter()
        calls = make_pass(index, order, pins)
        wall, tracer, failures = run_pass(cli, calls, fine=False)
        attempted += len(calls)
        failed += report_failures(failures)
        sample = end_to_end(wall, tracer, calls)
        if args.trace:
            traced_calls = make_pass(index, order, pins)
            traced_wall, traced, failures = run_pass(cli, traced_calls, fine=True, bias=bias)
            attempted += len(traced_calls)
            failed += report_failures(failures)
            layers.append(per_layer(traced, traced_calls, traced_wall, wall, tracer))
            if traced.missing:
                print(f"not traced (absent metrics): {sorted(set(traced.missing))}", file=sys.stderr)
        e2e.append(sample)
        index += 1
        cycle = max(cycle, time.perf_counter() - cycle_start)
        elapsed = time.perf_counter() - start
        enough = index >= (1 if args.trace else MIN_PASSES)
        if enough and elapsed + cycle > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for sample in e2e:
        sample["peak_rss_mib"] = peak_rss_mib

    print(f"workload {args.workload}, seed {args.seed}, {index} passes in {time.perf_counter() - start:.1f} s")
    print("context " + json.dumps(context, sort_keys=True))
    if args.trace:
        print(f"wrapper cost taken out of self times: {bias[0]:.0f} ns inside, {bias[1]:.0f} ns outside per call")
        metrics = summarize(layers, layer_units, "traced passes")
    else:
        metrics = summarize(e2e, e2e_units, "passes")
    print(f"failed_share {failed / attempted!r} ({failed} of {attempted} invocations)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
