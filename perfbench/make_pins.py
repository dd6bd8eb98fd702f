"""Regenerate perfbench/pins.json: the reference outputs the benchmark checks.

    python3 perfbench/make_pins.py

Runs every input the workloads can select (20 gate seeds per agent on the
desk layout, the tiny recipes, all PLAN_POOL generated layouts) once,
untraced, and records SHA-256 digests of each run's output files and the
exact optimum and path length of each large layout. Pins describe the
program's behaviour at the commit they were made on; only a change that
means to alter outputs may regenerate them, and must say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run as bench


def collect(calls, failures, pins, key_of):
    for call, problems in failures:
        real = [p for p in problems if p != bench.NO_PIN]
        if real:
            sys.exit(f"{' '.join(call.argv)}: {'; '.join(real)}")
    for call in calls:
        key = key_of(call)
        if key is None:
            continue
        if call.kind:
            pins[key] = {name: bench.sha256_file(call.out_dir / name) for name in bench.OUTPUT_FILES}
        else:
            fields = bench.oracle_fields(call)
            pins[key] = {"optimal_return": fields["optimal_return"], "path_steps": int(fields["path_steps"])}


def main():
    os.chdir(bench.ROOT)
    sys.path.insert(0, str(bench.ROOT / "src"))
    from qirl_uav import cli

    shutil.rmtree(bench.WORK, ignore_errors=True)
    bench.WORK.mkdir()
    pins = {"desk_train": {}, "tiny_episodes": {}, "plan_large": {}}

    for seed in bench.GATE_SEEDS:
        calls = bench.desk_pass(0, [seed], {})
        _, _, failures = bench.run_pass(cli, calls, fine=False)
        collect(calls, failures, pins["desk_train"], lambda c: f"{c.kind}/{seed}" if c.kind else None)
        print(f"desk_train gate seed {seed} pinned", flush=True)

    calls = bench.tiny_pass(0, bench.AGENTS, {})
    _, _, failures = bench.run_pass(cli, calls, fine=False)
    collect(calls, failures, pins["tiny_episodes"], lambda c: c.kind)
    print("tiny_episodes pinned", flush=True)

    bench.write_plan_layouts()
    for p in range(bench.PLAN_POOL):

        def plan_key(call):
            if call.kind:  # the fixed training tail: the same pins on every pool entry
                return f"small/{call.kind}"
            return f"large/{p:02d}" if call.argv[0] == "oracle" else None

        calls = bench.plan_pass(0, [p], {})
        _, _, failures = bench.run_pass(cli, calls, fine=False)
        collect(calls, failures, pins["plan_large"], plan_key)
        print(f"plan_large layout {p} pinned", flush=True)

    bench.PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(bench.WORK, ignore_errors=True)


if __name__ == "__main__":
    main()
