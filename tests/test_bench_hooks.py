"""The benchmark's timing hooks must still find, and the commands still
call, every function they wrap.

perfbench's Tracer skips a target it cannot find and only records it in
`missing`, so renaming a wrapped function would silently drop that layer's
metrics from later bench runs; here the rename fails a test instead. A
target that exists but that the commands stop calling (say, a training loop
that inlines select and update) would leave its metric just as absent, so a
second test drives the CLI through the bench's own wrappers. The bench
script is loaded, not run: no bench pass executes.
"""

import importlib.util
import sys

from qirl_uav import cli

from conftest import REPO_ROOT, TINY_LAYOUT


BENCH_DIR = REPO_ROOT / "perfbench"


def load_bench():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
    bench = importlib.util.module_from_spec(spec)
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    try:
        spec.loader.exec_module(bench)  # puts perfbench/ on sys.path to import its helpers
    finally:
        sys.path[:] = saved_path
        for name in set(sys.modules) - saved_modules:
            if str(getattr(sys.modules[name], "__file__", "")).startswith(str(BENCH_DIR)):
                del sys.modules[name]
    return bench


def resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    for part in qualname.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_bench_hook_target_exists():
    bench = load_bench()
    targets = [(module, qualname) for module, qualname, _ in bench.COARSE + bench.FINE]
    before = [resolve(*target) for target in targets]
    tracer = bench.Tracer()
    try:
        for module, qualname, key in bench.COARSE + bench.FINE:
            assert tracer.attach(module, qualname, key), f"{module}.{qualname} not found"
        assert tracer.missing == []
    finally:
        tracer.detach()
    assert [resolve(*target) for target in targets] == before


def test_every_bench_hook_is_reached_by_the_cli(tmp_path):
    """A hook that exists but that the commands no longer call leaves its
    metric silently absent; drive `run` for every agent kind, then `metrics`
    and `oracle`, through the traced pass's wrappers and require a call on
    every key."""
    bench = load_bench()
    tracer = bench.Tracer()
    try:
        bench.attach(tracer, True, [], [])
        for kind in bench.AGENTS:
            out = tmp_path / kind
            argv = ["run", "--config", str(TINY_LAYOUT), "--agent", kind, "--episodes", "5", "--seeds", "0,1"]
            assert cli.main([*argv, "--out", str(out)]) == 0
        assert cli.main(["metrics", "--in", str(tmp_path / "qirl")]) == 0
        assert cli.main(["oracle", "--config", str(TINY_LAYOUT)]) == 0
    finally:
        tracer.detach()
    per_kind = {"harness.train", "agents.select", "agents.update"}
    expected = {key for _, _, key in bench.COARSE + bench.FINE} - per_kind
    expected |= {f"{key}.{kind}" for key in per_kind for kind in bench.AGENTS}
    reached = {key for key, (calls, _, _) in tracer.stats.items() if calls}
    assert sorted(expected - reached) == []
    assert tracer.missing == []
