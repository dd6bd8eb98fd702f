"""The benchmark's timing hooks must still find every function they wrap.

perfbench's Tracer skips a target it cannot find and only records it in
`missing`, so renaming a wrapped function would silently drop that layer's
metrics from later bench runs; here the rename fails a test instead. The
bench script is loaded, not run: no pass executes and no file is written.
"""

import importlib.util
import sys

from conftest import REPO_ROOT


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
