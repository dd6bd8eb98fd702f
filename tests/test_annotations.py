"""Every public annotation of the package resolves: tools that read type
hints (typing.get_type_hints, dataclass and documentation tooling) see real
types, not names that were never imported."""

import importlib
import inspect
import pkgutil
import typing

import qirl_uav


def public_callables():
    """Each module's own public functions and classes, and each class's
    public methods and __init__; __main__ is skipped, as importing it runs
    the CLI."""
    for info in pkgutil.iter_modules(qirl_uav.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"qirl_uav.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield obj
            elif inspect.isclass(obj):
                yield obj
                for attr, member in vars(obj).items():
                    if (attr == "__init__" or not attr.startswith("_")) and inspect.isfunction(member):
                        yield member


def test_every_public_annotation_resolves():
    checked, unresolved = set(), []
    for target in public_callables():
        checked.add(f"{target.__module__}.{target.__qualname__}")
        try:
            typing.get_type_hints(target)
        except NameError as exc:
            unresolved.append(f"{target.__module__}.{target.__qualname__}: {exc}")
    assert unresolved == []
    assert {"qirl_uav.harness.write_trajectory_csv", "qirl_uav.agents.QLearningAgent.__init__"} <= checked
