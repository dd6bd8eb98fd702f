"""Environment layout files: a line-oriented text format.

Each non-blank line is `keyword value...`; `#` starts a comment. Keywords:

    grid N1 N2                      cells along x and y (required)
    cell_size METERS                (required)
    altitude METERS                 UAV flight height (required)
    origin X Y                      center of cell (0,0); default cell_size/2
    carrier_freq HZ                 (required)
    bandwidth HZ                    total uplink bandwidth B (required)
    start I J                       start cell indices (required)
    terminal I J                    terminal cell indices (required)
    max_steps N                     episode step budget (required)
    user X Y TX_W NOISE_W BW_HZ     one ground user (repeatable)
    uniform_reward R                synthetic constant cell reward (optional)
    boundary_penalty R              reward on rebound, <= 0 (optional)

Users may be omitted only when uniform_reward is given. This module checks
syntax only: one table, `_KEYWORDS`, gives each keyword's value names and
type, and each line's keyword, arity and numbers are checked, in file order,
as the line is read; missing required keywords are reported after the last
line. The config dataclasses (GridSpec, EnvConfig, GroundUser, Position3,
CarrierConfig) check every value, finiteness included. Either kind of error
raises LayoutError with the line that supplied the value.
"""

from __future__ import annotations

from pathlib import Path

from .channel import CarrierConfig, GroundUser, Position3
from .gridworld import EnvConfig, FieldError, GridSpec


class LayoutError(ValueError):
    """Layout file rejected; message carries file and line context."""


# Each keyword's value type and value names, as the messages name them; only `user` repeats.
_KEYWORDS = {
    "grid": (int, "grid size", "grid size"),
    "cell_size": (float, "cell_size"),
    "altitude": (float, "altitude"),
    "origin": (float, "origin x", "origin y"),
    "carrier_freq": (float, "carrier_freq"),
    "bandwidth": (float, "bandwidth"),
    "start": (int, "start i", "start j"),
    "terminal": (int, "terminal i", "terminal j"),
    "max_steps": (int, "max_steps"),
    "user": (float, "user x", "user y", "user tx_power", "user noise_power", "user bandwidth"),
    "uniform_reward": (float, "uniform_reward"),
    "boundary_penalty": (float, "boundary_penalty"),
}
_REQUIRED = ("grid", "cell_size", "altitude", "carrier_freq", "bandwidth", "start", "terminal", "max_steps")
# The keyword that supplies each config field whose name differs from it.
_KEYWORD_OF_FIELD = {
    "n1": "grid",
    "n2": "grid",
    "start_cell": "start",
    "terminal_cell": "terminal",
    "total_bandwidth": "bandwidth",
}


def _fail(source: str, line_no: int, message: str) -> None:
    raise LayoutError(f"{source}, line {line_no}: {message}")


def _build(source: str, line_no: int, make, *args):
    """make(*args), with a rejected value reported at the line that supplied it."""
    try:
        return make(*args)
    except ValueError as exc:
        _fail(source, line_no, str(exc))


def parse_layout(path: str | Path, data: bytes | None = None) -> EnvConfig:
    """Parse a layout file into a validated EnvConfig. data, if given, is the
    file's bytes already read (`run` hashes them); path then only names it."""
    source = str(Path(path))
    try:
        content = (Path(path).read_bytes() if data is None else data).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LayoutError(f"{source}: not UTF-8 text ({exc})") from exc
    fields: dict[str, tuple] = {}  # keyword -> (value, or values when it takes several, line_no)
    users: list[tuple] = []  # (values, line_no)

    for line_no, raw in enumerate(content.splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        key, *args = text.split()
        if key not in _KEYWORDS:
            _fail(source, line_no, f"unknown keyword {key!r}")
        if key in fields:
            _fail(source, line_no, f"duplicate {key} (first given on line {fields[key][1]})")
        parse, *names = _KEYWORDS[key]
        if len(args) != len(names):
            count = "5 values (x y tx_power noise_power bandwidth)" if key == "user" else f"{len(names)} value(s)"
            _fail(source, line_no, f"{key} takes {count}, got {len(args)}")
        values = []
        for token, name in zip(args, names):
            try:
                values.append(parse(token))
            except ValueError:
                _fail(source, line_no, f"{name} must be {'an integer' if parse is int else 'a number'}, got {token!r}")
        if key == "user":
            users.append((values, line_no))
        else:
            fields[key] = (tuple(values) if len(values) > 1 else values[0], line_no)

    for key in _REQUIRED:
        if key not in fields:
            raise LayoutError(f"{source}: missing required field {key!r}")
    value = {key: v for key, (v, _) in fields.items()}
    cell_size = value["cell_size"]
    origin = value.get("origin", (cell_size / 2.0, cell_size / 2.0))
    carrier = _build(source, fields["carrier_freq"][1], CarrierConfig, value["carrier_freq"])
    parsed_users = []
    for (x, y, tx, noise, bw), ln in users:
        parsed_users.append(_build(source, ln, lambda: GroundUser(Position3(x, y, 0.0), tx, noise, bw)))

    try:
        return EnvConfig(
            grid=GridSpec(*value["grid"], cell_size, origin, value["altitude"]),
            users=tuple(parsed_users),
            carrier=carrier,
            start_cell=value["start"],
            terminal_cell=value["terminal"],
            max_steps=value["max_steps"],
            total_bandwidth=value["bandwidth"],
            uniform_reward=value.get("uniform_reward"),
            boundary_penalty=value.get("boundary_penalty", 0.0),
        )
    except FieldError as exc:
        if exc.index is not None:
            line_no = users[exc.index][1]
        else:
            line_no = fields.get(_KEYWORD_OF_FIELD.get(exc.field, exc.field), (None, None))[1]
        if line_no is None:
            raise LayoutError(f"{source}: {exc}") from exc
        _fail(source, line_no, str(exc))
