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
syntax only; the config dataclasses (GridSpec, EnvConfig, GroundUser,
Position3, CarrierConfig) check every value, finiteness included. Either
kind of error raises LayoutError with the line that supplied the value.
"""

from __future__ import annotations

from pathlib import Path

from .channel import CarrierConfig, GroundUser, Position3
from .gridworld import EnvConfig, FieldError, GridSpec


class LayoutError(ValueError):
    """Layout file rejected; message carries file and line context."""


_REQUIRED = ("grid", "cell_size", "altitude", "carrier_freq", "bandwidth", "start", "terminal", "max_steps")
_SCALAR_KEYS = _REQUIRED + ("origin", "uniform_reward", "boundary_penalty")
_USER_VALUES = ("x", "y", "tx_power", "noise_power", "bandwidth")
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


def _parse_float(source: str, line_no: int, token: str, field: str) -> float:
    try:
        return float(token)
    except ValueError:
        _fail(source, line_no, f"{field} must be a number, got {token!r}")


def _parse_int(source: str, line_no: int, token: str, field: str) -> int:
    try:
        return int(token)
    except ValueError:
        _fail(source, line_no, f"{field} must be an integer, got {token!r}")


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
    fields: dict[str, tuple] = {}  # keyword -> (values, line_no)
    users: list[tuple] = []  # (values, line_no)

    for line_no, raw in enumerate(content.splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        key, *args = text.split()
        if key == "user":
            if len(args) != 5:
                _fail(source, line_no, f"user takes 5 values (x y tx_power noise_power bandwidth), got {len(args)}")
            users.append((args, line_no))
        elif key in _SCALAR_KEYS:
            if key in fields:
                _fail(source, line_no, f"duplicate {key} (first given on line {fields[key][1]})")
            fields[key] = (args, line_no)
        else:
            _fail(source, line_no, f"unknown keyword {key!r}")

    for key in _REQUIRED:
        if key not in fields:
            raise LayoutError(f"{source}: missing required field {key!r}")

    def take(key: str, count: int) -> tuple[list[str], int]:
        args, line_no = fields[key]
        if len(args) != count:
            _fail(source, line_no, f"{key} takes {count} value(s), got {len(args)}")
        return args, line_no

    def scalar(key: str, parse=_parse_float):
        args, line_no = take(key, 1)
        return parse(source, line_no, args[0], key)

    args, ln = take("grid", 2)
    n1, n2 = (_parse_int(source, ln, a, "grid size") for a in args)
    cell_size = scalar("cell_size")
    altitude = scalar("altitude")
    if "origin" in fields:
        args, ln = take("origin", 2)
        ox = _parse_float(source, ln, args[0], "origin x")
        oy = _parse_float(source, ln, args[1], "origin y")
    else:
        ox = oy = cell_size / 2.0
    carrier = _build(source, fields["carrier_freq"][1], CarrierConfig, scalar("carrier_freq"))
    bandwidth = scalar("bandwidth")
    cells = {}
    for key in ("start", "terminal"):
        args, ln = take(key, 2)
        cells[key] = (_parse_int(source, ln, args[0], f"{key} i"), _parse_int(source, ln, args[1], f"{key} j"))
    max_steps = scalar("max_steps", _parse_int)
    uniform_reward = scalar("uniform_reward") if "uniform_reward" in fields else None
    boundary_penalty = scalar("boundary_penalty") if "boundary_penalty" in fields else 0.0

    parsed_users = []
    for args, ln in users:
        x, y, tx, noise, bw = (_parse_float(source, ln, a, f"user {name}") for a, name in zip(args, _USER_VALUES))
        parsed_users.append(_build(source, ln, lambda: GroundUser(Position3(x, y, 0.0), tx, noise, bw)))

    try:
        return EnvConfig(
            grid=GridSpec(n1, n2, cell_size, (ox, oy), altitude),
            users=tuple(parsed_users),
            carrier=carrier,
            start_cell=cells["start"],
            terminal_cell=cells["terminal"],
            max_steps=max_steps,
            total_bandwidth=bandwidth,
            uniform_reward=uniform_reward,
            boundary_penalty=boundary_penalty,
        )
    except FieldError as exc:
        if exc.index is not None:
            line_no = users[exc.index][1]
        else:
            line_no = fields.get(_KEYWORD_OF_FIELD.get(exc.field, exc.field), (None, None))[1]
        if line_no is None:
            raise LayoutError(f"{source}: {exc}") from exc
        _fail(source, line_no, str(exc))
