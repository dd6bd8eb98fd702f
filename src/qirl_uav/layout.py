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

Users may be omitted only when uniform_reward is given. Parse and invariant
violations raise LayoutError with the offending line number.
"""

from __future__ import annotations

import math
from pathlib import Path

from .channel import CarrierConfig, GroundUser, Position3
from .gridworld import EnvConfig, GridSpec, manhattan


class LayoutError(ValueError):
    """Layout file rejected; message carries file and line context."""


_REQUIRED = ("grid", "cell_size", "altitude", "carrier_freq", "bandwidth", "start", "terminal", "max_steps")
_SCALAR_KEYS = _REQUIRED + ("origin", "uniform_reward", "boundary_penalty")


def _fail(source: str, line_no: int, message: str) -> None:
    raise LayoutError(f"{source}, line {line_no}: {message}")


def _parse_float(source: str, line_no: int, token: str, field: str) -> float:
    try:
        value = float(token)
    except ValueError:
        _fail(source, line_no, f"{field} must be a number, got {token!r}")
    if not math.isfinite(value):
        _fail(source, line_no, f"{field} must be finite, got {token!r}")
    return value


def _parse_int(source: str, line_no: int, token: str, field: str) -> int:
    try:
        return int(token)
    except ValueError:
        _fail(source, line_no, f"{field} must be an integer, got {token!r}")


def parse_layout(path: str | Path) -> EnvConfig:
    """Read a layout file and return a validated EnvConfig."""
    path = Path(path)
    source = str(path)
    fields: dict[str, tuple] = {}  # keyword -> (values, line_no)
    users: list[tuple] = []  # (values, line_no)

    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
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
    if not users and "uniform_reward" not in fields:
        raise LayoutError(f"{source}: no user lines and no uniform_reward")

    def take(key: str, count: int) -> tuple[list[str], int]:
        args, line_no = fields[key]
        if len(args) != count:
            _fail(source, line_no, f"{key} takes {count} value(s), got {len(args)}")
        return args, line_no

    args, ln = take("grid", 2)
    n1, n2 = (_parse_int(source, ln, a, "grid size") for a in args)
    grid_line = ln
    if n1 < 2 or n2 < 2:
        _fail(source, grid_line, "grid needs at least 2 cells per side")

    args, ln = take("cell_size", 1)
    cell_size = _parse_float(source, ln, args[0], "cell_size")
    if cell_size <= 0.0:
        _fail(source, ln, "cell_size must be positive")

    args, ln = take("altitude", 1)
    altitude = _parse_float(source, ln, args[0], "altitude")
    if altitude <= 0.0:
        _fail(source, ln, "altitude must be positive")

    if "origin" in fields:
        args, ln = take("origin", 2)
        ox = _parse_float(source, ln, args[0], "origin x")
        oy = _parse_float(source, ln, args[1], "origin y")
    else:
        ox = oy = cell_size / 2.0

    args, ln = take("carrier_freq", 1)
    carrier_freq = _parse_float(source, ln, args[0], "carrier_freq")
    if carrier_freq <= 0.0:
        _fail(source, ln, "carrier_freq must be positive")

    args, ln = take("bandwidth", 1)
    bandwidth = _parse_float(source, ln, args[0], "bandwidth")
    if bandwidth <= 0.0:
        _fail(source, ln, "bandwidth must be positive")

    cells = {}
    for key in ("start", "terminal"):
        args, ln = take(key, 2)
        i = _parse_int(source, ln, args[0], f"{key} i")
        j = _parse_int(source, ln, args[1], f"{key} j")
        if not (0 <= i < n1 and 0 <= j < n2):
            _fail(source, ln, f"{key} cell ({i}, {j}) outside {n1}x{n2} grid")
        cells[key] = ((i, j), ln)
    if cells["start"][0] == cells["terminal"][0]:
        _fail(source, cells["terminal"][1], "terminal cell equals start cell")

    args, ln = take("max_steps", 1)
    max_steps = _parse_int(source, ln, args[0], "max_steps")
    distance = manhattan(cells["start"][0], cells["terminal"][0])
    if max_steps < distance:
        _fail(source, ln, f"max_steps {max_steps} below start-terminal Manhattan distance {distance}")

    uniform_reward = None
    if "uniform_reward" in fields:
        args, ln = take("uniform_reward", 1)
        uniform_reward = _parse_float(source, ln, args[0], "uniform_reward")
        if uniform_reward <= 0.0:
            _fail(source, ln, "uniform_reward must be positive")

    boundary_penalty = 0.0
    if "boundary_penalty" in fields:
        args, ln = take("boundary_penalty", 1)
        boundary_penalty = _parse_float(source, ln, args[0], "boundary_penalty")
        if boundary_penalty > 0.0:
            _fail(source, ln, "boundary_penalty must be <= 0")

    parsed_users = []
    allocated = 0.0
    for args, ln in users:
        x = _parse_float(source, ln, args[0], "user x")
        y = _parse_float(source, ln, args[1], "user y")
        tx = _parse_float(source, ln, args[2], "user tx_power")
        noise = _parse_float(source, ln, args[3], "user noise_power")
        bw = _parse_float(source, ln, args[4], "user bandwidth")
        if tx <= 0.0:
            _fail(source, ln, "user tx_power must be positive")
        if noise <= 0.0:
            _fail(source, ln, "user noise_power must be positive")
        if bw <= 0.0:
            _fail(source, ln, "user bandwidth must be positive")
        allocated += bw
        if allocated > bandwidth * (1.0 + 1e-12):
            _fail(source, ln, f"user bandwidth sum {allocated:g} Hz exceeds total bandwidth {bandwidth:g} Hz")
        parsed_users.append(GroundUser(Position3(x, y, 0.0), tx, noise, bw))

    try:
        return EnvConfig(
            grid=GridSpec(n1, n2, cell_size, Position3(ox, oy, altitude), altitude),
            users=tuple(parsed_users),
            carrier=CarrierConfig(carrier_freq),
            start_cell=cells["start"][0],
            terminal_cell=cells["terminal"][0],
            max_steps=max_steps,
            total_bandwidth=bandwidth,
            uniform_reward=uniform_reward,
            boundary_penalty=boundary_penalty,
        )
    except ValueError as exc:  # anything the per-line checks above did not attribute
        raise LayoutError(f"{source}: {exc}") from exc
