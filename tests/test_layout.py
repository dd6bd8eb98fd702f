"""Layout file parsing: happy paths for the shipped files, line-attributed errors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qirl_uav.gridworld import EnvConfig
from qirl_uav.layout import LayoutError, parse_layout

from conftest import DESK_LAYOUT, TINY_LAYOUT

VALID_LINES = [
    "grid 3 3",
    "cell_size 20",
    "altitude 100",
    "carrier_freq 2e9",
    "bandwidth 10e6",
    "start 0 0",
    "terminal 2 2",
    "max_steps 4",
    "uniform_reward 1.0",
]


def write_layout(tmp_path, lines, name="layout.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def test_parses_shipped_synthetic_layout():
    cfg = parse_layout(TINY_LAYOUT)
    assert (cfg.n1, cfg.n2) == (3, 3)
    assert cfg.uniform_reward == 1.0
    assert cfg.users == ()
    assert cfg.start_cell == (0, 0)
    assert cfg.terminal_cell == (2, 2)
    assert cfg.max_steps == 4


def test_parses_shipped_uplink_layout():
    cfg = parse_layout(DESK_LAYOUT)
    assert (cfg.n1, cfg.n2) == (10, 10)
    assert cfg.cell_size == 20.0
    assert cfg.altitude == 100.0
    assert cfg.carrier.carrier_freq == 2e9
    assert cfg.total_bandwidth == 10e6
    assert len(cfg.users) == 5
    assert all(u.tx_power == 1.0 and u.noise_power == 1.0 and u.bandwidth == 2e6 for u in cfg.users)
    assert cfg.start_cell == (0, 9)
    assert cfg.terminal_cell == (9, 0)
    assert cfg.max_steps == 900


def test_comments_blanks_and_default_origin(tmp_path):
    lines = ["# header", ""] + VALID_LINES + ["  # trailing comment line"]
    cfg = parse_layout(write_layout(tmp_path, lines))
    # origin defaults to the center of cell (0,0)
    assert cfg.origin == (10.0, 10.0)


def test_explicit_origin_and_boundary_penalty(tmp_path):
    lines = VALID_LINES + ["origin 0 5", "boundary_penalty -0.25"]
    cfg = parse_layout(write_layout(tmp_path, lines))
    assert cfg.origin == (0.0, 5.0)
    assert cfg.boundary_penalty == -0.25


def test_user_lines_parse_in_order(tmp_path):
    lines = [l for l in VALID_LINES if not l.startswith("uniform_reward")]
    lines += ["user 10 20 1 1 2e6", "user 30 40 2 0.5 3e6"]
    cfg = parse_layout(write_layout(tmp_path, lines))
    assert len(cfg.users) == 2
    assert (cfg.users[1].x, cfg.users[1].y) == (30.0, 40.0)
    assert cfg.users[1].tx_power == 2.0
    assert cfg.uniform_reward is None


def expect_error(tmp_path, lines, fragment):
    with pytest.raises(LayoutError) as err:
        parse_layout(write_layout(tmp_path, lines))
    assert fragment in str(err.value)
    return str(err.value)


def test_unknown_keyword_reports_its_line(tmp_path):
    msg = expect_error(tmp_path, VALID_LINES + ["speed 3"], "unknown keyword")
    assert "line 10" in msg


def test_duplicate_keyword_reports_both_lines(tmp_path):
    msg = expect_error(tmp_path, VALID_LINES + ["grid 4 4"], "duplicate grid")
    assert "line 10" in msg and "line 1" in msg


def test_wrong_arity_reports_line(tmp_path):
    lines = ["grid 3"] + VALID_LINES[1:]
    msg = expect_error(tmp_path, lines, "grid takes 2 value(s)")
    assert "line 1" in msg


def test_non_numeric_value_reports_line(tmp_path):
    lines = VALID_LINES[:1] + ["cell_size wide"] + VALID_LINES[2:]
    msg = expect_error(tmp_path, lines, "cell_size must be a number")
    assert "line 2" in msg


def test_missing_required_field(tmp_path):
    lines = [l for l in VALID_LINES if not l.startswith("altitude")]
    expect_error(tmp_path, lines, "missing required field 'altitude'")


def test_user_arity_error(tmp_path):
    lines = VALID_LINES + ["user 10 20 1 1"]
    expect_error(tmp_path, lines, "user takes 5 values")


def test_no_reward_source_rejected(tmp_path):
    lines = [l for l in VALID_LINES if not l.startswith("uniform_reward")]
    expect_error(tmp_path, lines, "no user lines and no uniform_reward")


def test_cell_outside_grid_reports_line(tmp_path):
    lines = [l if not l.startswith("terminal") else "terminal 3 1" for l in VALID_LINES]
    msg = expect_error(tmp_path, lines, "terminal cell (3, 1) outside 3x3 grid")
    assert "line 7" in msg


def test_start_equals_terminal_rejected(tmp_path):
    lines = [l if not l.startswith("terminal") else "terminal 0 0" for l in VALID_LINES]
    expect_error(tmp_path, lines, "terminal cell equals start cell")


def test_budget_below_distance_reports_line(tmp_path):
    lines = [l if not l.startswith("max_steps") else "max_steps 3" for l in VALID_LINES]
    msg = expect_error(tmp_path, lines, "below start-terminal Manhattan distance")
    assert "line 8" in msg


def test_oversubscribed_bandwidth_reports_offending_user_line(tmp_path):
    lines = [l for l in VALID_LINES if not l.startswith("uniform_reward")]
    lines += ["user 10 20 1 1 6e6", "user 30 40 1 1 6e6"]
    msg = expect_error(tmp_path, lines, "exceeds total bandwidth")
    assert "line 10" in msg


def test_positive_boundary_penalty_rejected(tmp_path):
    expect_error(tmp_path, VALID_LINES + ["boundary_penalty 0.5"], "must be <= 0")


def edit(*changes):
    """VALID_LINES with each change in place of the line of its keyword, or
    appended when there is none (user lines always are); a bare keyword
    deletes its line."""
    lines = list(VALID_LINES)
    for change in changes:
        key, *values = change.split()
        at = next((n for n, line in enumerate(lines) if line.split()[0] == key), None)
        if not values:
            del lines[at]
        elif at is None or key == "user":
            lines.append(change)
        else:
            lines[at] = change
    return lines


@pytest.mark.parametrize(
    "changes, fragment, line",
    [
        pytest.param(["grid 1 3"], "at least 2 cells per side", 1, id="grid n1"),
        pytest.param(["grid 3 1"], "at least 2 cells per side", 1, id="grid n2"),
        pytest.param(["cell_size 0"], "cell_size must be positive", 2, id="cell_size"),
        pytest.param(["altitude -1"], "altitude must be positive", 3, id="altitude"),
        pytest.param(["carrier_freq 0"], "carrier_freq must be positive", 4, id="carrier_freq"),
        pytest.param(["bandwidth 0"], "bandwidth must be positive", 5, id="bandwidth"),
        pytest.param(["start 5 0"], "start cell (5, 0) outside 3x3 grid", 6, id="start outside"),
        pytest.param(["terminal 3 1"], "terminal cell (3, 1) outside 3x3 grid", 7, id="terminal outside"),
        pytest.param(["terminal 0 0"], "terminal cell equals start cell", 7, id="start is terminal"),
        pytest.param(["max_steps 3"], "below start-terminal Manhattan distance 4", 8, id="budget"),
        pytest.param(["max_steps 2000000000"], "exceeds the planner cap", 8, id="planner cap"),
        pytest.param(["uniform_reward 0"], "uniform_reward must be positive", 9, id="uniform_reward"),
        pytest.param(["boundary_penalty 0.5"], "boundary_penalty must be <= 0", 10, id="boundary_penalty"),
        pytest.param(["user 10 20 0 1 2e6"], "user tx_power must be positive", 10, id="user tx_power"),
        pytest.param(["user 10 20 1 -1 2e6"], "user noise_power must be positive", 10, id="user noise_power"),
        pytest.param(["user 10 20 1 1 0"], "user bandwidth must be positive", 10, id="user bandwidth"),
        pytest.param(
            ["user 10 20 1 1 6e6", "user 30 40 1 1 6e6"], "exceeds total bandwidth", 11, id="bandwidth sum"
        ),
        pytest.param(["uniform_reward"], "no user lines and no uniform_reward", None, id="no reward source"),
    ],
)
def test_range_rule_reports_line(tmp_path, changes, fragment, line):
    """Every range rule of the config dataclasses, reported at the line that
    supplied the value (None: a rule about the file as a whole)."""
    msg = expect_error(tmp_path, edit(*changes), fragment)
    if line is None:
        assert ", line " not in msg
    else:
        assert f"line {line}:" in msg


@pytest.mark.parametrize(
    "malformed, fragment, line",
    [
        ("grid 3", "grid takes 2 value(s), got 1", 1),
        ("max_steps four", "max_steps must be an integer, got 'four'", 7),
    ],
    ids=["arity", "number"],
)
def test_malformed_line_is_reported_before_a_missing_keyword(tmp_path, malformed, fragment, line):
    """Each line is checked as it is read; a missing required keyword (here
    altitude) is reported only once the whole file has been read."""
    msg = expect_error(tmp_path, edit("altitude", malformed), fragment)
    assert f"line {line}:" in msg


def test_grid_too_small_rejected(tmp_path):
    lines = ["grid 1 3"] + VALID_LINES[1:]
    expect_error(tmp_path, lines, "at least 2 cells per side")


@pytest.mark.parametrize(
    "bad, line",
    [
        ("cell_size nan", 2),
        ("bandwidth inf", 5),
        ("uniform_reward inf", 9),
        ("boundary_penalty -inf", 10),
        ("user 10 20 inf 1 2e6", 10),
        ("altitude -inf", 3),
        ("origin nan 10", 10),
        ("origin 10 inf", 10),
        ("carrier_freq nan", 4),
        ("uniform_reward -inf", 9),
        ("boundary_penalty nan", 10),
        ("user nan 20 1 1 2e6", 10),
        ("user 10 -inf 1 1 2e6", 10),
        ("user 10 20 1 nan 2e6", 10),
        ("user 10 20 1 1 inf", 10),
    ],
)
def test_non_finite_value_reports_line(tmp_path, bad, line):
    key = bad.split()[0]
    lines = [bad if l.startswith(key + " ") else l for l in VALID_LINES]
    if bad not in lines:
        lines.append(bad)
    # the parser checks syntax only; the rule of the dataclass that holds the value refuses it
    msg = expect_error(tmp_path, lines, "finite")
    assert f"line {line}:" in msg


@st.composite
def fuzzed_layouts(draw):
    """A shipped layout with one token replaced by a drawn string, or with
    drawn bytes spliced in."""
    shipped = draw(st.sampled_from([TINY_LAYOUT, DESK_LAYOUT])).read_bytes()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(shipped)))
        return shipped[:at] + draw(st.binary(min_size=1)) + shipped[at:]
    lines = shipped.decode().splitlines()
    n = draw(st.integers(0, len(lines) - 1))
    tokens = lines[n].split(" ")
    k = draw(st.integers(0, len(tokens) - 1))
    tokens[k] = draw(st.one_of(st.text(), st.integers(-10, 10**6).map(str), st.floats().map(repr)))
    lines[n] = " ".join(tokens)
    return "\n".join(lines).encode()


@settings(max_examples=300, deadline=None)
@given(fuzzed_layouts())
def test_fuzzed_layout_yields_config_or_layout_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzzed_layout.txt"
    path.write_bytes(data)
    try:
        assert isinstance(parse_layout(path), EnvConfig)
    except LayoutError as err:
        assert str(path) in str(err)
