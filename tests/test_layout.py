"""Layout file parsing: happy paths for the shipped files, line-attributed errors."""

import pytest

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
    assert (cfg.grid.n1, cfg.grid.n2) == (3, 3)
    assert cfg.uniform_reward == 1.0
    assert cfg.users == ()
    assert cfg.start_cell == (0, 0)
    assert cfg.terminal_cell == (2, 2)
    assert cfg.max_steps == 4


def test_parses_shipped_uplink_layout():
    cfg = parse_layout(DESK_LAYOUT)
    assert (cfg.grid.n1, cfg.grid.n2) == (10, 10)
    assert cfg.grid.cell_size == 20.0
    assert cfg.grid.altitude == 100.0
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
    assert (cfg.grid.origin.x, cfg.grid.origin.y) == (10.0, 10.0)


def test_explicit_origin_and_boundary_penalty(tmp_path):
    lines = VALID_LINES + ["origin 0 5", "boundary_penalty -0.25"]
    cfg = parse_layout(write_layout(tmp_path, lines))
    assert (cfg.grid.origin.x, cfg.grid.origin.y) == (0.0, 5.0)
    assert cfg.boundary_penalty == -0.25


def test_user_lines_parse_in_order(tmp_path):
    lines = [l for l in VALID_LINES if not l.startswith("uniform_reward")]
    lines += ["user 10 20 1 1 2e6", "user 30 40 2 0.5 3e6"]
    cfg = parse_layout(write_layout(tmp_path, lines))
    assert len(cfg.users) == 2
    assert (cfg.users[1].position.x, cfg.users[1].position.y) == (30.0, 40.0)
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


def test_nonpositive_scalars_rejected(tmp_path):
    for bad, fragment in [
        ("cell_size 0", "cell_size must be positive"),
        ("altitude -1", "altitude must be positive"),
        ("carrier_freq 0", "carrier_freq must be positive"),
        ("bandwidth 0", "bandwidth must be positive"),
        ("uniform_reward 0", "uniform_reward must be positive"),
    ]:
        key = bad.split()[0]
        lines = [bad if l.startswith(key) else l for l in VALID_LINES]
        expect_error(tmp_path, lines, fragment)


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
    ],
)
def test_non_finite_value_reports_line(tmp_path, bad, line):
    key = bad.split()[0]
    lines = [bad if l.startswith(key + " ") else l for l in VALID_LINES]
    if bad not in lines:
        lines.append(bad)
    msg = expect_error(tmp_path, lines, "must be finite")
    assert f"line {line}:" in msg
