"""Fixed references for what training writes and draws.

Check 10 only compares two runs of the same code, so a training loop that
drifts one ulp, or draws one uniform too many, would pass it. Here the
SHA-256 of `episodes.csv` and `trajectory.csv` is pinned per agent kind on
two short recipes: a change meant to keep the outputs byte-identical must
leave these digests unedited. The second test holds the draw contract over a
whole `train`: one uniform per select for qirl and ql_boltz, two for ql_eps.
"""

import hashlib

import pytest

from qirl_uav import cli
from qirl_uav.agents import (
    ExplorationSchedule,
    QiRLAgent,
    QiRLConfig,
    QLearningAgent,
    default_boltzmann_schedule,
)
from qirl_uav.harness import UNIFORM_BLOCK, make_rng, train

from conftest import DESK_LAYOUT, TINY_LAYOUT

# The acceptance gate's per-agent flags: check 07 on the 3x3 layout, 08a-08c on the 10x10 one.
TINY_FLAGS = {
    "qirl": ("--alpha", "0.5", "--k-plus", repr(1 / 3), "--k-minus", repr(-1 / 3), "--p-floor", "0.01"),
    "ql_eps": ("--alpha", "0.5", "--gamma", "0.9", "--explore-floor", "0.05"),
    "ql_boltz": ("--alpha", "0.5"),
}
DESK_FLAGS = {
    "qirl": (),
    "ql_eps": ("--alpha", "0.5", "--gamma", "0.8", "--explore-floor", "0.05"),
    "ql_boltz": ("--alpha", "0.5", "--gamma", "0.8"),
}
RECIPES = {
    "tiny": (TINY_LAYOUT, "2000", "0,1,2", TINY_FLAGS),
    "desk": (DESK_LAYOUT, "50", "0,1", DESK_FLAGS),
}

# (episodes.csv, trajectory.csv) digests per recipe and agent kind.
GOLDEN_OUTPUTS = {
    ("tiny", "qirl"): (
        "f6f7d6226c5dfb1452857b758db795f22b58d4cc5f4afb89d1384690a92b6cd8",
        "d407ec80bcc37c1f7649334573769a07873033877283a19ee12775e0cb48d5dd",
    ),
    ("tiny", "ql_eps"): (
        "c10d44139b0a8f0f96e02152d93b40fe149580d1b9e8d50569671b8da22e6400",
        "8c61558583e4af2782b89641dbaac5d6a2c49cee704453568e42e669a660a0f6",
    ),
    ("tiny", "ql_boltz"): (
        "c3b1f815b37ee6527544952c8cfcc7930426b31110a44ead0ebb1276d68d319b",
        "d6fde39ab9bcf56f05a0df94c5081f32549c229153bec5ceeb8a63130843abc6",
    ),
    ("desk", "qirl"): (
        "708b582b0a7da877bb7a1aea76ddf7d12c465e64d5e892d6e3d786fce885bdb6",
        "920e057dc6d2fe3be7fdd58e9fa393baaf1a8dcf84b5ab9f44408de305ad9d7b",
    ),
    ("desk", "ql_eps"): (
        "16bc17fcd3600361caace5b42c343768b458a8a5fd15f9682ad95bcd9707c614",
        "b8e8ed88d37b63c06dcd0ae073e8686913bb90ace2f63e30783f0beb8f0970b2",
    ),
    ("desk", "ql_boltz"): (
        "2f241b14ec457bf341f568e6774319c4494a6f321253c8abcf34d9652ea1dcab",
        "7b93b2d624de1534a3607270bc5dbb09527ac14a7e28b82211b6cb22e754e5d5",
    ),
}


@pytest.mark.parametrize("recipe, kind", list(GOLDEN_OUTPUTS), ids="-".join)
def test_training_outputs_are_golden(tmp_path, recipe, kind):
    layout, episodes, seeds, flags = RECIPES[recipe]
    argv = ["run", "--config", str(layout), "--agent", kind, "--episodes", episodes, "--seeds", seeds]
    assert cli.main([*argv, "--out", str(tmp_path), *flags[kind]]) == cli.EXIT_OK
    files = (tmp_path / "episodes.csv", tmp_path / "trajectory.csv")
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest() for path in files)
    assert digests == GOLDEN_OUTPUTS[recipe, kind]


def philox_draws(rng) -> int:
    """Uniforms consumed so far, read from the Philox counter: each counter
    step yields a block of four 64-bit outputs."""
    state = rng.bit_generator.state
    return int(state["state"]["counter"][0]) * 4 + int(state["buffer_pos"]) - 4


AGENTS = {
    "qirl": (1, lambda env: QiRLAgent(env, QiRLConfig(alpha=0.5, k_plus=1 / 3, k_minus=-1 / 3, p_floor=0.01))),
    "ql_eps": (2, lambda env: QLearningAgent(env, ExplorationSchedule("epsilon_greedy", 1.0, 0.995, 0.05), 0.5, 0.9)),
    "ql_boltz": (1, lambda env: QLearningAgent(env, default_boltzmann_schedule(env.terminal_bonus), alpha=0.5)),
}


@pytest.mark.parametrize("kind", list(AGENTS))
def test_train_draws_a_fixed_count_per_select(tiny_env, desk_env, kind):
    """Both budget cuts (desk) and terminal entries (tiny) end episodes here."""
    per_select, make = AGENTS[kind]
    for env, episodes in ((tiny_env, 300), (desk_env, 3)):
        for seed in (0, 1):
            rng = make_rng(seed)
            logs = train(env, make(env), episodes, rng)
            assert philox_draws(rng) == per_select * sum(logs.steps)


def test_train_draws_a_fixed_count_across_uniform_blocks(desk_env):
    """train serves uniforms from blocks of UNIFORM_BLOCK; the cases above
    stay inside the first block, while ten desk episodes of ql_eps cross
    several block edges and must still leave two draws per select."""
    per_select, make = AGENTS["ql_eps"]
    rng = make_rng(0)
    logs = train(desk_env, make(desk_env), 10, rng)
    draws = philox_draws(rng)
    assert draws == per_select * sum(logs.steps)
    assert draws > 2 * UNIFORM_BLOCK and draws % UNIFORM_BLOCK != 0
