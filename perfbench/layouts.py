"""Seeded layout generator for the `plan_large` workload.

A layout is a deterministic function of (layout_seed, side, users, horizon),
drawn with the standard library's Mersenne Twister so the text does not
depend on the numpy version. Every emitted layout satisfies the invariants
`parse_layout` enforces: user bandwidths are whole hertz that sum to at most
`bandwidth`, start and terminal differ, and the step budget covers their
Manhattan distance.
"""

from __future__ import annotations

import random

CELL_SIZE = 20.0
ALTITUDE = 100.0
CARRIER_FREQ = 2e9
BANDWIDTH_HZ = 10_000_000


def generate_layout(layout_seed: int, side: int, users: int, horizon: int) -> str:
    """Return the text of a `side` x `side` layout with `users` ground users
    scattered uniformly over the service area and a step budget of `horizon`."""
    if side < 2 or users < 1 or users > BANDWIDTH_HZ:
        raise ValueError(f"bad generator size: side {side}, users {users}")
    rng = random.Random(layout_seed)
    start = (rng.randrange(side), rng.randrange(side))
    terminal = start
    while terminal == start:
        terminal = (rng.randrange(side), rng.randrange(side))
    distance = abs(start[0] - terminal[0]) + abs(start[1] - terminal[1])
    if horizon < distance:
        raise ValueError(f"horizon {horizon} below start-terminal distance {distance}")

    extent = side * CELL_SIZE
    share = BANDWIDTH_HZ // users  # whole hertz, so the sum cannot round past the total
    lines = [
        f"# generated: layout_seed {layout_seed}, {side}x{side} cells, {users} users, horizon {horizon}",
        f"grid {side} {side}",
        f"cell_size {CELL_SIZE!r}",
        f"altitude {ALTITUDE!r}",
        f"carrier_freq {CARRIER_FREQ!r}",
        f"bandwidth {BANDWIDTH_HZ}",
        f"start {start[0]} {start[1]}",
        f"terminal {terminal[0]} {terminal[1]}",
        f"max_steps {horizon}",
    ]
    for _ in range(users):
        x = round(rng.uniform(0.0, extent), 3)
        y = round(rng.uniform(0.0, extent), 3)
        tx_power = round(rng.uniform(0.2, 2.0), 4)
        bw = rng.randint(share // 2, share)
        lines.append(f"user {x!r} {y!r} {tx_power!r} 1.0 {bw}")
    return "\n".join(lines) + "\n"
