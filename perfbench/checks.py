"""Output checks that the benchmark makes apart from the program.

Every check takes plain data (event tuples, counts, arrays) and returns a
list of problems, empty when the check passes, so that the tests can feed
each one a doctored input.  Nothing here calls into stopgo except
`facts_from_sim`, which reads a finished `Simulation` into that plain form.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class RolloutFacts:
    """What one finished rollout left behind, in plain values."""
    label: str
    events: list               # (time, event_type, vehicle_ids, location, extra)
    spawned: int
    departed: int
    collided: int
    collision_events: int
    collision_removed: int
    remaining: list            # (id, lane, position, length, collided) at the horizon
    arrivals: int              # arrivals the schedule puts at or before the horizon
    fully_signalized: bool


def facts_from_sim(sim, label: str) -> RolloutFacts:
    schedule = sim.schedule
    horizon = sim.clock
    arrivals = sum(1 for k in range(schedule.total_vehicles)
                   if schedule.arrival_time(k) <= horizon)
    summary = sim.summary()
    return RolloutFacts(
        label=label,
        events=[(e.time, e.event_type, tuple(e.vehicle_ids), e.location, e.extra)
                for e in sim.events],
        spawned=summary.spawned, departed=summary.departed,
        collided=summary.collided, collision_events=summary.collision_events,
        collision_removed=sim.collision_removed,
        remaining=[(v.id, v.lane, v.position, v.length, v.collided_at is not None)
                   for v in sim.vehicles.values()],
        arrivals=arrivals,
        fully_signalized=all(i.control == "signalized"
                             for i in sim.net.intersections))


def rollout_problems(f: RolloutFacts) -> list[str]:
    """Counts against the event log, conservation, and the horizon state."""
    problems = []
    by_type = defaultdict(list)
    for event in f.events:
        by_type[event[1]].append(event)
    collided_at: dict[str, float] = {}
    for time, _, ids, _, _ in by_type["Collision"]:
        for vid in ids:
            collided_at.setdefault(vid, time)

    if len(by_type["Spawn"]) != f.spawned:
        problems.append(f"{len(by_type['Spawn'])} Spawn events, summary says "
                        f"spawned={f.spawned}")
    if len(by_type["Departure"]) != f.departed:
        problems.append(f"{len(by_type['Departure'])} Departure events, summary "
                        f"says departed={f.departed}")
    if len(collided_at) != f.collided:
        problems.append(f"{len(collided_at)} distinct ids in Collision events, "
                        f"summary says collided={f.collided}")
    if len(by_type["Collision"]) != f.collision_events:
        problems.append(f"{len(by_type['Collision'])} Collision events, summary "
                        f"says collision_events={f.collision_events}")
    for time, _, ids, _, _ in by_type["Departure"]:
        for vid in ids:
            if vid in collided_at and collided_at[vid] <= time:
                problems.append(f"{vid} departs at t={time:.1f} after colliding "
                                f"at t={collided_at[vid]:.1f}")
    in_network = len(f.remaining)
    if f.spawned != f.departed + f.collision_removed + in_network:
        problems.append(f"spawned={f.spawned} != departed={f.departed} + "
                        f"collision_removed={f.collision_removed} + "
                        f"in_network={in_network}")
    if f.spawned > f.arrivals:
        problems.append(f"spawned={f.spawned} exceeds the {f.arrivals} arrivals "
                        f"scheduled before the horizon")
    for before, after in zip(f.events, f.events[1:]):
        if after[0] < before[0]:
            problems.append(f"event time falls from {before[0]} to {after[0]}")
            break
    lanes = defaultdict(list)
    for vid, lane, position, length, collided in f.remaining:
        lanes[lane].append((position, length, collided, vid))
    for lane, vehicles in sorted(lanes.items()):
        vehicles.sort(reverse=True)
        for lead, follower in zip(vehicles, vehicles[1:]):
            if lead[2] or follower[2]:
                continue
            gap = lead[0] - lead[1] - follower[0]
            if gap < 0.0:
                problems.append(f"healthy {follower[3]} overlaps {lead[3]} on "
                                f"{lane} by {-gap:.3f} m at the horizon")
    return [f"{f.label}: {p}" for p in problems]


def signalized_collision(f: RolloutFacts) -> str | None:
    """The check 'a fully signalized grid records no collision'; returns a
    description of what was recorded when it fails."""
    if not f.fully_signalized:
        return None
    hits = [e for e in f.events if e[1] == "Collision"]
    if not hits:
        return None
    kinds = Counter(e[4] for e in hits)
    first = hits[0]
    return (f"{f.label}: fully signalized grid records {len(hits)} collision "
            f"events ({', '.join(f'{n} {k}' for k, n in sorted(kinds.items()))}), "
            f"the first at t={first[0]:.1f} s on {first[3]}")


def sweep_problems(rows, configs, rv_rates, demands, remove_lefts: bool,
                   rollouts: int, base_seed: int) -> list[str]:
    """Row order, row seeds and the collision rate of every sweep row."""
    expected = []
    cell = 0
    for label in configs:
        for rate in rv_rates:
            for demand in demands:
                for k in range(rollouts):
                    expected.append((label, rate, demand, remove_lefts,
                                     base_seed + cell * rollouts + k))
                cell += 1
    got = [(r.config, r.rv_rate, r.demand, r.left_turns_removed, r.seed)
           for r in rows]
    problems = []
    if got != expected:
        first = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                     min(len(got), len(expected)))
        problems.append(f"sweep rows differ from canonical order at row {first}: "
                        f"{len(got)} rows, expected {len(expected)}")
    for r in rows:
        if r.n_departed > 0:
            if r.collision_rate != r.n_collided / r.n_departed:
                problems.append(f"row seed {r.seed}: collision_rate "
                                f"{r.collision_rate!r} != {r.n_collided}/"
                                f"{r.n_departed}")
        elif not math.isnan(r.collision_rate):
            problems.append(f"row seed {r.seed}: nothing departed but "
                            f"collision_rate is {r.collision_rate!r}")
    return problems


def brute_force_projection(values, masses, support) -> np.ndarray:
    """C51 projection one atom at a time: clip each target value to the
    support and split its mass between the two neighbouring atoms."""
    support = [float(z) for z in support]
    v_min, v_max = support[0], support[-1]
    dz = (v_max - v_min) / (len(support) - 1)
    out = np.zeros((len(values), len(support)))
    for row, (vs, ms) in enumerate(zip(values, masses)):
        for value, mass in zip(vs, ms):
            clipped = min(max(float(value), v_min), v_max)
            b = min(max((clipped - v_min) / dz, 0.0), len(support) - 1.0)
            lo, hi = math.floor(b), math.ceil(b)
            if lo == hi:
                out[row, lo] += mass
            else:
                out[row, lo] += mass * (hi - b)
                out[row, hi] += mass * (b - lo)
    return out


def projection_problems(values, masses, support, projected,
                        tolerance: float = 1e-9) -> list[str]:
    expected = brute_force_projection(values, masses, support)
    worst = float(np.max(np.abs(np.asarray(projected) - expected)))
    if not worst <= tolerance:
        return [f"categorical_projection differs from the brute-force "
                f"projection by {worst:.3e}"]
    return []


def is_weight_problems(weights) -> list[str]:
    w = np.asarray(weights, dtype=np.float64)
    problems = []
    if not np.all((w > 0.0) & (w <= 1.0)):
        problems.append(f"IS weights outside (0, 1]: min {w.min()!r}, "
                        f"max {w.max()!r}")
    if w.size and w.max() != 1.0:
        problems.append(f"largest IS weight is {w.max()!r}, not 1")
    return problems


def relu_pattern(params, x) -> list[np.ndarray]:
    """Which trunk units are active for each row of x."""
    pattern = []
    h = x
    depth = 0
    while f"W{depth}" in params:
        pre = h @ params[f"W{depth}"] + params[f"b{depth}"]
        pattern.append(pre > 0.0)
        h = np.maximum(pre, 0.0)
        depth += 1
    return pattern


def gradient_problems(loss, params, grads, coordinates, x, eps: float = 1e-5,
                      rtol: float = 1e-4, atol: float = 1e-8) -> list[str]:
    """Central differences of loss(params) against grads at the given
    (key, flat index) coordinates.  A coordinate whose +-eps step flips a
    trunk unit on or off sits on a kink, where differences mean nothing;
    it is reported as skipped, not as a failure."""
    problems = []
    checked = 0
    for key, index in coordinates:
        flat = params[key].reshape(-1)
        keep = flat[index]
        base = relu_pattern(params, x)
        flat[index] = keep + eps
        up, up_pattern = loss(params), relu_pattern(params, x)
        flat[index] = keep - eps
        down, down_pattern = loss(params), relu_pattern(params, x)
        flat[index] = keep
        if any(not (np.array_equal(a, b) and np.array_equal(a, c))
               for a, b, c in zip(base, up_pattern, down_pattern)):
            continue
        checked += 1
        fd = (up - down) / (2 * eps)
        g = float(grads[key].reshape(-1)[index])
        if not abs(g - fd) <= atol + rtol * (abs(g) + abs(fd)):
            problems.append(f"d loss / d {key}[{index}]: backprop {g!r}, "
                            f"central difference {fd!r}")
    if checked == 0:
        problems.append("no gradient coordinate could be checked")
    return problems
