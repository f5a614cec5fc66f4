"""Road network model: topology types, text format, grid generator, transforms.

A network is a set of intersections joined by directed single-lane links.
Movements connect an entry lane to an exit lane across an intersection and
carry a turn direction; pairs of movements whose paths cross or merge inside
the intersection box are recorded in a symmetric conflict relation. Routes
are lane chains from a boundary entry to a boundary exit.

Networks are treated as immutable after construction, so any number of
rollouts may share one. Running those rollouts in worker processes is not
a drop-in change, though: see `metrics.run_sweep`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace

LEFT = "left"
STRAIGHT = "straight"
RIGHT = "right"
TURNS = (LEFT, STRAIGHT, RIGHT)

SIGNALIZED = "signalized"
UNSIGNALIZED = "unsignalized"


class NetworkError(Exception):
    """A structural invariant of the network is violated."""


class ParseError(Exception):
    """The network document is syntactically malformed."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Lane:
    id: str
    length: float
    speed_limit: float
    downstream_intersection: str | None = None


@dataclass(frozen=True)
class Movement:
    id: str
    from_lane: str
    to_lane: str
    turn: str


@dataclass(frozen=True)
class Phase:
    duration: float
    permitted_movements: frozenset[str]


@dataclass(frozen=True)
class SignalPlan:
    phases: tuple[Phase, ...]

    @property
    def cycle_length(self) -> float:
        return sum(p.duration for p in self.phases)


@dataclass(frozen=True)
class Intersection:
    id: str
    control: str
    conflict_zone_id: str
    plan: SignalPlan | None = None


@dataclass(frozen=True)
class Route:
    id: str
    lane_chain: tuple[str, ...]


@dataclass
class Network:
    """Immutable road topology plus derived lookup indexes.

    The comparable fields are the declarative content; the index attributes
    are rebuilt from them in ``__post_init__`` and excluded from equality.
    """

    intersections: tuple[Intersection, ...]
    lanes: tuple[Lane, ...]
    movements: tuple[Movement, ...]
    conflict_pairs: tuple[tuple[str, str], ...]  # normalized: a < b, unique
    routes: tuple[Route, ...]

    lane_by_id: dict = field(init=False, compare=False, repr=False)
    intersection_by_id: dict = field(init=False, compare=False, repr=False)
    movement_by_id: dict = field(init=False, compare=False, repr=False)
    movement_by_lanes: dict = field(init=False, compare=False, repr=False)
    movements_from_lane: dict = field(init=False, compare=False, repr=False)
    incoming_lanes: dict = field(init=False, compare=False, repr=False)
    conflict_sets: dict = field(init=False, compare=False, repr=False)
    route_by_id: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        self.lane_by_id = {l.id: l for l in self.lanes}
        self.intersection_by_id = {i.id: i for i in self.intersections}
        self.movement_by_id = {m.id: m for m in self.movements}
        self.movement_by_lanes = {(m.from_lane, m.to_lane): m for m in self.movements}
        self.movements_from_lane = {}
        for m in self.movements:
            self.movements_from_lane.setdefault(m.from_lane, []).append(m)
        self.incoming_lanes = {i.id: [] for i in self.intersections}
        for l in self.lanes:
            if l.downstream_intersection is not None:
                if l.downstream_intersection in self.incoming_lanes:
                    self.incoming_lanes[l.downstream_intersection].append(l.id)
        self.conflict_sets = {m.id: set() for m in self.movements}
        for a, b in self.conflict_pairs:
            if a in self.conflict_sets and b in self.conflict_sets:
                self.conflict_sets[a].add(b)
                self.conflict_sets[b].add(a)
        self.route_by_id = {r.id: r for r in self.routes}

    def conflicts(self, m1: str, m2: str) -> bool:
        return m2 in self.conflict_sets.get(m1, ())

    def intersection_of_movement(self, movement_id: str) -> str | None:
        m = self.movement_by_id[movement_id]
        return self.lane_by_id[m.from_lane].downstream_intersection

    def movements_at(self, intersection_id: str) -> list[Movement]:
        out = []
        for lane_id in self.incoming_lanes[intersection_id]:
            out.extend(self.movements_from_lane.get(lane_id, ()))
        return out


def normalize_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate_network(net: Network) -> None:
    """Check every structural invariant; raise NetworkError naming the first violation."""
    seen = set()
    for coll, label in ((net.intersections, "intersection"), (net.lanes, "lane"),
                        (net.movements, "movement"), (net.routes, "route")):
        for item in coll:
            if item.id in seen:
                raise NetworkError(f"duplicate id {item.id!r} ({label})")
            seen.add(item.id)

    for l in net.lanes:
        if not 0 < l.length < math.inf:
            raise NetworkError(f"lane {l.id!r} has length {l.length}, "
                               "not a positive finite number")
        if not 0 < l.speed_limit < math.inf:
            raise NetworkError(f"lane {l.id!r} has speed limit {l.speed_limit}, "
                               "not a positive finite number")
        if l.downstream_intersection is not None and \
                l.downstream_intersection not in net.intersection_by_id:
            raise NetworkError(
                f"lane {l.id!r} references undefined intersection "
                f"{l.downstream_intersection!r}")

    for m in net.movements:
        for lane_id in (m.from_lane, m.to_lane):
            if lane_id not in net.lane_by_id:
                raise NetworkError(f"movement {m.id!r} references undefined lane {lane_id!r}")
        if m.from_lane == m.to_lane:
            raise NetworkError(f"movement {m.id!r} has identical entry and exit lane")
        if m.turn not in TURNS:
            raise NetworkError(f"movement {m.id!r} has unknown turn {m.turn!r}")
        if net.lane_by_id[m.from_lane].downstream_intersection is None:
            raise NetworkError(
                f"movement {m.id!r} starts on lane {m.from_lane!r} "
                "which has no downstream intersection")

    for a, b in net.conflict_pairs:
        if a == b:
            raise NetworkError(f"conflict pair ({a!r}, {b!r}) is reflexive")
        for mid in (a, b):
            if mid not in net.movement_by_id:
                raise NetworkError(f"conflict pair references undefined movement {mid!r}")

    for i in net.intersections:
        if i.control not in (SIGNALIZED, UNSIGNALIZED):
            raise NetworkError(f"intersection {i.id!r} has unknown control {i.control!r}")
        if i.control == SIGNALIZED:
            if i.plan is None or not i.plan.phases:
                raise NetworkError(f"signalized intersection {i.id!r} has no signal plan")
            covered = set()
            for pi, phase in enumerate(i.plan.phases):
                if not 0 < phase.duration < math.inf:
                    raise NetworkError(
                        f"intersection {i.id!r} phase {pi} has duration "
                        f"{phase.duration}, not a positive finite number")
                perm = sorted(phase.permitted_movements)
                for mid in perm:
                    if mid not in net.movement_by_id:
                        raise NetworkError(
                            f"intersection {i.id!r} phase {pi} permits "
                            f"undefined movement {mid!r}")
                    if net.intersection_of_movement(mid) != i.id:
                        raise NetworkError(
                            f"intersection {i.id!r} phase {pi} permits movement "
                            f"{mid!r} of another intersection")
                for x in range(len(perm)):
                    for y in range(x + 1, len(perm)):
                        if net.conflicts(perm[x], perm[y]):
                            raise NetworkError(
                                f"intersection {i.id!r} phase {pi} permits "
                                f"conflicting movements {perm[x]!r} and {perm[y]!r}")
                covered |= phase.permitted_movements
            local = {m.id for m in net.movements_at(i.id)}
            missing = local - covered
            if missing:
                raise NetworkError(
                    f"intersection {i.id!r} plan never serves movement(s) "
                    f"{sorted(missing)}")
        elif i.plan is not None:
            raise NetworkError(f"unsignalized intersection {i.id!r} carries a signal plan")

    for r in net.routes:
        if not r.lane_chain:
            raise NetworkError(f"route {r.id!r} is empty")
        for lane_id in r.lane_chain:
            if lane_id not in net.lane_by_id:
                raise NetworkError(f"route {r.id!r} references undefined lane {lane_id!r}")
        for a, b in zip(r.lane_chain, r.lane_chain[1:]):
            joining = [m for m in net.movements_from_lane.get(a, ()) if m.to_lane == b]
            if len(joining) != 1:
                raise NetworkError(
                    f"route {r.id!r}: lanes {a!r} -> {b!r} joined by "
                    f"{len(joining)} movements (need exactly 1)")


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------
#
# Line-oriented sections, one section per object:
#
#   [intersection]           [lane]                  [movement]
#   id = J0                  id = L_BN0_J0           id = M_J0_n_left
#   control = signalized     length = 120.0          from = L_BN0_J0
#   conflict_zone = CZ_J0    speed_limit = 13.9      to = L_J0_BE0
#                            downstream = J0         turn = left
#
#   [conflict]               [phase]                 [route]
#   a = M_J0_n_left          intersection = J0       id = R0
#   b = M_J0_s_straight      duration = 15.0         lanes = L_BN0_J0, L_J0_BS0
#                            movements = M1, M2
#
# Keys are `name = value`; ids are ASCII identifiers; units are SI. Blank
# lines and `#` comments are ignored. Files are UTF-8 with LF endings.

_SECTIONS = ("intersection", "lane", "movement", "conflict", "phase", "route")


def _ident_ok(s: str) -> bool:
    return s.isascii() and s.replace("_", "").isalnum() and bool(s)


def parse_network(text: str) -> Network:
    """Parse a network document, returning a validated Network.

    Raises ParseError for malformed syntax (with line/column) and
    NetworkError for semantic violations (naming the offending id).
    """
    records: list[tuple[str, int, dict[str, tuple[str, int]]]] = []
    current: dict[str, tuple[str, int]] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno, len(raw.rstrip()))
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section [{name}]", lineno)
            current = {}
            records.append((name, lineno, current))
            continue
        if "=" not in line:
            raise ParseError("expected `key = value`", lineno, raw.find(line) + 1)
        if current is None:
            raise ParseError("key outside any section", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError("empty key", lineno)
        if key in current:
            raise ParseError(f"duplicate key {key!r} in section", lineno)
        current[key] = (value, lineno)

    def need(fields, key, section, lineno):
        if key not in fields:
            raise ParseError(f"[{section}] missing required key {key!r}", lineno)
        return fields[key][0]

    def fnum(fields, key, section, lineno, default=None):
        if key not in fields:
            if default is not None:
                return default
            raise ParseError(f"[{section}] missing required key {key!r}", lineno)
        value, vline = fields[key]
        try:
            return float(value)
        except ValueError:
            raise ParseError(f"{key!r} is not a number: {value!r}", vline) from None

    def ident(fields, key, section, lineno):
        value = need(fields, key, section, lineno)
        if not _ident_ok(value):
            raise ParseError(f"{key!r} is not a valid identifier: {value!r}",
                             fields[key][1])
        return value

    def id_list(fields, key, lineno):
        if key not in fields:
            return []
        value, vline = fields[key]
        if not value:
            return []
        items = [v.strip() for v in value.split(",")]
        for item in items:
            if not _ident_ok(item):
                raise ParseError(f"invalid identifier {item!r} in {key!r}", vline)
        return items

    intersections: list[dict] = []
    lanes: list[Lane] = []
    movements: list[Movement] = []
    conflicts: list[tuple[str, str]] = []
    phases_by_int: dict[str, list[Phase]] = {}
    routes: list[Route] = []

    for section, lineno, fields in records:
        if section == "intersection":
            iid = ident(fields, "id", section, lineno)
            control = need(fields, "control", section, lineno)
            if control not in (SIGNALIZED, UNSIGNALIZED):
                raise ParseError(f"control must be {SIGNALIZED} or {UNSIGNALIZED}, "
                                 f"got {control!r}", fields["control"][1])
            zone = fields.get("conflict_zone", (f"CZ_{iid}", lineno))[0]
            intersections.append({"id": iid, "control": control, "zone": zone})
        elif section == "lane":
            lanes.append(Lane(
                id=ident(fields, "id", section, lineno),
                length=fnum(fields, "length", section, lineno),
                speed_limit=fnum(fields, "speed_limit", section, lineno),
                downstream_intersection=fields.get("downstream", (None, 0))[0],
            ))
        elif section == "movement":
            turn = need(fields, "turn", section, lineno)
            if turn not in TURNS:
                raise ParseError(f"turn must be one of {TURNS}, got {turn!r}",
                                 fields["turn"][1])
            movements.append(Movement(
                id=ident(fields, "id", section, lineno),
                from_lane=ident(fields, "from", section, lineno),
                to_lane=ident(fields, "to", section, lineno),
                turn=turn,
            ))
        elif section == "conflict":
            a = ident(fields, "a", section, lineno)
            b = ident(fields, "b", section, lineno)
            conflicts.append(normalize_pair(a, b))
        elif section == "phase":
            iid = ident(fields, "intersection", section, lineno)
            phases_by_int.setdefault(iid, []).append(Phase(
                duration=fnum(fields, "duration", section, lineno),
                permitted_movements=frozenset(id_list(fields, "movements", lineno)),
            ))
        elif section == "route":
            chain = id_list(fields, "lanes", lineno)
            if not chain:
                raise ParseError("[route] missing non-empty `lanes`", lineno)
            routes.append(Route(id=ident(fields, "id", section, lineno),
                                lane_chain=tuple(chain)))

    built = []
    for spec in intersections:
        plan = None
        if spec["id"] in phases_by_int:
            plan = SignalPlan(phases=tuple(phases_by_int.pop(spec["id"])))
        built.append(Intersection(id=spec["id"], control=spec["control"],
                                  conflict_zone_id=spec["zone"], plan=plan))
    if phases_by_int:
        bad = sorted(phases_by_int)[0]
        raise NetworkError(f"phase references undefined intersection {bad!r}")

    net = Network(
        intersections=tuple(built),
        lanes=tuple(lanes),
        movements=tuple(movements),
        conflict_pairs=tuple(dict.fromkeys(conflicts)),
        routes=tuple(routes),
    )
    validate_network(net)
    return net


def serialize_network(net: Network) -> str:
    """Render a network back to the text format. Round-trips through parse_network."""
    out: list[str] = []

    def kv(key, value):
        out.append(f"{key} = {value}")

    for i in net.intersections:
        out.append("[intersection]")
        kv("id", i.id)
        kv("control", i.control)
        kv("conflict_zone", i.conflict_zone_id)
        out.append("")
    for l in net.lanes:
        out.append("[lane]")
        kv("id", l.id)
        kv("length", f"{l.length:g}")
        kv("speed_limit", f"{l.speed_limit:g}")
        if l.downstream_intersection is not None:
            kv("downstream", l.downstream_intersection)
        out.append("")
    for m in net.movements:
        out.append("[movement]")
        kv("id", m.id)
        kv("from", m.from_lane)
        kv("to", m.to_lane)
        kv("turn", m.turn)
        out.append("")
    for a, b in net.conflict_pairs:
        out.append("[conflict]")
        kv("a", a)
        kv("b", b)
        out.append("")
    for i in net.intersections:
        if i.plan is None:
            continue
        for phase in i.plan.phases:
            out.append("[phase]")
            kv("intersection", i.id)
            kv("duration", f"{phase.duration:g}")
            kv("movements", ", ".join(sorted(phase.permitted_movements)))
            out.append("")
    for r in net.routes:
        out.append("[route]")
        kv("id", r.id)
        kv("lanes", ", ".join(r.lane_chain))
        out.append("")
    return "\n".join(out)


def load_network(path) -> Network:
    with open(path, encoding="utf-8") as f:
        return parse_network(f.read())


def save_network(net: Network, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(serialize_network(net))


# ---------------------------------------------------------------------------
# Grid generator
# ---------------------------------------------------------------------------

# Approach sides in clockwise order. A vehicle approaching from side N heads
# south; its left turn exits east, straight exits south, right exits west.
_SIDES = ("N", "E", "S", "W")
_OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}
# approach side -> {turn: exit side}
_EXIT_SIDE = {
    "N": {LEFT: "E", STRAIGHT: "S", RIGHT: "W"},
    "S": {LEFT: "W", STRAIGHT: "N", RIGHT: "E"},
    "E": {LEFT: "S", STRAIGHT: "W", RIGHT: "N"},
    "W": {LEFT: "N", STRAIGHT: "E", RIGHT: "S"},
}


@dataclass(frozen=True)
class GridGeometry:
    """Shape and scalar geometry of a rectangular grid network."""
    rows: int
    cols: int
    block_length: float = 150.0   # lane length between adjacent intersections
    stub_length: float = 120.0    # boundary entry/exit lane length
    speed_limit: float = 13.9     # urban 50 km/h
    cycle_length: float = 60.0


def generate_grid(num_unsignalized: int, num_signalized: int,
                  geometry: GridGeometry) -> Network:
    """Build a rectangular grid of 4-way intersections.

    The first ``num_unsignalized`` intersections in row-major order are
    unsignalized; the rest run a fixed-time four-phase protected-turn plan
    with equal splits. Every intersection has 12 movements (left, straight,
    right per approach). Routes cover every reachable boundary entry/exit
    pair via breadth-first shortest paths.
    """
    total = num_unsignalized + num_signalized
    if num_unsignalized < 0 or num_signalized < 0 or total == 0:
        raise NetworkError("intersection counts must be non-negative and total > 0")
    rows, cols = geometry.rows, geometry.cols
    if rows < 1 or cols < 1 or rows * cols != total:
        raise NetworkError(
            f"grid {rows}x{cols} holds {rows * cols} intersections, "
            f"got {total}")

    def cell_index(r, c):
        return r * cols + c

    def exists(r, c):
        return 0 <= r < rows and 0 <= c < cols and cell_index(r, c) < total

    def node(r, c):
        return f"J{cell_index(r, c)}"

    # Neighbor node per side, or a boundary node name when the side is open.
    def side_node(r, c, side):
        dr, dc = {"N": (-1, 0), "S": (1, 0), "E": (0, 1), "W": (0, -1)}[side]
        nr, nc = r + dr, c + dc
        if exists(nr, nc):
            return node(nr, nc), True
        # Underscore-free so lane ids L_{u}_{v} split unambiguously.
        return f"B{side}{r}x{c}", False

    lanes: list[Lane] = []
    lane_ids = set()
    # (intersection, approach side) -> entry lane id; (intersection, exit side) -> exit lane id
    entry_lane: dict[tuple[str, str], str] = {}
    exit_lane: dict[tuple[str, str], str] = {}

    def add_lane(u, v, length, downstream):
        lid = f"L_{u}_{v}"
        if lid not in lane_ids:
            lane_ids.add(lid)
            lanes.append(Lane(id=lid, length=length,
                              speed_limit=geometry.speed_limit,
                              downstream_intersection=downstream))
        return lid

    cells = [(r, c) for r in range(rows) for c in range(cols) if exists(r, c)]
    for r, c in cells:
        j = node(r, c)
        for side in _SIDES:
            other, internal = side_node(r, c, side)
            length = geometry.block_length if internal else geometry.stub_length
            entry_lane[(j, side)] = add_lane(other, j, length, downstream=j)
            exit_lane[(j, side)] = add_lane(
                j, other, length,
                downstream=None if not internal else other)

    movements: list[Movement] = []
    conflicts: list[tuple[str, str]] = []
    phases_by_int: dict[str, tuple[Phase, ...]] = {}

    for r, c in cells:
        j = node(r, c)
        mid = {}
        for side in _SIDES:
            for turn in TURNS:
                m_id = f"M_{j}_{side.lower()}_{turn}"
                mid[(side, turn)] = m_id
                movements.append(Movement(
                    id=m_id,
                    from_lane=entry_lane[(j, side)],
                    to_lane=exit_lane[(j, _EXIT_SIDE[side][turn])],
                    turn=turn,
                ))
        # Crossing straights.
        for a in ("N", "S"):
            for b in ("E", "W"):
                conflicts.append(normalize_pair(mid[(a, STRAIGHT)], mid[(b, STRAIGHT)]))
        for side in _SIDES:
            opp = _OPPOSITE[side]
            # Left vs the straight it cuts across.
            conflicts.append(normalize_pair(mid[(side, LEFT)], mid[(opp, STRAIGHT)]))
            # Left vs the straight it merges into (shared exit lane).
            merge_src = next(s for s in _SIDES
                             if _EXIT_SIDE[s][STRAIGHT] == _EXIT_SIDE[side][LEFT])
            conflicts.append(normalize_pair(mid[(side, LEFT)], mid[(merge_src, STRAIGHT)]))
            # Right vs the crossing straight it merges across.
            merge_src = next(s for s in _SIDES
                             if _EXIT_SIDE[s][STRAIGHT] == _EXIT_SIDE[side][RIGHT])
            conflicts.append(normalize_pair(mid[(side, RIGHT)], mid[(merge_src, STRAIGHT)]))

        if cell_index(r, c) >= num_unsignalized:
            quarter = geometry.cycle_length / 4.0
            phases_by_int[j] = (
                Phase(quarter, frozenset({mid[("N", STRAIGHT)], mid[("S", STRAIGHT)],
                                          mid[("N", RIGHT)], mid[("S", RIGHT)]})),
                Phase(quarter, frozenset({mid[("N", LEFT)], mid[("S", LEFT)]})),
                Phase(quarter, frozenset({mid[("E", STRAIGHT)], mid[("W", STRAIGHT)],
                                          mid[("E", RIGHT)], mid[("W", RIGHT)]})),
                Phase(quarter, frozenset({mid[("E", LEFT)], mid[("W", LEFT)]})),
            )

    intersections = []
    for r, c in cells:
        j = node(r, c)
        signal = cell_index(r, c) >= num_unsignalized
        intersections.append(Intersection(
            id=j,
            control=SIGNALIZED if signal else UNSIGNALIZED,
            conflict_zone_id=f"CZ_{j}",
            plan=SignalPlan(phases_by_int[j]) if signal else None,
        ))

    net = Network(
        intersections=tuple(intersections),
        lanes=tuple(lanes),
        movements=tuple(movements),
        conflict_pairs=tuple(dict.fromkeys(conflicts)),
        routes=(),
    )
    net = replace(net, routes=_build_boundary_routes(net))
    validate_network(net)
    return net


def boundary_entry_lanes(net: Network) -> list[str]:
    """Lanes that enter the network from outside (no movement leads into them)."""
    fed = {m.to_lane for m in net.movements}
    return [l.id for l in net.lanes
            if l.downstream_intersection is not None and l.id not in fed]


def boundary_exit_lanes(net: Network) -> list[str]:
    """Lanes that leave the network (no downstream intersection)."""
    return [l.id for l in net.lanes if l.downstream_intersection is None]


def _lane_tree(net: Network, origin: str) -> dict[str, tuple[str | None, int]]:
    """Breadth-first tree of the lanes reachable from origin: lane ->
    (previous lane, hops). Each lane's movements are expanded in lane-id
    order, so of two equally short paths the one through smaller ids wins."""
    tree: dict[str, tuple[str | None, int]] = {origin: (None, 0)}
    frontier = deque([origin])
    while frontier:
        lane = frontier.popleft()
        hops = tree[lane][1] + 1
        for m in sorted(net.movements_from_lane.get(lane, ()),
                        key=lambda m: m.to_lane):
            if m.to_lane not in tree:
                tree[m.to_lane] = (lane, hops)
                frontier.append(m.to_lane)
    return tree


def _chain_to(tree: dict[str, tuple[str | None, int]],
              dest: str) -> tuple[str, ...]:
    chain = [dest]
    while tree[chain[-1]][0] is not None:
        chain.append(tree[chain[-1]][0])
    return tuple(reversed(chain))


def shortest_lane_path(net: Network, origin: str,
                       dest: str) -> tuple[str, ...] | None:
    """BFS shortest lane chain from origin lane to dest lane, deterministic
    tie-breaking by lane id; None when dest is unreachable."""
    tree = _lane_tree(net, origin)
    return _chain_to(tree, dest) if dest in tree else None


def _build_boundary_routes(net: Network) -> tuple[Route, ...]:
    exits = sorted(boundary_exit_lanes(net))
    routes = []
    for origin in sorted(boundary_entry_lanes(net)):
        tree = _lane_tree(net, origin)
        # Skip the immediate reversal back out the same boundary node.
        u_turn = "L_" + "_".join(reversed(origin.split("_")[1:3])) \
            if origin.count("_") == 2 else None
        for dest in exits:
            if dest != u_turn and dest in tree:
                routes.append(Route(id=f"R{len(routes)}",
                                    lane_chain=_chain_to(tree, dest)))
    return tuple(routes)


# ---------------------------------------------------------------------------
# Left-turn removal
# ---------------------------------------------------------------------------

def remove_left_turns(net: Network) -> Network:
    """Replace every left-turn movement with its straight counterpart.

    Routes that traversed a left turn keep their prefix up to the turn, take
    the straight movement from the same entry lane instead, and continue to
    their original destination by shortest path in the left-free network.
    Route count is preserved. Idempotent.
    """
    lefts = {m.id for m in net.movements if m.turn == LEFT}
    if not lefts:
        return net

    straight_from = {}
    for m in net.movements:
        if m.turn == STRAIGHT:
            straight_from[m.from_lane] = m
    for m in net.movements:
        if m.turn == LEFT and m.from_lane not in straight_from:
            iid = net.lane_by_id[m.from_lane].downstream_intersection
            raise NetworkError(
                f"intersection {iid!r}: left movement {m.id!r} has no straight "
                "counterpart on its approach")

    stripped = replace(
        net,
        intersections=tuple(
            i if i.plan is None else replace(i, plan=SignalPlan(tuple(
                replace(ph, permitted_movements=ph.permitted_movements - lefts)
                for ph in i.plan.phases)))
            for i in net.intersections),
        movements=tuple(m for m in net.movements if m.turn != LEFT),
        conflict_pairs=tuple(p for p in net.conflict_pairs
                             if p[0] not in lefts and p[1] not in lefts),
        routes=())
    exits = boundary_exit_lanes(stripped)

    trees: dict[str, dict] = {}   # continuation lane -> its lane tree
    new_routes = []
    for r in net.routes:
        chain = r.lane_chain
        rebuilt = list(chain[:1])
        idx = 0
        while idx + 1 < len(chain):
            m = net.movement_by_lanes[(chain[idx], chain[idx + 1])]
            if m.turn != LEFT:
                rebuilt.append(chain[idx + 1])
                idx += 1
                continue
            cont = straight_from[chain[idx]].to_lane
            if cont not in trees:
                trees[cont] = _lane_tree(stripped, cont)
            tree = trees[cont]
            dest = chain[-1]
            if dest not in tree:
                # Original destination unreachable without lefts (corner
                # approaches); keep the chain connected by running out to the
                # nearest boundary exit instead.
                reachable = [(tree[l][1], l) for l in exits if l in tree]
                if not reachable:
                    raise NetworkError(
                        f"no boundary exit reachable from lane {cont!r}")
                dest = min(reachable)[1]
            rebuilt.extend(_chain_to(tree, dest))
            break
        new_routes.append(Route(id=r.id, lane_chain=tuple(rebuilt)))

    out = replace(stripped, routes=tuple(new_routes))
    validate_network(out)
    return out
