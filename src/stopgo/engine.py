"""Deterministic discrete-time traffic world.

One rollout is a pure function of (network, demand, policy, seed): a fixed
0.1 s step advances signals, Stop/Go decisions, IDM accelerations,
positions, conflict-zone occupancy, collision detection, and departures in
a fixed order, so identical inputs give byte-identical event logs.

A step costs about what its traffic costs. The engine keeps the sorted
ids of the occupied lanes and walks only those. Each signalized
intersection's phase is looked up only from one step before its next phase
end or clearance start until that boundary has passed; the permitted sets
are kept in between. Threat lanes are tabled per movement at construction.
Wrecks are kept in collision order, so dwell expiry reads only the wrecks.
Without a transition sink no decision is kept open and no reward is
computed. No stop-line hold is evaluated for a vehicle whose leader stands
no farther ahead than the line: IDM falls as the gap shrinks, so that
leader already brakes it at least as hard (an HV at an unsignalized
junction still runs gap acceptance, whose claim later vehicles read). A
vehicle enters its conflict zone in the move pass, and the occupancy pass
walks only the zones' occupants. The decision tick finds the controlled
RVs from the front of each unsignalized approach.

The rules' constants are fixed: every vehicle is VEHICLE_LENGTH long (idm),
RVs decide every DECISION_PERIOD inside CONTROL_ZONE of the stop line
(agent), stop-line rules engage within ENGAGE_RANGE of the line, and an HV
accepts a gap when every threat is at least GAP_ACCEPT_TTA away.

Policy protocol: `decide(obs, rng) -> int` is required and is called per
controlled RV, in sorted id order, with the simulation's generator. A
policy that draws no randomness may also offer
`decide_batch(observations) -> list[int]`; it is then asked once per
decision tick, for every controlled RV's observation.

Geometry convention: a vehicle's `position` is its front bumper's distance
from the lane start. The last `zone_length` meters of every lane feeding an
intersection form that intersection's interior (the conflict zone); the
stop line sits at lane.length - zone_length. A vehicle occupies the zone
from the moment its front passes the stop line until its rear has fully
entered the movement's exit lane. Each vehicle's record carries its
routing and zone state: `next_move`, the movement out of its lane, and
`zone`, the movement whose zone it occupies.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import deque
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .agent import (GO, ACTION_NAMES, CONTROL_ZONE, DECISION_PERIOD,
                    build_observation, check_policy_fits, compute_reward)
from .idm import (B_EMERGENCY, DESIRED_SPEED, HV, MIN_GAP, NO_LEADER_GAP, RV,
                  STOP_SPEED, VEHICLE_LENGTH, VehicleState, advance_vehicle,
                  idm_acceleration)
from .netmodel import (Network, Movement, SIGNALIZED, UNSIGNALIZED,
                       boundary_side)
from .signals import in_clearance, permitted_movements, phase_at

REAR_END = "RearEnd"
CROSSING = "Crossing"

EVENT_COLUMNS = ("time", "event_type", "vehicle_ids", "location", "extra")

GAP_ACCEPT_TTA = 4.0   # s, an HV's critical time-to-arrival at unsignalized
ENGAGE_RANGE = 50.0    # m before the stop line where stop-line rules apply


def require_finite(config, error=ValueError) -> None:
    """Raise error naming the first float field of the dataclass config,
    or float in one of its tuple fields, that is NaN or infinite."""
    for f in fields(config):
        value = getattr(config, f.name)
        for x in value if isinstance(value, tuple) else (value,):
            if isinstance(x, float) and not math.isfinite(x):
                raise error(f"{f.name} must be finite, got {x!r}")


@dataclass(frozen=True)
class EngineConfig:
    dt: float = 0.1
    zone_length: float = 12.0       # interior depth of an intersection box
    collision_dwell: float = 5.0    # wreck blocks the road this long
    all_red: float = 0.0            # clearance tail carved out of each phase

    def __post_init__(self):
        require_finite(self)
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.zone_length <= 0:
            raise ValueError("zone_length must be > 0")
        for name in ("collision_dwell", "all_red"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def decision_steps(self) -> int:
        return max(1, round(DECISION_PERIOD / self.dt))


@dataclass(frozen=True)
class DemandSchedule:
    """Spawn plan: total_vehicles arrive uniformly over the horizon, routed
    by an origin-weighted draw (routes entering from the east or west
    boundary, see netmodel.boundary_side, are weighted axis_bias : 1 to give
    the demand a dominant direction), with a deterministic quota making
    exactly round(rv_penetration * total) of them RVs."""
    total_vehicles: int
    horizon: float = 1000.0
    rv_penetration: float = 0.0
    axis_bias: float = 2.0

    def __post_init__(self):
        require_finite(self)
        if self.total_vehicles <= 0:
            raise ValueError("total_vehicles must be > 0")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if not 0.0 <= self.rv_penetration <= 1.0:
            raise ValueError("rv_penetration must be in [0, 1]")
        if self.axis_bias < 0:
            raise ValueError("axis_bias must be >= 0")

    def arrival_time(self, k: int) -> float:
        return (k + 0.5) * self.horizon / self.total_vehicles

    def is_rv(self, k: int) -> bool:
        p = self.rv_penetration
        return math.floor(p * (k + 1) + 0.5) - math.floor(p * k + 0.5) == 1


@dataclass(frozen=True)
class Event:
    time: float
    event_type: str   # Spawn | Departure | Collision | Decision
    vehicle_ids: tuple[str, ...]
    location: str
    extra: str = ""


@dataclass
class RolloutSummary:
    spawned: int = 0
    departed: int = 0
    collided: int = 0              # distinct vehicles over all collision events
    collision_events: int = 0
    rv_spawned: int = 0
    duration: float = 0.0

    def as_text(self) -> str:
        lines = [f"{k} = {v}" for k, v in vars(self).items()]
        if self.departed > 0:
            lines.append(f"collision_rate = {self.collided / self.departed:.6f}")
        else:
            lines.append("collision_rate = undefined")
        return "\n".join(lines) + "\n"


class RandomPolicy:
    """Uniform Stop/Go baseline."""

    def decide(self, obs, rng) -> int:
        return int(rng.integers(2))


class AlwaysGoPolicy:
    def decide(self, obs, rng) -> int:
        return GO


class _Lane(NamedTuple):
    """What the engine reads of one lane; an exit lane has no intersection,
    control or stop line."""
    length: float
    desired_speed: float        # the IDM desired speed, capped at the limit
    intersection: str | None    # downstream intersection id
    control: str | None
    stop_line: float | None


class _Pending(NamedTuple):
    """An RV decision whose transition is not yet complete."""
    obs: np.ndarray
    action: int


class Simulation:
    """Single-rollout world. Step with step(); query events/summary after.

    transition_sink, when set, receives (obs, action, reward, next_obs,
    terminal) for every completed RV decision; terminal marks the end of
    one control-zone passage (zone cleared, collision, or horizon flush).
    Without a sink no decision is kept in `pending` and no reward is
    computed.
    """

    def __init__(self, net: Network, schedule: DemandSchedule, policy,
                 seed: int, config: EngineConfig = EngineConfig(),
                 transition_sink=None, log_decisions: bool = True):
        self.net = net
        self.schedule = schedule
        self.policy = policy
        self.config = config
        self.transition_sink = transition_sink
        self.log_decisions = log_decisions
        self.rng = np.random.default_rng(seed)
        self._decide_batch = getattr(policy, "decide_batch", None)
        check_policy_fits(policy, net)

        self.step_count = 0
        self.vehicles: dict[str, VehicleState] = {}
        # Each lane's vehicles, front first: ordered by (-position, id).
        self.lane_vehicles: dict[str, list[VehicleState]] = {
            lane_id: [] for lane_id in sorted(net.lane_by_id)}
        # The ids of the non-empty lanes, sorted: HV gap-acceptance claims
        # and collision events follow lane id order.
        self.occupied_lanes: list[str] = []
        # Intersection id -> {id: zone movement} of the vehicles in its
        # conflict zone; each such vehicle's `zone` is that movement.
        self.zone_occupancy: dict[str, dict[str, Movement]] = {
            i.id: {} for i in net.intersections}
        self._zones = [(i.conflict_zone_id, self.zone_occupancy[i.id])
                       for i in net.intersections]
        self.pending: dict[str, _Pending] = {}
        # Every collided pair. Ids are never reused in a rollout, so a
        # removed vehicle's pairs stay: they cannot recur.
        self.contacts: set[tuple[str, str]] = set()
        self.events: list[Event] = []
        self.spawned = 0
        self.rv_spawned = 0
        self.departed = 0
        self.collision_removed = 0

        # Signalized intersection id -> the movements its signal lets enter
        # at the current step (see _update_signals).
        self.permitted: dict[str, frozenset[str]] = {}

        self._decision_steps = config.decision_steps
        self._next_arrival = 0
        self._spawn_queues: dict[str, deque] = {}   # origin lane -> arrivals
        self._wrecks: deque[VehicleState] = deque()  # in collision order
        self._route_ids, self._route_probs = self._route_table()
        self._signalized = [i for i in net.intersections
                            if i.control == SIGNALIZED]
        for inter in self._signalized:
            if config.all_red >= min(p.duration for p in inter.plan.phases):
                raise ValueError(
                    f"all_red = {config.all_red:g} must be shorter than "
                    "every signal phase")
        self._signal_check = 0      # the next step that looks phases up
        # Movement id -> the approach lanes of its conflicting movements.
        self._threat_lanes = {
            mid: tuple(sorted({net.movement_by_id[c].from_lane
                               for c in conflicts}))
            for mid, conflicts in net.conflict_sets.items()}
        self._lanes: dict[str, _Lane] = {}
        for lane in net.lanes:
            iid = lane.downstream_intersection
            control = stop_line = None
            if iid is not None:
                control = net.intersection_by_id[iid].control
                stop_line = lane.length - config.zone_length
                if stop_line <= 0.0:
                    raise ValueError(
                        f"zone_length = {config.zone_length:g} must be shorter "
                        "than every approach lane")
            self._lanes[lane.id] = _Lane(
                lane.length, min(DESIRED_SPEED, lane.speed_limit), iid,
                control, stop_line)
        # (lane id, stop line) of each approach where a policy decides.
        self._decision_lanes = [
            (lane_id, lane.stop_line)
            for lane_id, lane in sorted(self._lanes.items())
            if lane.control == UNSIGNALIZED]

    # -- setup ---------------------------------------------------------------

    def _route_table(self):
        ids, weights = [], []
        for r in self.net.routes:
            side = boundary_side(r.lane_chain[0])
            weights.append(self.schedule.axis_bias if side in ("E", "W") else 1.0)
            ids.append(r.id)
        if not ids:
            raise ValueError("network has no routes to spawn on")
        probs = np.array(weights, dtype=np.float64)
        return ids, probs / probs.sum()

    @property
    def clock(self) -> float:
        return self.step_count * self.config.dt

    def zone_entry_lanes(self, intersection_id: str) -> set[str]:
        return {m.from_lane
                for m in self.zone_occupancy[intersection_id].values()}

    def controlled(self, vid: str) -> bool:
        """Whether the Stop/Go policy drives the vehicle: a healthy RV whose
        front is within CONTROL_ZONE of the stop line of an unsignalized
        intersection it will cross."""
        v = self.vehicles[vid]
        if v.kind != RV or v.collided_at is not None or v.next_move is None:
            return False
        lane = self._lanes[v.lane]
        return (lane.control == UNSIGNALIZED and
                0.0 <= lane.stop_line - v.position <= CONTROL_ZONE)

    def _movement_after(self, v: VehicleState) -> Movement | None:
        chain = self.net.route_by_id[v.route_id].lane_chain
        if v.route_index + 1 >= len(chain):
            return None
        return self.net.movement_by_lanes[(chain[v.route_index],
                                           chain[v.route_index + 1])]

    # -- spawning ------------------------------------------------------------

    def _spawn_step(self):
        t = self.clock
        total = self.schedule.total_vehicles
        while (self._next_arrival < total
               and t >= self.schedule.arrival_time(self._next_arrival)):
            k = self._next_arrival
            route_id = self._route_ids[
                int(self.rng.choice(len(self._route_ids), p=self._route_probs))]
            kind = RV if self.schedule.is_rv(k) else HV
            origin = self.net.route_by_id[route_id].lane_chain[0]
            self._spawn_queues.setdefault(origin, deque()).append((k, route_id, kind))
            self._next_arrival += 1

        if not self._spawn_queues:
            return
        for origin in sorted(self._spawn_queues):
            queue = self._spawn_queues[origin]
            while queue:
                tail = self.lane_vehicles[origin]
                tail = tail[-1] if tail else None
                if tail is not None and tail.position - tail.length \
                        < MIN_GAP + VEHICLE_LENGTH:
                    break
                k, route_id, kind = queue.popleft()
                speed = self._lanes[origin].desired_speed
                if tail is not None:
                    speed = min(speed, tail.speed)
                v = VehicleState(
                    id=f"V{k:06d}", kind=kind, lane=origin,
                    position=VEHICLE_LENGTH, speed=speed,
                    route_id=route_id, route_index=0)
                self.vehicles[v.id] = v
                if tail is None:
                    insort(self.occupied_lanes, origin)
                self.lane_vehicles[origin].append(v)
                v.next_move = self._movement_after(v)
                self.spawned += 1
                if kind == RV:
                    self.rv_spawned += 1
                self.events.append(Event(t, "Spawn", (v.id,), origin,
                                         f"kind={kind};route={route_id}"))
            if not queue:
                del self._spawn_queues[origin]

    # -- signals -------------------------------------------------------------

    def _update_signals(self):
        """Set `permitted` for the current step. A signal's permitted set
        changes only at its phase end or clearance start, so the phases are
        looked up from one step before the earliest such boundary (a step
        of margin for the rounding of t % cycle) and then every step until
        it has passed."""
        n = self.step_count
        if n < self._signal_check:
            return
        t = self.clock
        dt, all_red = self.config.dt, self.config.all_red
        check = math.inf
        self.permitted = {}
        for inter in self._signalized:
            plan = inter.plan
            state = phase_at(plan, t)
            boundary = plan.phases[state.phase_index].duration
            if not in_clearance(plan, state, all_red):
                boundary -= all_red
            check = min(check, n - 1 + int(
                (boundary - state.time_into_phase) / dt))
            self.permitted[inter.id] = permitted_movements(plan, state, all_red)
        self._signal_check = max(n + 1, check)

    # -- decisions -----------------------------------------------------------

    def _close_pending(self, rv_id: str, next_obs, terminal: bool,
                       collided: bool = False):
        pend = self.pending.pop(rv_id, None)
        if pend is None:
            return
        # obs[1] is the ego approach's mean delay at decision time.
        reward = compute_reward(float(pend.obs[1]), pend.action, collided)
        nxt = pend.obs * 0.0 if next_obs is None else next_obs
        self.transition_sink(pend.obs, pend.action, reward, nxt, terminal)

    def _decision_step(self):
        """Build every controlled RV's observation, then decide. An
        observation reads queues, delays and zones, never another RV's
        action at this tick, so a batch policy is asked once for all."""
        t = self.clock
        rv_ids = []
        lane_vehicles = self.lane_vehicles
        for lane_id, stop_line in self._decision_lanes:
            # Front first: every vehicle behind one beyond CONTROL_ZONE is
            # beyond it too.
            for v in lane_vehicles[lane_id]:
                d_stop = stop_line - v.position
                if d_stop > CONTROL_ZONE:
                    break
                if d_stop >= 0.0 and v.kind == RV and v.collided_at is None \
                        and v.next_move is not None:
                    rv_ids.append(v.id)
        if not rv_ids:
            return
        rv_ids.sort()
        observations = [build_observation(self, self.net, rv_id)
                        for rv_id in rv_ids]
        actions = (self._decide_batch(observations)
                   if self._decide_batch is not None else None)
        for i, (rv_id, obs) in enumerate(zip(rv_ids, observations)):
            v = self.vehicles[rv_id]
            self._close_pending(rv_id, obs, terminal=False)
            action = (actions[i] if actions is not None
                      else self.policy.decide(obs, self.rng))
            v.current_action = action
            if self.transition_sink is not None:
                self.pending[rv_id] = _Pending(obs, action)
            if self.log_decisions:
                self.events.append(Event(
                    t, "Decision", (rv_id,), v.lane,
                    f"action={ACTION_NAMES[action]}"))

    # -- acceleration rules ----------------------------------------------------

    def _zone_conflict_occupied(self, iid: str, movement: Movement) -> bool:
        conflicts = self.net.conflict_sets[movement.id]
        for m in self.zone_occupancy[iid].values():
            if m.id in conflicts:
                return True
        return False

    def _front_before_line(self, lane_id: str):
        """First vehicle on the lane whose front has not passed the stop
        line, or None."""
        stop_line = self._lanes[lane_id].stop_line
        for v in self.lane_vehicles[lane_id]:
            if v.position <= stop_line:
                return v
        return None

    def _threats(self, movement: Movement):
        """(w, w's distance to its stop line) for each approach lane with a
        movement conflicting with `movement`, where w is the lane's front
        vehicle before the line and is healthy, moving and about to take a
        conflicting movement. Standing vehicles are no threat, which keeps
        opposing queues from deadlocking."""
        conflicts = self.net.conflict_sets[movement.id]
        for lane_id in self._threat_lanes[movement.id]:
            w = self._front_before_line(lane_id)
            if w is None or w.collided_at is not None or w.speed < STOP_SPEED:
                continue
            w_move = w.next_move
            if w_move is not None and w_move.id in conflicts:
                yield w, self._lanes[lane_id].stop_line - w.position

    def _committed_runner(self, movement: Movement) -> bool:
        """True when some threat can no longer stop before its own stop line
        even at the emergency limit, so it will sweep through the zone
        regardless of its signal."""
        return any(w.speed * w.speed / (2.0 * B_EMERGENCY) > dist
                   for w, dist in self._threats(movement))

    def _hv_cleared(self, iid: str, movement: Movement, claims) -> bool:
        """Gap acceptance at an unsignalized intersection: enter only when
        the zone holds no conflicting vehicle, no earlier-processed vehicle
        claimed a conflicting entry this step, and every threat is at least
        GAP_ACCEPT_TTA from its stop line."""
        if self._zone_conflict_occupied(iid, movement):
            return False
        claimed = claims.get(iid)
        conflicts = self.net.conflict_sets[movement.id]
        if claimed and any(mid in conflicts for mid in claimed):
            return False
        return all(dist / w.speed >= GAP_ACCEPT_TTA
                   for w, dist in self._threats(movement))

    def _compute_accelerations(self) -> list[tuple[VehicleState, float]]:
        """(vehicle, acceleration) of every healthy vehicle, lane by lane,
        each lane front first."""
        moves = []
        append = moves.append
        claims: dict[str, list[str]] = {}
        # Movement id -> whether its green entry holds; what decides it does
        # not change during this pass.
        green_holds: dict[str, bool] = {}
        permitted = self.permitted
        lane_vehicles = self.lane_vehicles
        # Read the IDM law at call time, so that a wrapper set on the
        # module global sees every call.
        idm = idm_acceleration
        for lane_id in self.occupied_lanes:
            vehicles = lane_vehicles[lane_id]
            length, v0, iid, control, stop_line = self._lanes[lane_id]
            lead = None     # the previous vehicle on the lane, collided or not
            for v in vehicles:
                if v.collided_at is not None:
                    lead = v
                    continue
                movement = v.next_move
                speed, position = v.speed, v.position
                # Real leader: same lane, else the tail of the next route lane.
                if lead is not None:
                    gap = lead.position - lead.length - position
                    lead_speed = lead.speed
                    dv = speed - lead_speed
                elif movement is not None and lane_vehicles[movement.to_lane]:
                    tail = lane_vehicles[movement.to_lane][-1]
                    gap = (length - position) + tail.position - tail.length
                    lead_speed = tail.speed
                    dv = speed - lead_speed
                else:
                    gap, lead_speed, dv = NO_LEADER_GAP, None, 0.0
                lead = v
                a = idm(speed, dv, gap if gap > 1e-3 else 1e-3, v0)

                # Stop-line constraints apply only before the line.
                if stop_line is None or position > stop_line \
                        or movement is None:
                    append((v, a))
                    continue
                d_stop = stop_line - position
                # A hold brakes for a standing leader at the line. A leader
                # standing no farther ahead gives IDM the same speed and
                # approach rate and a gap no larger, and IDM falls as the
                # gap shrinks, so the hold could not brake harder.
                bound = lead_speed == 0.0 and gap <= d_stop
                hold = False
                if control == SIGNALIZED:
                    if not bound:
                        if movement.id not in permitted[iid]:
                            hold = True
                        elif d_stop <= ENGAGE_RANGE:
                            hold = green_holds.get(movement.id)
                            if hold is None:
                                hold = green_holds[movement.id] = (
                                    self._zone_conflict_occupied(iid, movement)
                                    or self._committed_runner(movement))
                elif v.kind == RV:
                    # Controlled: within CONTROL_ZONE of the line (see
                    # `controlled`).
                    hold = (not bound and d_stop <= CONTROL_ZONE
                            and v.current_action != GO)
                elif d_stop <= ENGAGE_RANGE \
                        and self._front_before_line(lane_id) is v:
                    # Gap acceptance runs even when bound: later vehicles
                    # read the claim it makes.
                    if self._hv_cleared(iid, movement, claims):
                        claims.setdefault(iid, []).append(movement.id)
                    else:
                        hold = not bound
                if hold:
                    a_line = idm(speed, speed,
                                 d_stop if d_stop > 1e-3 else 1e-3, v0)
                    if a_line < a:
                        a = a_line
                append((v, a))
        return moves

    # -- integration, occupancy, collisions ----------------------------------

    def _integrate(self, moves):
        """Advance every healthy vehicle, then hand those past their lane's
        end to the next lane. No vehicle passes its leader on a lane, so
        each lane stays in order; a handed-off vehicle is inserted only once
        every position is current. A vehicle enters its conflict zone once
        its lane for the step is final. Returns the ids that reached their
        exit's end."""
        arrived, handed_off = [], []
        dt, lanes = self.config.dt, self._lanes
        advance = advance_vehicle   # read at call time, as in accelerations
        for v, a in moves:
            advance(v, a, dt)
            lane = lanes[v.lane]
            if v.position > lane.length:
                if v.next_move is None:
                    arrived.append(v.id)
                else:
                    handed_off.append(v)
            elif v.zone is None and lane.stop_line is not None \
                    and v.position > lane.stop_line:
                self._enter_zone(v, lane)
        for v in handed_off:
            self._leave_lane(v)
            v.position -= self._lanes[v.lane].length
            v.lane = v.next_move.to_lane
            v.route_index += 1
            v.waiting_time = 0.0
            v.current_action = None
            v.next_move = self._movement_after(v)
            vehicles = self.lane_vehicles[v.lane]
            if not vehicles:
                insort(self.occupied_lanes, v.lane)
            insort(vehicles, v, key=lambda u: (-u.position, u.id))
            if v.zone is None:
                self._enter_zone(v, lanes[v.lane])
        # A wreck does not move, but one made at the previous step may have
        # left its zone there with its front already past the next stop
        # line (on a lane less than a vehicle length longer than
        # zone_length): it enters that zone now.
        made = (self.step_count - 1) * dt
        for v in reversed(self._wrecks):
            if v.collided_at != made:
                break
            if v.zone is None:
                self._enter_zone(v, lanes[v.lane])
        return arrived

    def _enter_zone(self, v: VehicleState, lane: _Lane):
        """Enter the conflict zone ahead once the front is past the stop
        line."""
        if lane.stop_line is not None and v.position > lane.stop_line \
                and v.next_move is not None:
            v.zone = v.next_move
            self.zone_occupancy[lane.intersection][v.id] = v.zone

    def _leave_lane(self, v: VehicleState):
        vehicles = self.lane_vehicles[v.lane]
        vehicles.remove(v)
        if not vehicles:
            self.occupied_lanes.remove(v.lane)

    def _update_occupancy(self):
        """Clear each zone of the vehicles whose rear has entered the exit
        lane; returns the ids whose passage completed with a decision
        pending."""
        passed = []
        vehicles = self.vehicles
        for _, occupancy in self._zones:
            if not occupancy:
                continue
            for vid, zone in list(occupancy.items()):
                v = vehicles[vid]
                if v.lane == zone.to_lane and v.position >= v.length:
                    del occupancy[vid]
                    v.zone = None
                    if vid in self.pending:
                        passed.append(vid)
        return passed

    def _record_collision(self, t, kind, v1, v2, location):
        pair = (v1.id, v2.id) if v1.id < v2.id else (v2.id, v1.id)
        if pair in self.contacts:
            return
        self.contacts.add(pair)
        self.events.append(Event(t, "Collision", pair, location, f"kind={kind}"))
        for v in (v1, v2):
            if v.collided_at is None:
                v.collided_at = t
                v.speed = 0.0
                self._wrecks.append(v)
            self._close_pending(v.id, None, terminal=True, collided=True)

    def _detect_collisions(self):
        t = self.clock
        lane_vehicles = self.lane_vehicles
        for lane_id in self.occupied_lanes:
            vehicles = lane_vehicles[lane_id]
            if len(vehicles) < 2:
                continue
            lead = vehicles[0]
            for follower in vehicles[1:]:
                if lead.position - lead.length - follower.position <= 0.0:
                    self._record_collision(t, REAR_END, lead, follower, lane_id)
                lead = follower
        for zone_id, occupancy in self._zones:
            if len(occupancy) < 2:
                continue
            entries = sorted(occupancy.items())
            for i in range(len(entries)):
                for j in range(i + 1, len(entries)):
                    vid1, m1 = entries[i]
                    vid2, m2 = entries[j]
                    if self.net.conflicts(m1.id, m2.id):
                        self._record_collision(
                            t, CROSSING, self.vehicles[vid1],
                            self.vehicles[vid2], zone_id)

    def _remove_vehicle(self, vid: str):
        v = self.vehicles.pop(vid)
        if v.zone is not None:
            iid = self._lanes[v.zone.from_lane].intersection
            del self.zone_occupancy[iid][vid]
        self._leave_lane(v)
        return v

    def _departures(self, arrived):
        t = self.clock
        for vid in arrived:
            v = self.vehicles[vid]
            if v.collided_at is not None:
                continue
            self.events.append(Event(t, "Departure", (vid,), v.lane))
            self._remove_vehicle(vid)
            self.departed += 1
        # Wrecks are listed in collision order, so the expired ones lead.
        wrecks = self._wrecks
        while wrecks and t - wrecks[0].collided_at >= self.config.collision_dwell:
            self._remove_vehicle(wrecks.popleft().id)
            self.collision_removed += 1

    # -- public stepping -------------------------------------------------------

    def step(self):
        # Arrival times are bounded by the horizon; this also retries spawns
        # queued behind a full entry lane, which are never dropped.
        self._spawn_step()
        self._update_signals()
        if self.step_count % self._decision_steps == 0:
            self._decision_step()
        moves = self._compute_accelerations()
        arrived = self._integrate(moves)
        passed = self._update_occupancy()
        # self.vehicles is in spawn order, not id order. Sort the two id
        # lists whose order reaches an output: completed passages set the
        # order of transitions into the learner, arrivals the order of
        # Departure events.
        for vid in sorted(passed):
            # The Go that entered the zone resolves with no collision.
            self._close_pending(vid, None, terminal=True)
        self._detect_collisions()
        self._departures(sorted(arrived))
        self.step_count += 1

    def flush_pending(self):
        """Close every open RV transition at episode end."""
        for rv_id in sorted(self.pending):
            self._close_pending(rv_id, None, terminal=True)

    def summary(self) -> RolloutSummary:
        return RolloutSummary(
            spawned=self.spawned, departed=self.departed,
            collided=len({vid for pair in self.contacts for vid in pair}),
            collision_events=len(self.contacts),
            rv_spawned=self.rv_spawned, duration=self.clock)


def run_rollout(net: Network, schedule: DemandSchedule, policy, seed: int,
                duration: float, config: EngineConfig = EngineConfig(),
                log_decisions: bool = True):
    """Run one complete rollout; returns (events, summary)."""
    if not math.isfinite(duration):
        raise ValueError(f"duration must be finite, got {duration!r}")
    if duration < 0:
        raise ValueError("duration must be >= 0")
    sim = Simulation(net, schedule, policy, seed, config,
                     log_decisions=log_decisions)
    steps = round(duration / config.dt)
    for _ in range(steps):
        sim.step()
    sim.flush_pending()
    return sim.events, sim.summary()


def format_event(event: Event) -> str:
    return ",".join((f"{event.time:.1f}", event.event_type,
                     "|".join(event.vehicle_ids), event.location, event.extra))


def write_events_csv(events, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(EVENT_COLUMNS) + "\n")
        for event in events:
            f.write(format_event(event) + "\n")
