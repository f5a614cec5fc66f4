import pytest
from hypothesis import given, settings, strategies as st

from stopgo.netmodel import (
    GridGeometry,
    Lane,
    Movement,
    Network,
    NetworkError,
    ParseError,
    boundary_entry_lanes,
    boundary_exit_lanes,
    generate_grid,
    normalize_pair,
    parse_network,
    remove_left_turns,
    serialize_network,
    validate_network,
)


def test_single_intersection_shape(net_1u):
    assert len(net_1u.intersections) == 1
    assert net_1u.intersections[0].control == "unsignalized"
    assert net_1u.intersections[0].plan is None
    iid = net_1u.intersections[0].id
    assert len(net_1u.incoming_lanes[iid]) == 4
    assert len(net_1u.movements_at(iid)) == 12
    assert len(boundary_entry_lanes(net_1u)) == 4
    assert len(boundary_exit_lanes(net_1u)) == 4


def test_single_intersection_conflict_pairs(net_1u):
    # 4 straight crossings + 4 left/oncoming-straight + 4 left merges + 4 right merges
    assert len(net_1u.conflict_pairs) == 16
    for a, b in net_1u.conflict_pairs:
        assert a < b  # normalized ordering
        assert a != b
        assert net_1u.conflicts(a, b) and net_1u.conflicts(b, a)


def test_straight_movements_conflict_left_same_approach_does_not(net_1u):
    iid = net_1u.intersections[0].id
    moves = net_1u.movements_at(iid)
    straights = [m for m in moves if m.turn == "straight"]
    crossing = [
        (a, b) for a in straights for b in straights
        if a.id < b.id and net_1u.conflicts(a.id, b.id)
    ]
    assert len(crossing) == 4  # N-S straights cross E-W straights, both ways
    by_lane = {}
    for m in moves:
        by_lane.setdefault(m.from_lane, []).append(m)
    for same in by_lane.values():
        for a in same:
            for b in same:
                if a.id != b.id:
                    assert not net_1u.conflicts(a.id, b.id)


def test_signalized_plan_covers_all_movements_conflict_free(net_1s):
    node = net_1s.intersections[0]
    assert node.control == "signalized"
    plan = node.plan
    assert plan is not None
    assert plan.cycle_length == pytest.approx(60.0)
    covered = set()
    for phase in plan.phases:
        allowed = sorted(phase.permitted_movements)
        for i, a in enumerate(allowed):
            for b in allowed[i + 1:]:
                assert not net_1s.conflicts(a, b)
        covered |= phase.permitted_movements
    assert covered == {m.id for m in net_1s.movements_at(node.id)}


def test_grid14_every_intersection_has_four_approaches(net_grid14):
    assert len(net_grid14.intersections) == 14
    for node in net_grid14.intersections:
        assert len(net_grid14.incoming_lanes[node.id]) == 4
        assert len(net_grid14.movements_at(node.id)) == 12


def test_mixed_grid_signal_count():
    net = generate_grid(10, 4, GridGeometry(rows=2, cols=7))
    controls = [i.control for i in net.intersections]
    assert controls.count("unsignalized") == 10
    assert controls.count("signalized") == 4


def test_routes_run_boundary_to_boundary(net_2u):
    entries = set(boundary_entry_lanes(net_2u))
    exits = set(boundary_exit_lanes(net_2u))
    assert net_2u.routes
    for route in net_2u.routes:
        chain = route.lane_chain
        assert chain[0] in entries
        assert chain[-1] in exits
        for u, v in zip(chain, chain[1:]):
            assert (u, v) in net_2u.movement_by_lanes


def test_no_uturn_routes(net_1u):
    # an entry and exit stub attached to the same boundary node never pair up
    def stub_node(lane_id):
        parts = lane_id.split("_")
        return parts[1] if parts[1].startswith("B") else parts[2]

    for route in net_1u.routes:
        assert stub_node(route.lane_chain[0]) != stub_node(route.lane_chain[-1])


def test_serialize_parse_round_trip(net_2u):
    text = serialize_network(net_2u)
    again = parse_network(text)
    assert again == net_2u
    assert serialize_network(again) == text


def test_parse_error_carries_line_number():
    text = "[lane]\nid = L1\nlength = not-a-number\n"
    with pytest.raises(ParseError) as err:
        parse_network(text)
    assert err.value.line == 3


def test_parse_rejects_unknown_section():
    with pytest.raises(ParseError):
        parse_network("[garbage]\nid = X\n")


def test_validate_rejects_duplicate_lane_ids(net_1u):
    bad = Network(
        intersections=net_1u.intersections,
        lanes=net_1u.lanes + (net_1u.lanes[0],),
        movements=net_1u.movements,
        conflict_pairs=net_1u.conflict_pairs,
        routes=net_1u.routes,
    )
    with pytest.raises(NetworkError):
        validate_network(bad)


def test_validate_rejects_dangling_movement(net_1u):
    bad = Network(
        intersections=net_1u.intersections,
        lanes=net_1u.lanes,
        movements=net_1u.movements + (
            Movement(id="M_bogus", from_lane="no-such", to_lane="nope",
                     turn="straight"),
        ),
        conflict_pairs=net_1u.conflict_pairs,
        routes=net_1u.routes,
    )
    with pytest.raises(NetworkError):
        validate_network(bad)


def test_validate_rejects_bad_turn(net_1u):
    first = net_1u.movements[0]
    patched = Movement(id=first.id, from_lane=first.from_lane,
                       to_lane=first.to_lane, turn="Sideways")
    bad = Network(
        intersections=net_1u.intersections,
        lanes=net_1u.lanes,
        movements=(patched,) + net_1u.movements[1:],
        conflict_pairs=(),
        routes=(),
    )
    with pytest.raises(NetworkError):
        validate_network(bad)


def test_validate_rejects_nonpositive_length(net_1u):
    first = net_1u.lanes[0]
    patched = Lane(id=first.id, length=0.0, speed_limit=first.speed_limit,
                   downstream_intersection=first.downstream_intersection)
    bad = Network(
        intersections=net_1u.intersections,
        lanes=(patched,) + net_1u.lanes[1:],
        movements=net_1u.movements,
        conflict_pairs=net_1u.conflict_pairs,
        routes=net_1u.routes,
    )
    with pytest.raises(NetworkError):
        validate_network(bad)


def test_normalize_pair_orders_ids():
    assert normalize_pair("b", "a") == ("a", "b")
    assert normalize_pair("a", "b") == ("a", "b")


def test_remove_left_turns_drops_lefts_and_keeps_routes(net_grid14):
    out = remove_left_turns(net_grid14)
    validate_network(out)
    assert all(m.turn != "left" for m in out.movements)
    assert len(out.routes) == len(net_grid14.routes)
    surviving = {m.id for m in out.movements}
    for a, b in out.conflict_pairs:
        assert a in surviving and b in surviving
    for route in out.routes:
        for u, v in zip(route.lane_chain, route.lane_chain[1:]):
            assert (u, v) in out.movement_by_lanes


def test_remove_left_turns_idempotent(net_2u):
    once = remove_left_turns(net_2u)
    twice = remove_left_turns(once)
    assert serialize_network(once) == serialize_network(twice)


@settings(max_examples=10, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=2),
    cols=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_generated_grids_validate_and_round_trip(rows, cols, data):
    total = rows * cols
    signalized = data.draw(st.integers(min_value=0, max_value=total))
    net = generate_grid(total - signalized, signalized,
                        GridGeometry(rows=rows, cols=cols))
    validate_network(net)
    assert parse_network(serialize_network(net)) == net
