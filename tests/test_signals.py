import pytest

from stopgo.netmodel import Phase, SignalPlan
from stopgo.signals import permitted_movements, phase_at


def _plan():
    return SignalPlan(phases=(
        Phase(duration=10.0, permitted_movements=frozenset({"A"})),
        Phase(duration=20.0, permitted_movements=frozenset({"B"})),
    ))


def test_phase_at_start():
    state = phase_at(_plan(), 0.0)
    assert state.phase_index == 0
    assert state.time_into_phase == pytest.approx(0.0)


def test_phase_at_boundary_enters_next_phase():
    assert phase_at(_plan(), 10.0).phase_index == 1
    assert phase_at(_plan(), 10.0).time_into_phase == pytest.approx(0.0)


def test_phase_at_wraps_around_cycle():
    plan = _plan()
    assert plan.cycle_length == pytest.approx(30.0)
    state = phase_at(plan, 30.0)
    assert state.phase_index == 0
    later = phase_at(plan, 7 * 30.0 + 12.0)
    assert later.phase_index == 1
    assert later.time_into_phase == pytest.approx(2.0)


def test_signalized_permission_follows_phase_table(net_1s):
    plan = net_1s.intersections[0].plan
    for t in (0.0, 14.9, 15.0, 31.0, 59.9, 60.0, 61.5):
        state = phase_at(plan, t)
        allowed = plan.phases[state.phase_index].permitted_movements
        assert permitted_movements(plan, state, all_red=0.0) == allowed
        assert allowed <= {m.id for m in
                           net_1s.movements_at(net_1s.intersections[0].id)}


def test_clearance_tail_permits_nothing(net_1s):
    plan = net_1s.intersections[0].plan
    assert [p.duration for p in plan.phases] == [15.0] * 4
    first, second = (p.permitted_movements for p in plan.phases[:2])
    assert first and second

    def permitted(t):
        return permitted_movements(plan, phase_at(plan, t), all_red=3.0)

    assert permitted(11.9) == first
    assert permitted(12.0) == frozenset()
    assert permitted(14.9) == frozenset()
    assert permitted(15.0) == second
