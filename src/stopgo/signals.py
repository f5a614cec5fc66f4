"""Fixed-time signal evaluation and the movement-permission rule."""

from __future__ import annotations

from dataclasses import dataclass

from .netmodel import SignalPlan


@dataclass(frozen=True)
class PhaseState:
    phase_index: int
    time_into_phase: float


def phase_at(plan: SignalPlan, t: float) -> PhaseState:
    """Locate the phase containing time t mod cycle_length.

    Phase boundaries belong to the later phase, so t = cycle_length wraps
    to phase 0 at offset 0.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    cycle = plan.cycle_length
    offset = t % cycle
    for index, phase in enumerate(plan.phases):
        if offset < phase.duration:
            return PhaseState(index, offset)
        offset -= phase.duration
    # Float roundoff at the very end of the cycle lands here.
    return PhaseState(0, 0.0)


def permitted_movements(plan: SignalPlan, state: PhaseState,
                        all_red: float) -> frozenset[str]:
    """Movements the plan lets enter the intersection in the given phase
    state: the phase's permitted set, or none inside the phase's last
    all_red seconds (the clearance tail).

    Unsignalized intersections have no plan; permission there is delegated
    to RV decisions and HV gap acceptance in the engine.
    """
    if in_clearance(plan, state, all_red):
        return frozenset()
    return plan.phases[state.phase_index].permitted_movements


def in_clearance(plan: SignalPlan, state: PhaseState, all_red: float) -> bool:
    """Whether the phase state lies in its phase's last all_red seconds,
    where the signal permits no movement."""
    duration = plan.phases[state.phase_index].duration
    return all_red > 0.0 and state.time_into_phase >= duration - all_red
