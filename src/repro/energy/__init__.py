"""The paper's Section IV energy model.

Layers:

* :mod:`repro.energy.profile` — device constants (paper Table I).
* :mod:`repro.energy.dynamics` — the per-frame state recursion
  (Eqs. 3-5, 14): wakelock start times, effective wakelock durations,
  suspended-vs-awake state on arrival, aborted-suspend fractions.
* :mod:`repro.energy.model` — the component energies (Eqs. 2, 6-19):
  E_b, E_f, E_wl, E_st, E_o.
* :mod:`repro.energy.timeline` — an explicit interval timeline built
  from the same dynamics, used for the suspend-mode fraction (Fig. 9)
  and as an independent cross-check of the closed form.
"""

from repro.energy.profile import DeviceEnergyProfile, NEXUS_ONE, GALAXY_S4
from repro.energy.components import EnergyBreakdown, COMPONENT_LABELS
from repro.energy.dynamics import FrameDynamics, FrameEvent, derive_frame_dynamics
from repro.energy.model import EnergyModel, HideOverheadParams
from repro.energy.timeline import PowerTimeline, StateSegment, build_timeline
from repro.energy.meter import ClientEnergyMeter, MeteredEnergy
from repro.energy.battery import Battery, GALAXY_S4_BATTERY, NEXUS_ONE_BATTERY

__all__ = [
    "DeviceEnergyProfile",
    "NEXUS_ONE",
    "GALAXY_S4",
    "EnergyBreakdown",
    "COMPONENT_LABELS",
    "FrameDynamics",
    "FrameEvent",
    "derive_frame_dynamics",
    "EnergyModel",
    "HideOverheadParams",
    "PowerTimeline",
    "StateSegment",
    "build_timeline",
    "ClientEnergyMeter",
    "MeteredEnergy",
    "Battery",
    "GALAXY_S4_BATTERY",
    "NEXUS_ONE_BATTERY",
]
