"""The paper's Section IV energy model.

Layers:

* :mod:`repro.energy.profile` — device constants (paper Table I).
* :mod:`repro.energy.dynamics` — the per-frame state recursion
  (Eqs. 3-5, 14): wakelock start times, effective wakelock durations,
  suspended-vs-awake state on arrival, aborted-suspend fractions.
* :mod:`repro.energy.components` — the count record both estimators
  produce, and :func:`price`, the one price list for Eq. (2).
* :mod:`repro.energy.model` — the closed form: counts Eqs. (3)-(19),
  suspended time for Figure 9 among them, from a frame list.
* :mod:`repro.energy.meter` — the same counts read off a DES client.

The names below are re-exported lazily, so the closed form does not
import the simulator the meter reads.
"""

from repro._exports import lazy_exports

#: Public name → defining module, imported on first use.
_EXPORTS = {
    "DeviceEnergyProfile": "repro.energy.profile",
    "NEXUS_ONE": "repro.energy.profile",
    "GALAXY_S4": "repro.energy.profile",
    "EnergyBreakdown": "repro.energy.components",
    "EnergyCounts": "repro.energy.components",
    "COMPONENT_LABELS": "repro.energy.components",
    "price": "repro.energy.components",
    "FrameDynamics": "repro.energy.dynamics",
    "FrameEvent": "repro.energy.dynamics",
    "derive_frame_dynamics": "repro.energy.dynamics",
    "EnergyModel": "repro.energy.model",
    "HideOverheadParams": "repro.energy.model",
    "client_counts": "repro.energy.meter",
    "Battery": "repro.energy.battery",
    "GALAXY_S4_BATTERY": "repro.energy.battery",
    "NEXUS_ONE_BATTERY": "repro.energy.battery",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
