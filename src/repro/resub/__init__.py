"""Simulation-guided Boolean resubstitution.

The second optimization engine of the repo (``DivisionConfig.method =
"simguided"``, CLI ``--method simguided``), following the shape of
"Simulation-Guided Boolean Resubstitution" (arXiv 2007.02579): instead
of *searching* for rewrites with Boolean division, it *constructs*
candidate replacement functions for each target node directly from the
bit-parallel simulation signatures (:mod:`repro.sim`) and validates
the few survivors exactly.

* :mod:`repro.resub.window` — per-target divisor windows collected
  from the maintained :class:`~repro.sim.signature.SignatureSimulator`,
* :mod:`repro.resub.resyn` — the truth-table resynthesis core: build
  a cover over ≤k divisor signatures that matches the target signature
  on every care pattern (don't-care-aware),
* :mod:`repro.resub.engine` — the pass: windowing → resynthesis →
  ATPG literal cleanup → exact validation against the input
  (``verify_backend`` dispatch) → commit of the proven candidate.

The run loop around the pass is the division engine's,
:func:`~repro.core.substitution.substitute_network`.
"""

from repro.resub.resyn import resynthesize_window
from repro.resub.window import Window, build_window
from repro.resub.engine import resub_pass

__all__ = [
    "Window",
    "build_window",
    "resynthesize_window",
    "resub_pass",
]
