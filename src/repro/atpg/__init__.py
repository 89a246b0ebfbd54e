"""Testing-based machinery: implications, faults, redundancy.

The Boolean power of the paper's division algorithm comes entirely
from here: a stuck-at fault whose mandatory assignments imply a
conflict is untestable, and an untestable fault means the wire can be
replaced by a constant — i.e. removed.

* :mod:`repro.atpg.implication` — three-valued implication engine
  over a compiled :class:`repro.circuit.Circuit` with conflict
  detection and bounded-depth recursive learning (the adjustable
  "more don't cares for more run time" knob of Section V); its
  :func:`~repro.atpg.implication.imply` is the untestability test
  every caller shares,
* :mod:`repro.atpg.fault` — stuck-at faults and mandatory assignments,
* :mod:`repro.atpg.redundancy` — generic redundancy identification and
  removal for circuits (the classical RAR substrate of Section II).
"""

from repro.atpg.implication import Conflict, imply
from repro.atpg.fault import StuckAtFault, mandatory_assignments
from repro.atpg.redundancy import wire_is_redundant, redundancy_removal
from repro.atpg.simulate import faulty_evaluate, find_test_exhaustive
from repro.atpg.dalg import generate_test, prove_redundant, build_miter

__all__ = [
    "Conflict",
    "imply",
    "StuckAtFault",
    "mandatory_assignments",
    "wire_is_redundant",
    "redundancy_removal",
    "faulty_evaluate",
    "find_test_exhaustive",
    "generate_test",
    "prove_redundant",
    "build_miter",
]
