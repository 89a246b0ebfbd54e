"""Bit-parallel simulation signatures (the substitution fast path).

* :mod:`repro.sim.signature` — incremental packed-pattern simulation of
  a whole :class:`~repro.network.network.Network`,
* :mod:`repro.sim.filter` — the sound one-way divisor filter built on
  those signatures (simulation-guided pruning, in the spirit of
  Lee et al., "Simulation-Guided Boolean Resubstitution", ICCAD 2020),
* :mod:`repro.sim.witness` — the witness screen that settles an
  implication test a sampled pattern already answers (DESIGN §17),
* :mod:`repro.sim.cache` — the LRU cache the filter leans on.
"""

from repro.sim.cache import LRUCache
from repro.sim.signature import SignatureSimulator
from repro.sim.filter import ALL_ATTEMPTS, DivisorFilter, enabled_attempts
from repro.sim.witness import WitnessScreen

__all__ = [
    "LRUCache",
    "SignatureSimulator",
    "ALL_ATTEMPTS",
    "DivisorFilter",
    "enabled_attempts",
    "WitnessScreen",
]
