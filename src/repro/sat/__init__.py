"""SAT backend: Tseitin CNF encoding and a small CDCL solver.

The exact-reasoning storey above enumeration: equivalence checking
past the 20 inputs that simulating every pattern affords (see
DESIGN.md §12 and §18), and stuck-at untestability.  Zero
dependencies, like the rest of the repo.
"""

from repro.sat.cnf import (
    Cnf,
    CnfStats,
    Miter,
    build_miter,
    encode_circuit,
    encode_network,
)
from repro.sat.solver import CdclSolver, SolveResult, solve_cnf
from repro.sat.check import (
    DEFAULT_CONFLICT_BUDGET,
    Verdict,
    sat_equivalent,
    sat_wire_untestable,
)

__all__ = [
    "Cnf",
    "CnfStats",
    "Miter",
    "build_miter",
    "encode_circuit",
    "encode_network",
    "CdclSolver",
    "SolveResult",
    "solve_cnf",
    "DEFAULT_CONFLICT_BUDGET",
    "Verdict",
    "sat_equivalent",
    "sat_wire_untestable",
]
