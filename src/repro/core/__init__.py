"""The paper's contribution: RAR-based Boolean division/substitution.

* :mod:`repro.core.sos_pos` — sum-of-subproducts / product-of-subsums
  containment (Section III-A, Lemmas 1 and 2),
* :mod:`repro.core.division` — basic Boolean division by redundancy
  addition and removal (Section III-B),
* :mod:`repro.core.extended` — extended division: the vote table and
  maximal-clique core-divisor selection (Section IV),
* :mod:`repro.core.substitution` — the run loop of both engines and
  the division passes in the paper's three experimental
  configurations,
* :mod:`repro.core.config` — the configuration: the options a
  workload, a table, an ablation or a test sets (the engine's fixed
  sizes are module constants next to the code that reads them).
"""

from repro.core.config import (
    DivisionConfig,
    BASIC,
    EXTENDED,
    EXTENDED_GDC,
    ORACLE,
    SIMGUIDED,
)
from repro.core.sos_pos import is_sos_of, is_pos_of, sos_split, pos_split
from repro.core.division import DivisionResult, boolean_divide, divide_node_pair
from repro.core.extended import (
    VoteTable,
    build_vote_table,
    choose_core_divisor,
    decompose_divisor,
    decompose_divisor_pos,
)
from repro.core.substitution import (
    substitute_pass,
    substitute_network,
    SubstitutionStats,
)

__all__ = [
    "DivisionConfig",
    "BASIC",
    "EXTENDED",
    "EXTENDED_GDC",
    "ORACLE",
    "SIMGUIDED",
    "is_sos_of",
    "is_pos_of",
    "sos_split",
    "pos_split",
    "DivisionResult",
    "boolean_divide",
    "divide_node_pair",
    "VoteTable",
    "build_vote_table",
    "choose_core_divisor",
    "decompose_divisor",
    "decompose_divisor_pos",
    "substitute_pass",
    "substitute_network",
    "SubstitutionStats",
]
