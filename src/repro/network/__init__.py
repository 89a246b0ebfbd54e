"""Multilevel Boolean network, modelled on SIS.

A network is a DAG of named nodes, each carrying a sum-of-products
cover over its immediate fanins, plus primary inputs and outputs.  The
subpackage provides the classical technology-independent operations the
paper's experiments rely on:

* :mod:`repro.network.ops` — ``sweep`` and value-based ``eliminate``,
* :mod:`repro.network.simplify` — per-node espresso simplification,
* :mod:`repro.network.algebraic` — kernels and weak division,
* :mod:`repro.network.resub` — the SIS ``resub`` algebraic baseline,
* :mod:`repro.network.extract` — ``gcx``/``gkx`` extraction,
* :mod:`repro.network.factor` — factored-form literal counting,
* :mod:`repro.network.blif` — BLIF reader/writer,
* :mod:`repro.network.verify` — the exact equivalence verdict and
  the BDD oracle.
"""

from repro.network.node import Node
from repro.network.network import Network
from repro.network.factor import factored_literals, network_literals, factor
from repro.network.verify import (
    networks_equivalent,
    network_output_bdds,
)

__all__ = [
    "Node",
    "Network",
    "factored_literals",
    "network_literals",
    "factor",
    "networks_equivalent",
    "network_output_bdds",
]
