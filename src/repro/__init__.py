"""repro — Boolean division and substitution via RAR.

A from-scratch Python reproduction of S.-C. Chang and D. I. Cheng,
"Efficient Boolean Division and Substitution Using Redundancy Addition
and Removing" (DAC 1998 / IEEE TCAD 18(8), 1999), together with every
substrate the paper depends on: a two-level cube algebra with an
espresso-style minimizer, a SIS-like multilevel Boolean network with
algebraic division/kernels/factoring, a gate-level circuit view with an
ATPG implication engine, a BDD package for don't cares and the test
oracle, SIS-script emulation, and a deterministic benchmark suite.

Quickstart::

    from repro import Network, BASIC, substitute_network

    net = Network("demo")
    for pi in "abcd":
        net.add_pi(pi)
    net.parse_node("g", "b + c", ["b", "c"])
    net.parse_node("f", "ab + ac + ad' + a'b'c'd", ["a", "b", "c", "d"])
    net.add_po("f"); net.add_po("g")
    stats = substitute_network(net, BASIC)
    print(net.nodes["f"].to_str(), stats.improvement())
"""

from repro.twolevel import Cube, Cover, espresso
from repro.network import (
    Network,
    Node,
    factored_literals,
    network_literals,
    networks_equivalent,
)
from repro.core import (
    BASIC,
    EXTENDED,
    EXTENDED_GDC,
    SIMGUIDED,
    DivisionConfig,
    DivisionResult,
    boolean_divide,
    divide_node_pair,
    substitute_network,
    substitute_pass,
    SubstitutionStats,
)

__version__ = "0.1.0"

__all__ = [
    "Cube",
    "Cover",
    "espresso",
    "Network",
    "Node",
    "factored_literals",
    "network_literals",
    "networks_equivalent",
    "BASIC",
    "EXTENDED",
    "EXTENDED_GDC",
    "SIMGUIDED",
    "DivisionConfig",
    "DivisionResult",
    "boolean_divide",
    "divide_node_pair",
    "substitute_network",
    "substitute_pass",
    "SubstitutionStats",
    "__version__",
]
