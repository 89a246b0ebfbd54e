"""Internal don't cares: implications vs. explicit SDC/ODC computation.

The paper's GDC configuration exploits internal don't cares through
whole-circuit *implications*.  This walkthrough makes the same
information explicit:

1. compute a node's satisfiability don't cares (fanin patterns no
   input can produce) and observability don't cares (patterns under
   which the node's value cannot reach an output) with BDDs,
2. show `full_simplify` using them to shrink a node,
3. show the GDC substitution pass discovering the same reduction
   through implication conflicts alone, and print the optimized nodes.

Run:  python examples/dont_care_analysis.py
"""

from repro import EXTENDED_GDC, network_literals, networks_equivalent, substitute_network
from repro.network.dontcares import DontCareComputer, full_simplify
from repro.network.network import Network


def build() -> Network:
    net = Network("dc-demo")
    for pi in "ab":
        net.add_pi(pi)
    net.parse_node("m", "ab", ["a", "b"])
    net.parse_node("M", "a + b", ["a", "b"])
    # t sees both m and M; m=1 with M=0 can never happen (m implies M).
    net.parse_node("t", "mM + m'M'", ["m", "M"])
    net.add_po("t")
    return net


def main() -> None:
    net = build()
    print("network:")
    for node in net.internal_nodes():
        print("  " + node.to_str())

    computer = DontCareComputer(net)
    sdc = computer.satisfiability_dc("t")
    odc = computer.observability_dc("t")
    print(f"\nSDC of t over fanins {net.nodes['t'].fanins}: "
          f"{sdc.to_str(net.nodes['t'].fanins)}")
    print(f"ODC of t: {odc.to_str(net.nodes['t'].fanins) if not odc.is_zero() else '0'}")

    simplified = build()
    improved = full_simplify(simplified)
    print(f"\nfull_simplify improved {improved} node(s):")
    for node in simplified.internal_nodes():
        print("  " + node.to_str())
    assert networks_equivalent(build(), simplified)

    implied = build()
    stats = substitute_network(implied, EXTENDED_GDC)
    print(
        f"\nGDC substitution reaches {network_literals(implied)} literals "
        f"(from {stats.literals_before}) purely via implication conflicts:"
    )
    for node in implied.internal_nodes():
        print("  " + node.to_str())
    assert networks_equivalent(build(), implied)


if __name__ == "__main__":
    main()
