"""Extended division: core-divisor selection by voting (Section IV).

Basic division can only use a divisor as-is; extended division may
*decompose* the divisor, exposing a sub-expression (the *core divisor*)
as a new node and dividing by that instead.

Selection works exactly as in the paper:

1. **Voting.**  For every literal wire in the dividend's cubes, run the
   stuck-at-1 mandatory-assignment implications of that wire in the
   *original* structure (activation, side literals at 1, every other
   dividend cube at 0).  Divisor cubes implied to 0 form the wire's
   *candidate core divisor*: had that candidate been the core, the
   required core-at-1 assignment would conflict and the wire would be
   removed.
2. **Feasibility.**  A vote is kept only if the candidate is an SOS of
   the wire's own cube — otherwise adding the core wire would not be
   redundant (Table I's deleted rows).
3. **Clique.**  Build a graph with a vertex per surviving wire and an
   edge where two candidates intersect; a clique with a non-empty
   common intersection is a core expected to remove all of the
   clique's wires.  The maximum clique picks the core (exact below a
   size threshold, greedy degeneracy order above it).

Cubes may be pooled from several divisor nodes; the chosen core must
come from a single node (it has to be a decomposition of that node).
"""

from __future__ import annotations

import dataclasses
from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple,
)

import networkx as nx

from repro.twolevel.cube import Cube
from repro.twolevel.cover import Cover
from repro.twolevel.complement import complement
from repro.circuit.circuit import Circuit
from repro.atpg.implication import imply
from repro.network.network import Network
from repro.core.config import DivisionConfig
from repro.core.division import (
    add_cube_gate,
    build_analysis_circuit,
    dividend_cube_signal,
    divisor_cube_signal,
)

if TYPE_CHECKING:
    from repro.sim.witness import WitnessScreen


@dataclasses.dataclass
class VoteEntry:
    """One wire's row of the vote table."""

    cube_index: int
    var: int  # index into the shared signal list
    phase: bool
    #: divisor name -> indices of that divisor's cubes implied to 0.
    candidates: Dict[str, FrozenSet[int]]
    #: True when the wire's fault already conflicts with no core at
    #: all — the wire is redundant as-is.
    already_redundant: bool = False

    def wire_name(self, shared: Sequence[str]) -> str:
        name = shared[self.var]
        return name if self.phase else name + "'"


@dataclasses.dataclass
class VoteTable:
    """The vote table for one dividend against a set of divisors.

    For ``form == "pos"`` everything lives in the dual space: the
    dividend/divisor covers here are the complements of the node
    covers, whose cubes correspond one-to-one to the functions' sum
    terms, and "cube implied 0" reads as "sum term implied 1" — the
    symmetric case the paper describes at the end of Section IV.
    """

    f_name: str
    shared: List[str]
    dividend: Cover  # in the shared space
    divisor_cubes: Dict[str, Cover]  # each divisor in the shared space
    entries: List[VoteEntry]
    form: str = "sop"
    #: Wires whose vote a witness settled without an implication run.
    witnessed: int = 0

    def to_str(self) -> str:
        lines = [f"vote table for {self.f_name}:"]
        for entry in self.entries:
            cube = self.dividend.cubes[entry.cube_index]
            votes = ", ".join(
                f"{d}:{sorted(s)}" for d, s in entry.candidates.items() if s
            )
            lines.append(
                f"  wire {entry.wire_name(self.shared)} of cube "
                f"{cube.to_str(self.shared)} -> {votes or '(none)'}"
            )
        return "\n".join(lines)


def dual_cube_signal(name: str, index: int) -> str:
    """Signal name of a synthetic dual-cube (sum-term) AND gate."""
    return f"{name}.p{index}"


def build_vote_table(
    network: Network,
    f_name: str,
    divisor_names: Sequence[str],
    config: DivisionConfig,
    form: str = "sop",
    screen=None,
) -> VoteTable:
    """Run the voting implications for every wire of *f*'s cubes.

    With ``form == "pos"`` the wires are the literals of *f*'s sum
    terms and the candidates are divisor *sum terms* implied to 1 —
    realized by voting in the dual (complement-cover) space with
    synthetic AND gates for every dual cube.

    *screen* is an optional :class:`~repro.sim.witness.WitnessScreen`
    over signatures that match *network*.  A wire it settles gets the
    empty vote without an implication run, and the analysis circuit is
    built only for the first wire it leaves open.
    """
    if form not in ("sop", "pos"):
        raise ValueError("form must be 'sop' or 'pos'")
    f_node = network.nodes[f_name]
    if f_node.cover is None:
        raise ValueError("cannot build a vote table for a primary input")

    shared = list(f_node.fanins)
    for d_name in divisor_names:
        for name in network.nodes[d_name].fanins:
            if name not in shared:
                shared.append(name)
    index = {name: i for i, name in enumerate(shared)}
    n = len(shared)
    f_cover = f_node.cover if form == "sop" else complement(f_node.cover)
    dividend = f_cover.remap(
        [index[name] for name in f_node.fanins], n
    )
    divisor_cubes: Dict[str, Cover] = {}
    for d_name in divisor_names:
        d_node = network.nodes[d_name]
        d_cover = (
            d_node.cover if form == "sop" else complement(d_node.cover)
        )
        divisor_cubes[d_name] = d_cover.remap(
            [index[name] for name in d_node.fanins], n
        )
    cube_signal = (
        dividend_cube_signal if form == "sop" else dual_cube_signal
    )

    circuit: Optional[Circuit] = None

    def analysis_circuit() -> Circuit:
        nonlocal circuit
        if circuit is not None:
            return circuit
        circuit = build_analysis_circuit(
            network, f_name, divisor_names, config
        )
        # Dividend cube gates (all cubes; the original, unrestructured f).
        for i, cube in enumerate(dividend.cubes):
            add_cube_gate(circuit, cube_signal(f_name, i), cube, shared)
        if form == "pos":
            # Synthetic dual-cube gates for the divisors (their real
            # gates stay in the circuit and add implication power).
            for d_name, cover in divisor_cubes.items():
                for j, cube in enumerate(cover.cubes):
                    name = dual_cube_signal(d_name, j)
                    if name not in circuit.gates:
                        add_cube_gate(circuit, name, cube, shared)
        return circuit

    witness = None
    if screen is not None:
        witness = _VoteWitness(
            screen,
            shared,
            {
                cube_signal(f_name, i): screen.cube(cube, shared)
                for i, cube in enumerate(dividend.cubes)
            },
        )

    entries: List[VoteEntry] = []
    for i, cube in enumerate(dividend.cubes):
        for var, phase in cube.literals():
            entry = _vote_for_wire(
                analysis_circuit,
                f_name,
                shared,
                dividend,
                divisor_cubes,
                i,
                var,
                phase,
                config,
                form,
                witness,
            )
            entries.append(entry)
    return VoteTable(
        f_name=f_name,
        shared=shared,
        dividend=dividend,
        divisor_cubes=divisor_cubes,
        entries=entries,
        form=form,
        witnessed=0 if witness is None else witness.witnessed,
    )


@dataclasses.dataclass
class _VoteWitness:
    """A vote table's view of the witness screen: the table's shared
    signals and the packed values of its dividend cube gates."""

    screen: WitnessScreen
    shared: List[str]
    gates: Dict[str, int]
    witnessed: int = 0

    def settles(
        self,
        assignments: List[Tuple[str, bool]],
        cube: Cube,
        divisor_cubes: Dict[str, Cover],
    ) -> bool:
        """True when a witness meets *assignments* and every divisor
        cube containing the wire's *cube* is 1 on some witness: no such
        cube can be implied to 0, so the wire's vote is empty."""
        screen = self.screen
        mask = screen.witnesses(assignments, self.gates)
        if not mask:
            return False
        for cover in divisor_cubes.values():
            for k in cover.cubes:
                if k.contains(cube) and not mask & screen.cube(k, self.shared):
                    return False
        self.witnessed += 1
        screen.tests_witnessed += 1
        return True


def _vote_for_wire(
    analysis_circuit: Callable[[], Circuit],
    f_name: str,
    shared: List[str],
    dividend: Cover,
    divisor_cubes: Dict[str, Cover],
    cube_index: int,
    var: int,
    phase: bool,
    config: DivisionConfig,
    form: str = "sop",
    witness: Optional[_VoteWitness] = None,
) -> VoteEntry:
    cube_signal = (
        dividend_cube_signal if form == "sop" else dual_cube_signal
    )
    d_signal = divisor_cube_signal if form == "sop" else dual_cube_signal
    cube = dividend.cubes[cube_index]
    assignments: List[Tuple[str, bool]] = [(shared[var], not phase)]
    for v, p in cube.literals():
        if v != var:
            assignments.append((shared[v], p))
    for j in range(len(dividend.cubes)):
        if j != cube_index:
            assignments.append((cube_signal(f_name, j), False))

    if witness is not None and witness.settles(
        assignments, cube, divisor_cubes
    ):
        return VoteEntry(cube_index, var, phase, {})
    state = imply(analysis_circuit(), assignments, config.learn_depth)
    if state is None:
        return VoteEntry(cube_index, var, phase, {}, already_redundant=True)

    candidates: Dict[str, FrozenSet[int]] = {}
    for d_name, cover in divisor_cubes.items():
        zeros = frozenset(
            j
            for j in range(len(cover.cubes))
            if state.value(d_signal(d_name, j)) is False
        )
        # Feasibility (Table I(b)): the candidate must be an SOS of the
        # wire's own cube, i.e. some implied-zero divisor cube must
        # contain it; otherwise adding the core would not be redundant.
        if zeros and any(
            cover.cubes[j].contains(cube) for j in zeros
        ):
            candidates[d_name] = zeros
    return VoteEntry(cube_index, var, phase, candidates)


# ----------------------------------------------------------------------
# Clique-based core selection
# ----------------------------------------------------------------------
def _vote_graph(entries: List[VoteEntry]) -> nx.Graph:
    graph = nx.Graph()
    for i, entry in enumerate(entries):
        if entry.candidates:
            graph.add_node(i)
    nodes = list(graph.nodes)
    for a_pos, i in enumerate(nodes):
        for j in nodes[a_pos + 1 :]:
            ei, ej = entries[i], entries[j]
            if any(
                d in ej.candidates and ei.candidates[d] & ej.candidates[d]
                for d in ei.candidates
            ):
                graph.add_edge(i, j)
    return graph


def _max_clique(graph: nx.Graph, exact_limit: int) -> List[int]:
    if graph.number_of_nodes() == 0:
        return []
    if graph.number_of_nodes() <= exact_limit:
        clique, _ = nx.max_weight_clique(graph, weight=None)
        return sorted(clique)
    # Greedy fallback: grow from the highest-degree vertex.
    order = sorted(graph.nodes, key=lambda v: -graph.degree[v])
    clique: List[int] = []
    for v in order:
        if all(graph.has_edge(v, u) for u in clique):
            clique.append(v)
    return sorted(clique)


@dataclasses.dataclass
class CoreChoice:
    """The selected core divisor."""

    divisor_name: str
    cube_indices: Tuple[int, ...]
    #: entries (by table index) expected to be removed by this core.
    supporting_wires: Tuple[int, ...]


def choose_core_divisor(
    table: VoteTable, config: DivisionConfig
) -> Optional[CoreChoice]:
    """Pick the core divisor by maximum clique over the vote graph.

    The chosen core must come from a single divisor node.  Within the
    clique, each divisor's candidate intersection is computed; the
    divisor supported by the most wires (with a non-empty, per-wire
    feasible intersection) wins.
    """
    entries = table.entries
    graph = _vote_graph(entries)
    clique = _max_clique(graph, config.exact_clique_limit)
    if not clique:
        return None

    best: Optional[CoreChoice] = None
    divisors = set()
    for i in clique:
        divisors.update(entries[i].candidates)
    for d_name in sorted(divisors):
        members = [i for i in clique if d_name in entries[i].candidates]
        if not members:
            continue
        common: FrozenSet[int] = entries[members[0]].candidates[d_name]
        supporters = []
        for i in members:
            candidate = common & entries[i].candidates[d_name]
            if candidate:
                common = candidate
                supporters.append(i)
        if not common:
            continue
        cover = table.divisor_cubes[d_name]
        feasible = [
            i
            for i in supporters
            if any(
                cover.cubes[j].contains(
                    table.dividend.cubes[entries[i].cube_index]
                )
                for j in common
            )
        ]
        if not feasible:
            continue
        choice = CoreChoice(
            divisor_name=d_name,
            cube_indices=tuple(sorted(common)),
            supporting_wires=tuple(feasible),
        )
        if best is None or len(choice.supporting_wires) > len(
            best.supporting_wires
        ):
            best = choice
    return best


def core_prefix(divisor_name: str) -> str:
    """The fresh-name prefix of a core node exposed from *divisor_name*
    (both decompositions take ``network.fresh_name`` of it)."""
    return f"{divisor_name}_core"


def decompose_divisor(
    network: Network, divisor_name: str, cube_indices: Sequence[int]
) -> str:
    """Split ``d = dc + dr``, exposing the core as a new node.

    Returns the new core node's name.  The divisor keeps its name and
    function (now expressed as ``core + remaining cubes``), so its
    fanouts are untouched.
    """
    d_node = network.nodes[divisor_name]
    cover = d_node.cover
    selected = set(cube_indices)
    if not selected or selected == set(range(cover.num_cubes())):
        raise ValueError("core must be a proper, non-empty cube subset")

    core_name = network.fresh_name(core_prefix(divisor_name))
    core_cover = Cover(
        cover.num_vars, [cover.cubes[i] for i in sorted(selected)]
    )
    core_node = network.add_node(core_name, list(d_node.fanins), core_cover)
    core_node.prune_unused_fanins()

    remaining = [
        cover.cubes[i]
        for i in range(cover.num_cubes())
        if i not in selected
    ]
    new_fanins = list(d_node.fanins) + [core_name]
    y = Cube.literal(len(d_node.fanins), True)
    new_cover = Cover(len(new_fanins), remaining + [y])
    d_node.set_function(new_fanins, new_cover)
    d_node.prune_unused_fanins()
    return core_name


def decompose_divisor_pos(
    network: Network, divisor_name: str, dual_indices: Sequence[int]
) -> str:
    """POS decomposition ``d = dc · dr`` around selected sum terms.

    *dual_indices* select cubes of the divisor's *complement* cover
    (i.e. sum terms of ``d``).  The exposed core node computes the
    product of the selected sum terms, and the divisor becomes
    ``core AND (remaining sum terms)`` — the dual of
    :func:`decompose_divisor`.
    """
    d_node = network.nodes[divisor_name]
    dual = complement(d_node.cover)
    selected = set(dual_indices)
    if not selected or selected == set(range(dual.num_cubes())):
        raise ValueError("core must be a proper, non-empty sum-term subset")

    core_name = network.fresh_name(core_prefix(divisor_name))
    selected_dual = Cover(
        dual.num_vars, [dual.cubes[i] for i in sorted(selected)]
    )
    core_cover = complement(selected_dual)
    core_node = network.add_node(
        core_name, list(d_node.fanins), core_cover
    )
    core_node.prune_unused_fanins()

    remaining_dual = Cover(
        dual.num_vars,
        [dual.cubes[i] for i in range(dual.num_cubes()) if i not in selected],
    )
    rest_cover = complement(remaining_dual)
    new_fanins = list(d_node.fanins) + [core_name]
    y = Cube.literal(len(d_node.fanins), True)
    cubes = []
    for cube in rest_cover.cubes:
        merged = cube.intersect(y)
        if merged is not None:
            cubes.append(merged)
    d_node.set_function(new_fanins, Cover(len(new_fanins), cubes))
    d_node.prune_unused_fanins()
    return core_name
