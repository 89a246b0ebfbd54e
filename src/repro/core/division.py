"""Basic Boolean division by redundancy addition and removal.

Section III-B of the paper, generalized to the full set of variants the
experiments need:

* divisor used in positive or complemented phase,
* dividend treated in sum-of-products or (dually) product-of-sums form,
* implications confined to the dividend/divisor regions or extended
  through the whole circuit (global don't cares), with optional
  recursive learning,
* division by a *core* subset of the divisor's cubes (the hook used by
  extended division).

The algorithm, for ``f`` divided by ``d``:

1. Map ``f`` and ``d`` into a shared variable space and split the
   dividend's cubes into the region ``F1`` (cubes contained by some
   divisor cube — the divisor is an SOS of ``F1``) and the remainder
   ``R``.  By Lemma 1 the rewrite ``f = R + (d · F1)`` is redundant *a
   priori*.
2. Run redundancy removal inside ``F1``: a literal wire whose
   stuck-at-1 mandatory assignments conflict is dropped; a cube whose
   OR-input stuck-at-0 mandatory assignments conflict is dropped.  The
   mandatory set encodes the specialized structure: activation, the
   faulty cube's side literals at 1, every other region cube at 0, the
   divisor at its required phase, and every remainder cube at 0 —
   implications then flow through the divisor's gates (and, with
   global don't cares, through the rest of the circuit), which is
   exactly what makes the division Boolean.
3. What survives of ``F1`` is the quotient: ``f = d·q + r``.

POS-form division reuses the same machinery through duality: with
``F' = complement(f)``, a POS division of ``f`` by ``d`` is the SOP
division ``f' = d'·q + r``, and the result is complemented back.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.twolevel.cube import Cube
from repro.twolevel.cover import Cover
from repro.twolevel.complement import complement
from repro.circuit.circuit import Circuit
from repro.circuit.gate import Gate, GateKind
from repro.atpg.implication import imply
from repro.network.factor import factored_literals
from repro.network.network import Network
from repro.core.config import DivisionConfig
from repro.core.sos_pos import sos_split
from repro.obs.tracer import NULL_TRACER, as_tracer

#: Synthetic OR gate asserting the (possibly core) divisor's value.
CORE_SIGNAL = "__core__"

#: The four (phase, form) variants of basic division, in the order
#: :func:`divide_node_pair` tries them.  Subsets passed via its
#: ``attempts`` parameter must preserve this order so equal-gain ties
#: break identically with and without candidate filtering.
ALL_ATTEMPTS: Tuple[Tuple[bool, str], ...] = (
    (True, "sop"),
    (False, "sop"),
    (True, "pos"),
    (False, "pos"),
)


def enabled_attempts(config: DivisionConfig) -> List[Tuple[bool, str]]:
    """The (phase, form) variants *config* allows, in canonical order."""
    attempts: List[Tuple[bool, str]] = [(True, "sop")]
    if config.try_complement:
        attempts.append((False, "sop"))
    if config.try_pos:
        attempts.append((True, "pos"))
        if config.try_complement:
            attempts.append((False, "pos"))
    return attempts


@dataclasses.dataclass
class DivisionResult:
    """Outcome of one Boolean division of node *f* by node *d*."""

    f_name: str
    divisor_name: str
    #: True when the substituted literal is the divisor itself,
    #: False when it is the divisor's complement.
    phase: bool
    #: "sop" or "pos" — the form in which the division ran.
    form: str
    #: New fanin list and cover for *f* after substitution.
    new_fanins: List[str]
    new_cover: Cover
    #: Quotient and remainder in the shared variable space (for the
    #: POS form these describe the dual/complement division).
    quotient: Cover
    remainder: Cover
    #: Region statistics from the removal loop.
    wires_removed: int = 0
    cubes_removed: int = 0
    #: Factored-literal gain on *f* (decomposition costs not included).
    gain: int = 0


def _uniform_node_gates(
    name: str, fanins: Sequence[str], cover: Cover, cube_prefix: str
) -> List[Gate]:
    """Two-level gates with one AND per cube (uniform, for analysis).

    Unlike :func:`repro.circuit.decompose.node_region_gates`, every
    cube gets its own gate (``{name}{cube_prefix}{i}``) so mandatory
    assignments can name individual cubes.
    """
    if cover.is_zero():
        return [Gate(name, GateKind.CONST0)]
    if cover.is_one_cube():
        return [Gate(name, GateKind.CONST1)]
    gates: List[Gate] = []
    or_inputs: List[Tuple[str, bool]] = []
    for i, cube in enumerate(cover.cubes):
        gate_name = f"{name}{cube_prefix}{i}"
        inputs = [(fanins[v], p) for v, p in cube.literals()]
        gates.append(Gate(gate_name, GateKind.AND, inputs))
        or_inputs.append((gate_name, True))
    gates.append(Gate(name, GateKind.OR, or_inputs))
    return gates


def divisor_cube_signal(divisor_name: str, index: int) -> str:
    """Signal name of a divisor cube's AND gate in analysis circuits."""
    return f"{divisor_name}.k{index}"


def dividend_cube_signal(f_name: str, index: int) -> str:
    """Signal name of a dividend cube's AND gate in analysis circuits."""
    return f"{f_name}.q{index}"


def build_analysis_circuit(
    network: Network,
    f_name: str,
    divisor_names: Sequence[str],
    config: DivisionConfig,
) -> Circuit:
    """The implication circuit for dividing *f* by the given divisors.

    Always contains the divisors' two-level structure.  With
    ``config.global_dc`` it additionally contains every node outside
    the transitive fanout of *f* (signals there are fault-free, so
    their implications are sound necessary conditions); without it,
    all other signals are free variables.

    The dividend's cube gates are added separately by the caller
    because their cubes change during the removal loop (and differ
    between SOP and POS form).
    """
    circuit = Circuit(f"div:{f_name}")
    excluded: Set[str] = {f_name}
    if config.global_dc:
        excluded |= network.transitive_fanout(f_name)
        include = [
            name
            for name in network.topo_order()
            if name not in excluded
        ]
    else:
        include = [d for d in divisor_names if d not in excluded]

    added: Set[str] = set()
    for name in include:
        node = network.nodes[name]
        if node.is_pi:
            circuit.add_pi(name)
            added.add(name)
            continue
        for gate in _uniform_node_gates(
            name, node.fanins, node.cover, ".k"
        ):
            circuit.add_gate(gate)
        added.add(name)

    # Any referenced signal without a driver becomes a free PI.
    referenced: Set[str] = set()
    for gate in list(circuit.gates.values()):
        for signal, _ in gate.inputs:
            referenced.add(signal)
    for name in network.nodes:
        if name in referenced and name not in circuit.gates:
            circuit.add_pi(name)
    return circuit


class RegionRemover:
    """The wire/cube redundancy-removal loop over the ``F1`` region.

    Each region cube gets an AND gate in *circuit*; a literal (cube) is
    dropped when the stuck-at-1 (stuck-at-0) fault on its wire has
    conflicting mandatory assignments: the faulty cube's other
    literals at 1, every other region cube and every remainder signal
    at 0, and *divisor_assignment* when one is given.  Without a
    divisor assignment this is plain excitation-only removal on a
    cover, which is how the simulation-guided engine cleans its
    candidates.
    """

    def __init__(
        self,
        circuit: Circuit,
        f_name: str,
        shared: List[str],
        region: Dict[int, Cube],
        remainder_signals: List[str],
        divisor_assignment: Optional[Tuple[str, bool]],
        config: DivisionConfig,
        budget=None,
    ):
        self.circuit = circuit
        self.f_name = f_name
        self.shared = shared
        self.region = region
        self.remainder_signals = remainder_signals
        self.divisor_assignment = divisor_assignment
        self.config = config
        #: Optional :class:`~repro.resilience.budget.RunBudget`; the
        #: wall-clock deadline is honoured before every redundancy test
        #: so one pathological region cannot overshoot it by more than
        #: a single implication run.
        self.budget = budget
        self.wires_removed = 0
        self.cubes_removed = 0
        #: Optional complete-don't-care oracle: called with a candidate
        #: region (post-removal) when the implication test fails; True
        #: means the removal is still safe (the change lies entirely in
        #: the node's don't-care set).
        self.removal_oracle = None
        for i, cube in region.items():
            self._install_cube_gate(i, cube)

    # -- circuit bookkeeping -------------------------------------------
    def _install_cube_gate(self, index: int, cube: Cube) -> None:
        name = dividend_cube_signal(self.f_name, index)
        inputs = [(self.shared[v], p) for v, p in cube.literals()]
        if name in self.circuit.gates:
            self.circuit.remove_gate(name)
        if inputs:
            self.circuit.add_and(name, inputs)
        else:
            self.circuit.add_gate(Gate(name, GateKind.CONST1))

    def _drop_cube_gate(self, index: int) -> None:
        name = dividend_cube_signal(self.f_name, index)
        if name in self.circuit.gates:
            self.circuit.remove_gate(name)

    # -- fault checks ---------------------------------------------------
    def _base_assignments(self, active: int) -> List[Tuple[str, bool]]:
        assignments = []
        if self.divisor_assignment is not None:
            assignments.append(self.divisor_assignment)
        for j in self.region:
            if j != active:
                assignments.append(
                    (dividend_cube_signal(self.f_name, j), False)
                )
        for signal in self.remainder_signals:
            assignments.append((signal, False))
        return assignments

    def _conflicts(self, assignments: List[Tuple[str, bool]]) -> bool:
        state = imply(self.circuit, assignments, self.config.learn_depth)
        return state is None

    def _literal_removable(self, index: int, var: int, phase: bool) -> bool:
        """Stuck-at-1 test of one literal wire of a region cube."""
        if self.budget is not None:
            self.budget.check_deadline()
        cube = self.region[index]
        assignments = self._base_assignments(index)
        assignments.append((self.shared[var], not phase))
        for v, p in cube.literals():
            if v != var:
                assignments.append((self.shared[v], p))
        if self._conflicts(assignments):
            return True
        if self.removal_oracle is not None:
            candidate = dict(self.region)
            candidate[index] = cube.without_var(var)
            return self.removal_oracle(candidate)
        return False

    def _cube_removable(self, index: int) -> bool:
        """Stuck-at-0 test of a region cube's OR input."""
        if self.budget is not None:
            self.budget.check_deadline()
        cube = self.region[index]
        assignments = self._base_assignments(index)
        for v, p in cube.literals():
            assignments.append((self.shared[v], p))
        if self._conflicts(assignments):
            return True
        if self.removal_oracle is not None:
            candidate = dict(self.region)
            del candidate[index]
            return self.removal_oracle(candidate)
        return False

    # -- main loop ------------------------------------------------------
    def run(self) -> None:
        changed = True
        while changed:
            changed = False
            for index in sorted(self.region):
                cube = self.region[index]
                for var, phase in list(cube.literals()):
                    if self._literal_removable(index, var, phase):
                        cube = cube.without_var(var)
                        self.region[index] = cube
                        self._install_cube_gate(index, cube)
                        self.wires_removed += 1
                        changed = True
                if len(self.region) > 1 and self._cube_removable(index):
                    del self.region[index]
                    self._drop_cube_gate(index)
                    self.cubes_removed += 1
                    changed = True


def boolean_divide(
    network: Network,
    f_name: str,
    divisor_name: str,
    config: DivisionConfig,
    phase: bool = True,
    form: str = "sop",
    core_indices: Optional[Sequence[int]] = None,
    substitute_as: Optional[str] = None,
    circuit: Optional[Circuit] = None,
    budget=None,
    tracer=None,
) -> Optional[DivisionResult]:
    """Divide node *f* by node *divisor* using RAR; None on failure.

    *core_indices* restricts the divisor to a subset of its cubes (the
    extended-division core); it requires ``phase=True`` and
    ``form="sop"``.  *substitute_as* names the node the substituted
    literal should reference (the exposed core node in extended
    division); it defaults to *divisor_name*.  *circuit* lets callers
    reuse a prebuilt analysis circuit (the dividend cube gates are
    managed by this function either way).  *budget* is an optional
    :class:`~repro.resilience.budget.RunBudget` whose deadline is
    honoured inside the removal loop (may raise
    :class:`~repro.resilience.budget.BudgetExhausted`).  *tracer* is an
    optional :class:`~repro.obs.tracer.Tracer`; every invocation
    records one ``divide`` span (with nested ``atpg`` spans for the
    removal loops) and ``None`` traces nothing.
    """
    tracer = as_tracer(tracer)
    if not tracer.enabled:
        return _boolean_divide_impl(
            network, f_name, divisor_name, config, phase, form,
            core_indices, substitute_as, circuit, budget, NULL_TRACER,
        )
    with tracer.span(
        "divide",
        f=f_name,
        d=divisor_name,
        phase=phase,
        form=form,
        core=core_indices is not None,
    ) as span:
        result = _boolean_divide_impl(
            network, f_name, divisor_name, config, phase, form,
            core_indices, substitute_as, circuit, budget, tracer,
        )
        span.annotate(
            success=result is not None,
            gain=None if result is None else result.gain,
        )
        return result


def _boolean_divide_impl(
    network: Network,
    f_name: str,
    divisor_name: str,
    config: DivisionConfig,
    phase: bool,
    form: str,
    core_indices: Optional[Sequence[int]],
    substitute_as: Optional[str],
    circuit: Optional[Circuit],
    budget,
    tracer,
) -> Optional[DivisionResult]:
    if form not in ("sop", "pos"):
        raise ValueError("form must be 'sop' or 'pos'")
    f_node = network.nodes[f_name]
    d_node = network.nodes[divisor_name]
    if f_node.cover is None or d_node.cover is None:
        return None
    if d_node.is_constant() or f_node.is_constant():
        return None
    if core_indices is not None and (not phase or form != "sop"):
        raise ValueError("core division requires phase=True and form='sop'")

    # ------------------------------------------------------------------
    # Shared variable space.
    # ------------------------------------------------------------------
    shared = list(f_node.fanins)
    for name in d_node.fanins:
        if name not in shared:
            shared.append(name)
    index = {name: i for i, name in enumerate(shared)}
    n = len(shared)

    dividend = f_node.cover if form == "sop" else complement(f_node.cover)
    if dividend.is_zero() or dividend.is_one_cube():
        return None
    if dividend.num_cubes() > config.max_region_cubes:
        return None
    f_map = [index[name] for name in f_node.fanins]
    dividend_s = dividend.remap(f_map, n)

    # Effective divisor phase in the (possibly dual) SOP space: a POS
    # division of f by d is an SOP division of f' by d'.
    eff_phase = phase if form == "sop" else not phase
    d_map = [index[name] for name in d_node.fanins]
    divisor_candidates: List[Cover] = []
    if core_indices is not None:
        divisor_candidates.append(
            Cover(
                d_node.cover.num_vars,
                [d_node.cover.cubes[i] for i in core_indices],
            ).remap(d_map, n)
        )
    else:
        if divisor_name in index:
            # The divisor is already one of f's fanins, so the
            # dividend's cubes mention it as a *literal*: take the SOS
            # containment against that literal.  Re-dividing by an
            # existing fanin is how implication conflicts through the
            # fanin's logic simplify f in place.
            divisor_candidates.append(
                Cover(n, [Cube.literal(index[divisor_name], eff_phase)])
            )
        if eff_phase:
            divisor_candidates.append(d_node.cover.remap(d_map, n))
        else:
            divisor_candidates.append(
                complement(d_node.cover).remap(d_map, n)
            )

    # ------------------------------------------------------------------
    # Substituted-cover plumbing shared across candidates.
    # ------------------------------------------------------------------
    y_name = substitute_as or divisor_name
    if y_name in index:
        y_var, new_fanins, width = index[y_name], list(shared), n
    else:
        y_var, new_fanins, width = n, shared + [y_name], n + 1
    y_literal = Cube.literal(y_var, eff_phase)
    base_circuit = circuit

    def run_one(divisor_s: Cover) -> Optional[DivisionResult]:
        region_ids, remainder_ids = sos_split(dividend_s, divisor_s)
        if not region_ids:
            return None

        # -- analysis circuit and the divisor assignment ----------------
        if base_circuit is None:
            work = build_analysis_circuit(
                network, f_name, [divisor_name], config
            )
        else:
            work = base_circuit.copy()
        if core_indices is not None:
            core_or = [
                (divisor_cube_signal(divisor_name, i), True)
                for i in core_indices
                if divisor_cube_signal(divisor_name, i) in work.gates
            ]
            if len(core_or) != len(list(core_indices)):
                # Divisor was degenerate (constant or single-cube node
                # without per-cube gates); core division does not apply.
                return None
            work.add_or(CORE_SIGNAL, core_or)
            divisor_assignment = (CORE_SIGNAL, True)
        else:
            divisor_assignment = (divisor_name, eff_phase)

        region = {i: dividend_s.cubes[i] for i in region_ids}
        remainder_cubes = [dividend_s.cubes[i] for i in remainder_ids]
        remover = RegionRemover(
            circuit=work,
            f_name=f_name,
            shared=shared,
            region=region,
            remainder_signals=[],
            divisor_assignment=divisor_assignment,
            config=config,
            budget=budget,
        )
        # Remainder cubes also need gates (they are asserted to 0
        # during propagation through f's output OR).
        remainder_signals = []
        for offset, cube in enumerate(remainder_cubes):
            name = dividend_cube_signal(
                f_name, len(dividend_s.cubes) + offset
            )
            inputs = [(shared[v], p) for v, p in cube.literals()]
            if inputs:
                work.add_and(name, inputs)
            else:  # a full remainder cube would make f constant 1
                work.add_gate(Gate(name, GateKind.CONST1))
            remainder_signals.append(name)
        remover.remainder_signals = remainder_signals

        def assemble(region_dict: Dict[int, Cube]) -> Optional[Cover]:
            cubes: List[Cube] = []
            for i in sorted(region_dict):
                merged = region_dict[i].intersect(y_literal)
                if merged is None:
                    return None  # quotient mentions y in opposite phase
                cubes.append(merged)
            cubes.extend(remainder_cubes)
            cover = Cover(width, cubes).single_cube_containment()
            if form == "pos":
                cover = complement(cover)
            return cover

        if (
            config.oracle_dc
            and substitute_as is None
            and len(network.pis) <= 20
        ):
            from repro.network.verify import networks_equivalent

            reference = network.copy("oracle-reference")

            def oracle(candidate: Dict[int, Cube]) -> bool:
                if not candidate:
                    return False
                cover = assemble(candidate)
                if cover is None:
                    return False
                saved = (list(f_node.fanins), f_node.cover)
                try:
                    f_node.set_function(new_fanins, cover)
                    return networks_equivalent(reference, network)
                finally:
                    f_node.set_function(*saved)

            remover.removal_oracle = oracle

        with tracer.span(
            "atpg", f=f_name, d=divisor_name, region=len(region)
        ) as atpg_span:
            remover.run()
            atpg_span.annotate(
                wires_removed=remover.wires_removed,
                cubes_removed=remover.cubes_removed,
            )

        if not remover.region:
            return None
        quotient = Cover(
            n, [remover.region[i] for i in sorted(remover.region)]
        )
        remainder = Cover(n, remainder_cubes)
        substituted = assemble(remover.region)
        if substituted is None:
            return None

        gain = factored_literals(f_node.cover) - factored_literals(
            substituted
        )
        return DivisionResult(
            f_name=f_name,
            divisor_name=y_name,
            phase=phase,
            form=form,
            new_fanins=new_fanins,
            new_cover=substituted,
            quotient=quotient,
            remainder=remainder,
            wires_removed=remover.wires_removed,
            cubes_removed=remover.cubes_removed,
            gain=gain,
        )

    best: Optional[DivisionResult] = None
    for candidate in divisor_candidates:
        if candidate.is_zero():
            continue
        result = run_one(candidate)
        if result is not None and (best is None or result.gain > best.gain):
            best = result
    return best


def apply_division(network: Network, result: DivisionResult) -> None:
    """Install a division result on the network (in place)."""
    node = network.nodes[result.f_name]
    node.set_function(result.new_fanins, result.new_cover)
    node.prune_unused_fanins()


def divide_node_pair(
    network: Network,
    f_name: str,
    divisor_name: str,
    config: DivisionConfig,
    circuit: Optional[Circuit] = None,
    attempts: Optional[Sequence[Tuple[bool, str]]] = None,
    budget=None,
    tracer=None,
) -> Optional[DivisionResult]:
    """Best basic division of *f* by *d* across phases and forms.

    Tries the SOP form with the divisor positive, then (per config) the
    complemented divisor and the POS form, returning the variant with
    the largest positive factored-literal gain, or ``None``.

    *attempts* restricts the (phase, form) variants actually run — the
    signature filter passes the subset it could not refute; variants it
    proved hopeless would return ``None`` here anyway, so the result is
    unchanged.  The subset must keep :data:`ALL_ATTEMPTS` order.
    """
    if attempts is None:
        attempts = enabled_attempts(config)

    best: Optional[DivisionResult] = None
    for phase, form in attempts:
        result = boolean_divide(
            network,
            f_name,
            divisor_name,
            config,
            phase=phase,
            form=form,
            circuit=circuit,
            budget=budget,
            tracer=tracer,
        )
        if result is not None and result.gain > 0:
            if best is None or result.gain > best.gain:
                best = result
    return best


def evaluate_division(
    network: Network,
    f_name: str,
    divisor_name: str,
    config: DivisionConfig,
    attempts: Optional[Sequence[Tuple[bool, str]]] = None,
    circuit: Optional[Circuit] = None,
    tracer=None,
) -> Optional[DivisionResult]:
    """Side-effect-free division of one candidate pair (worker entry).

    This is :func:`divide_node_pair` behind the guards the substitution
    loop normally provides, packaged for speculative evaluation: every
    argument and the returned :class:`DivisionResult` are picklable, the
    network is only *read* (``oracle_dc`` mode mutates-and-restores a
    node transiently, which is safe because workers operate on private
    snapshot copies), and the outcome is a pure function of *f*'s and
    the divisor's ``(fanins, cover)`` state — plus, with
    ``config.global_dc``/``config.oracle_dc``, of the rest of the
    network — which is exactly the validity contract the commit
    protocol in :mod:`repro.parallel.engine` relies on.
    """
    if f_name not in network.nodes or divisor_name not in network.nodes:
        return None
    f_node = network.nodes[f_name]
    if f_node.is_pi or f_node.is_constant() or f_node.cover is None:
        return None
    return divide_node_pair(
        network,
        f_name,
        divisor_name,
        config,
        circuit=circuit,
        attempts=attempts,
        tracer=tracer,
    )
