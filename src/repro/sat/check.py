"""SAT-backed equivalence and untestability checks.

The two user-facing oracles of the SAT subsystem:

* :func:`sat_equivalent` — combinational equivalence of two
  :class:`~repro.network.network.Network` objects through a CNF miter
  (UNSAT proves equivalence; SAT yields a counterexample input
  assignment).
* :func:`sat_wire_untestable` — stuck-at-fault untestability through
  the same miter the D-algorithm searches
  (:func:`repro.atpg.dalg.build_miter`), Tseitin-encoded and handed to
  CDCL instead of branch-and-propagate.

Both return a :class:`Verdict` whose ``verdict`` is three-valued:
``True`` / ``False`` when the solve completed, ``None`` when the
conflict budget ran out — mirroring
:func:`repro.atpg.dalg.prove_redundant`, and carrying the same
conservative-consumer contract (an exhausted proof is *never* treated
as a proof: a verdict is truthy only for a completed ``True``).  The
same type carries the enumeration backend's answers
(:func:`repro.network.verify.exhaustive_equivalent`) out of
:func:`repro.network.verify.exact_equivalent`, the one place that
picks a backend.

An enabled tracer records each call as one ``sat_solve`` span with the
CNF size and the solver counters, so ``repro trace report`` and the
profile rollup see the backend.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Set

from repro.network.network import Network
from repro.sat.cnf import Cnf, CnfStats, build_miter, encode_circuit
from repro.sat.solver import SolveResult, solve_cnf

#: Default conflict budget for one equivalence/untestability solve.
#: Far above what the corpus needs (typical miters close in tens of
#: conflicts); the point is to bound pathological instances, report
#: ``complete=False``, and let the caller treat it as unproven.
DEFAULT_CONFLICT_BUDGET = 100_000


@dataclasses.dataclass(frozen=True)
class Verdict:
    """One exact check: three-valued verdict, its backend, evidence.

    ``verdict`` answers the caller's question (*equivalent?* /
    *untestable?* — both ask whether the two sides of a miter are
    equal); ``None`` means the conflict budget ran out.  ``backend``
    is ``"exhaustive"`` (every input pattern simulated; never
    ``None``) or ``"sat"``.  ``counterexample`` is a primary-input
    assignment over the PI union witnessing a ``False`` verdict (a
    distinguishing input for equivalence, a test vector for
    untestability); the enumeration gives the lowest differing
    pattern, SAT the solver's model.  Networks with different PO name
    sets are ``False`` without one.  The solver counters and CNF stats
    ride along for spans and
    :class:`~repro.core.substitution.SubstitutionStats`; an
    enumeration verdict leaves them at zero.

    ``bool(verdict)`` is True only for a completed proof of equality,
    so ``if not verdict`` rejects both a difference and an unknown.
    """

    verdict: Optional[bool]
    backend: str
    counterexample: Optional[Dict[str, bool]] = None
    cnf: CnfStats = CnfStats(0, 0, 0)
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    learned: int = 0
    restarts: int = 0

    def __bool__(self) -> bool:
        return self.verdict is True

    @property
    def complete(self) -> bool:
        return self.verdict is not None

    @property
    def status(self) -> str:
        """``"equal"``, ``"different"`` or ``"unknown"``."""
        if self.verdict is None:
            return "unknown"
        return "equal" if self.verdict else "different"

    @staticmethod
    def _from_solve(
        question_answer: Optional[bool],
        result: SolveResult,
        stats: CnfStats,
        counterexample: Optional[Dict[str, bool]],
    ) -> "Verdict":
        return Verdict(
            verdict=question_answer,
            backend="sat",
            counterexample=counterexample,
            cnf=stats,
            conflicts=result.conflicts,
            decisions=result.decisions,
            propagations=result.propagations,
            learned=result.learned,
            restarts=result.restarts,
        )


def _solve_span(tracer, check: str, cnf: Cnf, solve, **attrs):
    """Run *solve* under one ``sat_solve`` span; returns its result."""
    from repro.obs.tracer import as_tracer

    stats = cnf.stats()
    with as_tracer(tracer).span(
        "sat_solve",
        check=check,
        vars=stats.variables,
        clauses=stats.clauses,
        **attrs,
    ) as span:
        result = solve()
        span.annotate(
            sat=result.satisfiable,
            complete=result.complete,
            conflicts=result.conflicts,
            decisions=result.decisions,
            propagations=result.propagations,
            learned=result.learned,
        )
    return result, stats


def sat_equivalent(
    a: Network,
    b: Network,
    conflict_budget: Optional[int] = DEFAULT_CONFLICT_BUDGET,
    tracer=None,
) -> Verdict:
    """Exact combinational equivalence through a CNF miter.

    ``verdict=True`` (UNSAT miter) proves the networks agree on every
    input; ``verdict=False`` carries a counterexample assignment over
    the shared PI union; ``verdict=None`` means the conflict budget
    ran out (``complete=False``): not a proof either way.
    Networks with different PO name sets are trivially inequivalent
    (same convention as the enumeration), without a counterexample.
    """
    if sorted(a.pos) != sorted(b.pos):
        return Verdict(verdict=False, backend="sat")
    miter = build_miter(a, b)
    result, stats = _solve_span(
        tracer,
        "equivalence",
        miter.cnf,
        lambda: solve_cnf(miter.cnf, conflict_budget=conflict_budget),
        pis=len(miter.pi_vars),
        pos=len(miter.diff_vars),
        shared=miter.shared,
    )
    if not result.complete:
        return Verdict._from_solve(None, result, stats, None)
    if result.satisfiable:
        model = result.model or {}
        counterexample = {
            pi: model.get(var, False)
            for pi, var in miter.pi_vars.items()
        }
        return Verdict._from_solve(False, result, stats, counterexample)
    return Verdict._from_solve(True, result, stats, None)


def sat_wire_untestable(
    circuit,
    fault,
    observables: Optional[Set[str]] = None,
    conflict_budget: Optional[int] = DEFAULT_CONFLICT_BUDGET,
    tracer=None,
) -> Verdict:
    """Stuck-at-fault untestability via a CNF-encoded fault miter.

    Builds the exact miter the D-algorithm searches (good circuit,
    faulty copy, XOR/OR comparator over the observables), asserts its
    difference output, and asks CDCL: UNSAT means no input ever
    exposes the fault (``verdict=True``, the wire is untestable /
    redundant); SAT returns the test vector as the counterexample;
    an exhausted budget returns ``verdict=None``.
    """
    from repro.atpg.dalg import build_miter as build_fault_miter
    from repro.atpg.dalg import miter_output

    miter_circuit = build_fault_miter(circuit, fault, observables)
    cnf = Cnf()
    values = encode_circuit(cnf, miter_circuit)
    cnf.add_clause((values[miter_output()],))
    result, stats = _solve_span(
        tracer,
        "untestable",
        cnf,
        lambda: solve_cnf(cnf, conflict_budget=conflict_budget),
        gate=fault.gate,
        input=fault.input_index,
        stuck=fault.stuck_value,
    )
    if not result.complete:
        return Verdict._from_solve(None, result, stats, None)
    if result.satisfiable:
        model = result.model or {}
        test = {
            pi: model.get(values[pi], False)
            for pi in miter_circuit.pis()
        }
        return Verdict._from_solve(False, result, stats, test)
    return Verdict._from_solve(True, result, stats, None)

