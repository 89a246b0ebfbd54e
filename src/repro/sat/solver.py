"""A small CDCL SAT solver (zero-dependency, deterministic).

MiniSat's architecture reduced to what the verification backend needs:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with clause learning,
* VSIDS-style variable activities (bump on conflict, geometric decay)
  with phase saving,
* geometric restarts,
* an injectable **conflict budget**: a search that exhausts it returns
  ``complete=False`` — the same three-valued contract as the D-alg's
  backtrack budget, so consumers apply the same conservative mapping
  (an unknown is never treated as a proof).

Everything is deterministic for a fixed clause list: ties in the
activity order break on variable index, and there is no randomness
anywhere, so the ``sat.*`` counters (conflicts, decisions,
propagations, learned clauses) repeat exactly from run to run, like
``divide_calls``.

Literals are DIMACS-style signed integers (see :mod:`repro.sat.cnf`).
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_ACTIVITY_DECAY = 1.0 / 0.95
_ACTIVITY_RESCALE = 1e100
_RESTART_FIRST = 100
_RESTART_GROWTH = 1.5


@dataclasses.dataclass(frozen=True)
class SolveResult:
    """Outcome of one :func:`solve_cnf` call.

    ``satisfiable`` is three-valued: ``True`` with a *model*, ``False``
    for a completed refutation, ``None`` when the conflict budget ran
    out first (then ``complete`` is False and consumers must treat the
    verdict conservatively).
    """

    satisfiable: Optional[bool]
    complete: bool
    model: Optional[Dict[int, bool]]
    conflicts: int
    decisions: int
    propagations: int
    learned: int
    restarts: int


class CdclSolver:
    """One solve over a fixed clause set; build, call :meth:`solve`."""

    def __init__(self, num_vars: int, clauses: Iterable[Sequence[int]]):
        self.num_vars = num_vars
        n = num_vars + 1
        #: 0 = unassigned, +1 = true, -1 = false (indexed by variable).
        self._assign = [0] * n
        self._level = [0] * n
        self._reason: List[Optional[List[int]]] = [None] * n
        self._saved_phase = [False] * n
        self._activity = [0.0] * n
        self._activity_inc = 1.0
        self._order: List[Tuple[float, int]] = []  # lazy max-heap
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        #: literal -> clauses currently watching it.
        self._watches: Dict[int, List[List[int]]] = {}
        self._unsat = False

        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.learned = 0
        self.restarts = 0

        for var in range(1, n):
            heapq.heappush(self._order, (0.0, var))
        for clause in clauses:
            self._add_input_clause(clause)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _add_input_clause(self, literals: Sequence[int]) -> None:
        if self._unsat:
            return
        seen = set()
        clause: List[int] = []
        for lit in literals:
            if -lit in seen:
                return  # tautology: always satisfied, drop it
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
        if not clause:
            self._unsat = True
            return
        if len(clause) == 1:
            lit = clause[0]
            value = self._value(lit)
            if value < 0:
                self._unsat = True
            elif value == 0:
                self._enqueue(lit, None)
            return
        self._attach(clause)

    def _attach(self, clause: List[int]) -> None:
        for lit in clause[:2]:
            self._watches.setdefault(-lit, []).append(clause)

    # ------------------------------------------------------------------
    # Assignment primitives
    # ------------------------------------------------------------------
    def _value(self, lit: int) -> int:
        value = self._assign[abs(lit)]
        return value if lit > 0 else -value

    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> None:
        var = abs(lit)
        self._assign[var] = 1 if lit > 0 else -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        mark = self._trail_lim[level]
        for lit in reversed(self._trail[mark:]):
            var = abs(lit)
            self._saved_phase[var] = lit > 0
            self._assign[var] = 0
            self._reason[var] = None
            heapq.heappush(
                self._order, (-self._activity[var], var)
            )
        del self._trail[mark:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> Optional[List[int]]:
        """Exhaust unit propagation; a falsified clause or ``None``."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            self.propagations += 1
            watchers = self._watches.get(lit)
            if not watchers:
                continue
            kept: List[List[int]] = []
            i = 0
            try:
                while i < len(watchers):
                    clause = watchers[i]
                    i += 1
                    # Normalize: the falsified literal at position 1.
                    if clause[0] == -lit:
                        clause[0], clause[1] = clause[1], clause[0]
                    first = clause[0]
                    if self._value(first) > 0:
                        kept.append(clause)
                        continue
                    for k in range(2, len(clause)):
                        if self._value(clause[k]) >= 0:
                            clause[1], clause[k] = clause[k], clause[1]
                            self._watches.setdefault(
                                -clause[1], []
                            ).append(clause)
                            break
                    else:
                        kept.append(clause)
                        if self._value(first) < 0:
                            kept.extend(watchers[i:])
                            return clause
                        self._enqueue(first, clause)
            finally:
                self._watches[lit] = kept
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _bump(self, var: int) -> None:
        self._activity[var] += self._activity_inc
        if self._activity[var] > _ACTIVITY_RESCALE:
            for v in range(1, self.num_vars + 1):
                self._activity[v] *= 1.0 / _ACTIVITY_RESCALE
            self._activity_inc *= 1.0 / _ACTIVITY_RESCALE

    def _analyze(self, conflict: List[int]) -> Tuple[List[int], int]:
        """Learn a first-UIP clause; returns (clause, backjump level).

        The asserting literal ends up at position 0 and a literal from
        the backjump level at position 1 (the two watch positions).
        """
        learnt: List[int] = []
        seen = [False] * (self.num_vars + 1)
        counter = 0
        p: Optional[int] = None
        index = len(self._trail) - 1
        current = self._decision_level()
        reason: Sequence[int] = conflict
        while True:
            start = 0 if p is None else 1
            for lit in reason[start:]:
                var = abs(lit)
                if seen[var] or self._level[var] == 0:
                    continue
                seen[var] = True
                self._bump(var)
                if self._level[var] >= current:
                    counter += 1
                else:
                    learnt.append(lit)
            while not seen[abs(self._trail[index])]:
                index -= 1
            p = self._trail[index]
            var = abs(p)
            seen[var] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            reason = self._reason[var] or ()
        learnt.insert(0, -p)
        if len(learnt) == 1:
            return learnt, 0
        # Second watch: the deepest literal below the conflict level.
        best = max(
            range(1, len(learnt)), key=lambda i: self._level[abs(learnt[i])]
        )
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, self._level[abs(learnt[1])]

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _decide(self) -> Optional[int]:
        while self._order:
            negact, var = heapq.heappop(self._order)
            if self._assign[var] != 0:
                continue
            if -negact != self._activity[var]:
                # Stale heap entry; re-queue at the current activity.
                heapq.heappush(
                    self._order, (-self._activity[var], var)
                )
                continue
            return var if self._saved_phase[var] else -var
        for var in range(1, self.num_vars + 1):
            if self._assign[var] == 0:
                return var if self._saved_phase[var] else -var
        return None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def solve(
        self, conflict_budget: Optional[int] = None
    ) -> SolveResult:
        if self._unsat:
            return self._result(False, complete=True)
        if self._propagate() is not None:
            return self._result(False, complete=True)
        restart_limit = _RESTART_FIRST
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if self._decision_level() == 0:
                    return self._result(False, complete=True)
                learnt, backjump = self._analyze(conflict)
                self._cancel_until(backjump)
                if len(learnt) > 1:
                    self._attach(learnt)
                    self.learned += 1
                self._enqueue(
                    learnt[0], learnt if len(learnt) > 1 else None
                )
                self._activity_inc *= _ACTIVITY_DECAY
                if (
                    conflict_budget is not None
                    and self.conflicts >= conflict_budget
                ):
                    return self._result(None, complete=False)
                if self.conflicts >= restart_limit:
                    restart_limit = int(
                        restart_limit * _RESTART_GROWTH
                    ) + self.conflicts
                    self.restarts += 1
                    self._cancel_until(0)
                continue
            lit = self._decide()
            if lit is None:
                return self._result(True, complete=True)
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, None)

    def _result(
        self, satisfiable: Optional[bool], complete: bool
    ) -> SolveResult:
        model = None
        if satisfiable:
            model = {
                var: self._assign[var] > 0
                for var in range(1, self.num_vars + 1)
            }
        return SolveResult(
            satisfiable=satisfiable,
            complete=complete,
            model=model,
            conflicts=self.conflicts,
            decisions=self.decisions,
            propagations=self.propagations,
            learned=self.learned,
            restarts=self.restarts,
        )


def solve_cnf(cnf, conflict_budget: Optional[int] = None) -> SolveResult:
    """Solve a :class:`~repro.sat.cnf.Cnf` (or anything with
    ``num_vars`` and ``clauses``) under an optional conflict budget."""
    solver = CdclSolver(cnf.num_vars, cnf.clauses)
    return solver.solve(conflict_budget=conflict_budget)
