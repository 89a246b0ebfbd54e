"""Witnesses: sampled patterns that settle an implication test first.

An implication test (:func:`repro.atpg.implication.imply`) asserts a
fault's mandatory assignments on an analysis circuit and looks for a
conflict, which proves that no input pattern meets them all.  The
engine is sound: it conflicts only when no consistent assignment of
the circuit exists, and it never implies a value that a consistent
assignment contradicts.  Every signal of an analysis circuit is a
network node, a cube over network nodes, or an OR of such cubes, so
each one has a value on every simulated pattern, and those values are
consistent with every gate.  A sampled pattern that meets every
mandatory assignment (a *witness*) therefore proves that the test
cannot conflict, and a cube that is 1 on a witness is never implied
to 0.  The callers skip the ``imply`` call in exactly those cases, so
the screen changes no outcome (DESIGN §17).

A clean (the simguided engine's excitation-only redundancy removal on
a candidate cover) is settled whole by :meth:`WitnessScreen.clean_tests`
when every one of its tests has a witness: then nothing is removed,
and the removal loop would make one sweep and stop.

The signatures must describe the network as it is at the test.  The
run's :class:`~repro.sim.signature.SignatureSimulator` is refreshed
after every commit and rollback; a node it has not seen yet (the core
node extended division exposes just before it divides by it) is
evaluated from its fanins' signatures without touching the simulator.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Tuple

from repro.network.network import eval_cover_packed
from repro.sim.signature import SignatureSimulator
from repro.twolevel.cover import Cover
from repro.twolevel.cube import Cube


class WitnessScreen:
    """Witness masks over one run's maintained signatures.

    ``tests_witnessed`` counts the implication tests the callers
    settled on a witness (removal, clean and vote tests alike).
    """

    def __init__(self, sim: SignatureSimulator):
        self.sim = sim
        self.mask = sim.mask
        self.tests_witnessed = 0

    def signal(self, name: str) -> int:
        """Packed values of network node *name* on the sampled patterns."""
        sig = self.sim.signatures.get(name)
        if sig is None:
            node = self.sim.network.nodes[name]
            fanin_sigs = [self.signal(fanin) for fanin in node.fanins]
            sig = eval_cover_packed(node.cover, fanin_sigs, self.mask)
        return sig

    def cube(self, cube: Cube, shared: Sequence[str]) -> int:
        """Packed values of *cube*, whose variables index *shared*."""
        term = self.mask
        for var, phase in cube.literals():
            value = self.signal(shared[var])
            term &= value if phase else ~value
            if not term:
                break
        return term

    def witnesses(
        self,
        assignments: Iterable[Tuple[str, bool]],
        gates: Mapping[str, int],
    ) -> int:
        """The sampled patterns that meet every ``(signal, value)``
        assignment of an implication test.

        *gates* holds the packed values of the test's analysis-only
        signals (cube gates); every other signal is a network node.
        """
        mask = self.mask
        for name, value in assignments:
            sig = gates.get(name)
            if sig is None:
                sig = self.signal(name)
            mask &= sig if value else ~sig
            if not mask:
                break
        return mask

    def clean_tests(self, cover: Cover, shared: Sequence[str]) -> int:
        """The number of tests the clean of *cover* runs, when a witness
        settles every one of them; 0 when one is left open.

        The clean's tests are each literal's stuck-at-1 test (every
        other cube at 0, the cube's other literals at their phases, the
        tested literal's variable at the opposite phase) and, with more
        than one cube, each cube's stuck-at-0 test (every other cube at
        0, the cube at 1).  Witnessed tests do not conflict, so nothing
        is removed and the one sweep runs exactly these tests.
        """
        mask = self.mask
        literals = []
        values = []
        for cube in cover.cubes:
            lits = []
            term = mask
            for var, phase in cube.literals():
                value = self.signal(shared[var])
                lits.append(value if phase else ~value)
                term &= lits[-1]
            literals.append(lits)
            values.append(term)
        # above[i]: the patterns on which a cube from i on is 1.
        above = [0] * (len(values) + 1)
        for i in range(len(values) - 1, -1, -1):
            above[i] = above[i + 1] | values[i]
        below = 0
        tests = 0
        cube_tests = len(values) > 1
        for i, lits in enumerate(literals):
            # The patterns on which every other cube is 0.
            rest = mask & ~(below | above[i + 1])
            below |= values[i]
            for j, tested in enumerate(lits):
                test = rest & ~tested
                for k, lit in enumerate(lits):
                    if k != j:
                        test &= lit
                if not test:
                    return 0
            tests += len(lits)
            if cube_tests:
                if not rest & values[i]:
                    return 0
                tests += 1
        return tests
