"""The benchmark's four traffic mixes and their seeded job streams.

Every job is BLIF text.  The circuit *structures* of each workload are
fixed, like a benchmark suite; ``--seed`` picks each job's variant: a
non-empty set of primary inputs whose phase is flipped in every table
that reads them (or, for ``edit-verified``, the literal edits).  Every
seed therefore gives different BLIF text and different memo-cache keys,
while the work per job stays comparable across seeds, so a run of a few
seconds resolves a change of a few percent.  Structures come from
:mod:`repro.bench.generators`; the optimizer only ever sees the text.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, Tuple

import oracle

#: Salt of every structure stream.  Changing it redefines the workloads
#: (and invalidates every recorded baseline).
STRUCTURE_SALT = "e2e-v1"

#: Structure indices of the warm-up jobs, disjoint from timed jobs.
WARMUP_BASE = 1_000_000


def phase_variant(text: str, rng: random.Random) -> str:
    """Complement a seeded, non-empty set of primary inputs in every
    table that reads them.

    The result computes ``f(x')`` for ``f(x)``: a different function
    of the same structure.
    """
    model = oracle.parse(text)
    flipped = {name for name in model.inputs if rng.random() < 0.5}
    if not flipped:
        flipped = {rng.choice(model.inputs)}
    invert = str.maketrans("01", "10")
    for table in model.tables:
        columns = {i for i, f in enumerate(table.fanins) if f in flipped}
        table.rows = [
            ("".join(
                ch.translate(invert) if i in columns else ch
                for i, ch in enumerate(pattern)
            ), value)
            for pattern, value in table.rows
        ]
    return oracle.render(model)


def edit_literals(text: str, rng: random.Random, edits: int) -> str:
    """Apply *edits* single-literal edits to random cover rows.

    Each edit changes one character of one row: a literal flips
    phase or is dropped, or an absent variable gains a literal.
    """
    model = oracle.parse(text)
    editable = [t for t in model.tables if t.fanins and t.rows]
    for _ in range(edits):
        table = rng.choice(editable)
        index = rng.randrange(len(table.rows))
        pattern, value = table.rows[index]
        column = rng.randrange(len(pattern))
        char = pattern[column]
        if char == "-":
            new = rng.choice("01")
        else:
            new = rng.choice(["-", "1" if char == "0" else "0"])
        table.rows[index] = (
            pattern[:column] + new + pattern[column + 1:],
            value,
        )
    return oracle.render(model)


class PlantedStream:
    """Distinct planted SOP/POS networks (the paper's regime)."""

    def __init__(self, seed: int):
        self.seed = seed

    @staticmethod
    def structure(index: int) -> str:
        from repro.bench import generators
        from repro.network.blif import to_blif_str

        rng = random.Random(f"{STRUCTURE_SALT}:planted:{index}")
        n_pis = rng.randint(10, 13)
        name = f"planted{index}"
        if rng.random() < 0.75:
            net = generators.planted_network(
                name, rng.randrange(1 << 30), n_pis=n_pis, n_targets=5
            )
        else:
            net = generators.planted_pos_network(
                name, rng.randrange(1 << 30), n_pis=n_pis
            )
        return to_blif_str(net)

    def job(self, index: int) -> str:
        rng = random.Random(f"planted-phase:{self.seed}:{index}")
        return phase_variant(self.structure(index), rng)

    def warmup(self, index: int) -> str:
        rng = random.Random(f"planted-warmup:{index}")
        return phase_variant(self.structure(WARMUP_BASE + index), rng)


#: The structured-block pool: (generator name, argument).  Sized so one
#: pass takes a few seconds: comparators stop at 5 bits because script
#: A on a phase-flipped comparator re-pays its complement computations
#: (cmp8 costs ~3 s of prep per job, cmp10 minutes with a cold cache).
#: The priority encoder stops at 5 inputs: from 6 inputs up its cost
#: depends on which inputs are flipped (pri8 0.1-1.3 s, pri10
#: 0.3-2.6 s), which moved ``job_s.p90`` by a quarter from seed to seed;
#: pri5 costs the same under every flip.
#: The 8-bit ripple adder and CLA (17 PIs) take verification onto SAT.
STRUCTURED_POOL: Tuple[Tuple[str, int], ...] = (
    ("ripple_adder", 8),
    ("carry_lookahead_adder", 6),
    ("carry_lookahead_adder", 8),
    ("alu_slice", 3),
    ("alu_slice", 4),
    ("priority_encoder", 5),
    ("decoder", 3),
    ("decoder", 4),
    ("mux_tree", 3),
    ("mux_tree", 4),
    ("mux_tree", 5),
    ("comparator", 4),
    ("comparator", 5),
    ("parity", 8),
    ("parity", 12),
    ("majority_voter", 5),
    ("majority_voter", 7),
)


class StructuredStream:
    """Seeded draws from :data:`STRUCTURED_POOL`, phase-flipped.

    Each pass draws every block once, in a seeded order, so a run of
    whole passes always holds the same mix of blocks.
    """

    def __init__(self, seed: int):
        from repro.bench import generators
        from repro.network.blif import to_blif_str

        self.seed = seed
        self.blocks = [
            to_blif_str(getattr(generators, name)(arg))
            for name, arg in STRUCTURED_POOL
        ]

    def job(self, index: int) -> str:
        pass_index, offset = divmod(index, len(self.blocks))
        order = list(range(len(self.blocks)))
        random.Random(f"structured:{self.seed}-order:{pass_index}").shuffle(order)
        rng = random.Random(f"structured-phase:{self.seed}:{index}")
        return phase_variant(self.blocks[order[offset]], rng)

    def warmup(self, index: int) -> str:
        rng = random.Random(f"structured-warmup:{index}")
        block = self.blocks[index % len(self.blocks)]
        return phase_variant(block, rng)


class EditStream:
    """One 18-PI planted design resubmitted with 1–3 literal edits."""

    def __init__(self, seed: int):
        from repro.bench import generators
        from repro.network.blif import to_blif_str

        self.seed = seed
        self.base = to_blif_str(
            generators.planted_network(
                "design", 18, n_pis=18, n_divisors=3, n_targets=6
            )
        )

    def job(self, index: int) -> str:
        rng = random.Random(f"edit:{self.seed}:{index}")
        return edit_literals(self.base, rng, rng.randint(1, 3))

    def warmup(self, index: int) -> str:
        rng = random.Random(f"edit-warmup:{index}")
        return edit_literals(self.base, rng, rng.randint(1, 3))


@dataclasses.dataclass(frozen=True)
class Workload:
    """One traffic mix: its job stream and how each job is optimized."""

    name: str
    why: str
    method: str
    overrides: Dict[str, object]
    stream: Callable[[int], object]
    #: Typical seconds per job, scaled to the reference host like every
    #: reported time (``loadgen.speed_kernel``); sizes the job count of
    #: a run from its window.
    nominal_job_s: float
    #: The job count of a run is a multiple of this.
    pass_jobs: int = 1

    def jobs_for(self, seconds: float) -> int:
        """Jobs that fill about *seconds* on the reference host.

        A pure function of the window, never of the machine's speed:
        every run of a workload and window optimizes the same jobs.
        """
        passes = round(seconds / self.nominal_job_s / self.pass_jobs)
        return max(1, passes) * self.pass_jobs


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "planted-ext",
            "distinct planted SOP/POS networks under script A + ext: "
            "Boolean-divisible structure espresso hid; loads core/atpg/sim",
            "ext",
            {},
            PlantedStream,
            nominal_job_s=0.23,
        ),
        Workload(
            "planted-ext-j2",
            "the planted-ext stream with n_jobs=2: the only workload that "
            "runs the parallel engine; read it as a pair with planted-ext",
            "ext",
            {"n_jobs": 2},
            PlantedStream,
            nominal_job_s=0.23,
        ),
        Workload(
            "structured-resub",
            "phase-flipped adders/ALUs/encoders/muxes under simguided: "
            "zero divide calls, SAT validation on 17-PI blocks",
            "simguided",
            {},
            StructuredStream,
            nominal_job_s=0.16,
            pass_jobs=len(STRUCTURED_POOL),
        ),
        Workload(
            "edit-verified",
            "one 18-PI design resubmitted with 1-3 literal edits, every "
            "commit SAT-verified: shared structure across jobs",
            "ext",
            {"verify_commits": True, "verify_full_every": 1},
            EditStream,
            nominal_job_s=0.22,
        ),
    )
}
