"""Independent correctness oracle for the end-to-end benchmark.

Compares the function of an input BLIF text with the optimizer's
output BLIF text by evaluating every ``.names`` table bit-parallel: one
Python integer per signal, one bit per input pattern.  Up to
:data:`EXHAUSTIVE_PIS` primary inputs every input combination is
evaluated, so agreement is a proof; above that :data:`RANDOM_PATTERNS`
seeded random patterns are.

The oracle deliberately shares no code with the program under test: it
parses BLIF itself and never touches ``read_blif``, ``Network`` or
``repro.network.verify``.  A bug in those cannot hide a wrong output.
The same small text model (:class:`Blif`) is what the workload
generators use to derive job variants from generator output.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional, Tuple

#: Up to this many primary inputs the oracle evaluates every pattern.
EXHAUSTIVE_PIS = 16

#: Random patterns evaluated above :data:`EXHAUSTIVE_PIS` inputs.
RANDOM_PATTERNS = 1 << 16


@dataclasses.dataclass
class Table:
    """One ``.names`` block: fanin names, output name, cover rows."""

    fanins: List[str]
    output: str
    #: ``(pattern, value)`` pairs; *pattern* is ``""`` for constants.
    rows: List[Tuple[str, str]]


@dataclasses.dataclass
class Blif:
    """A combinational BLIF model as plain text fields."""

    name: str
    inputs: List[str]
    outputs: List[str]
    tables: List[Table]


def parse(text: str) -> Blif:
    """Parse the combinational BLIF subset (``.model``/``.inputs``/
    ``.outputs``/``.names``/``.end``); raises ``ValueError``."""
    model = Blif("model", [], [], [])
    table: Optional[Table] = None
    pending = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        line, pending = (pending + line).strip(), ""
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0]
        if keyword.startswith("."):
            table = None
            if keyword == ".model":
                model.name = tokens[1] if len(tokens) > 1 else "model"
            elif keyword == ".inputs":
                model.inputs.extend(tokens[1:])
            elif keyword == ".outputs":
                model.outputs.extend(tokens[1:])
            elif keyword == ".names":
                if len(tokens) < 2:
                    raise ValueError(".names without an output")
                table = Table(tokens[1:-1], tokens[-1], [])
                model.tables.append(table)
            elif keyword == ".end":
                break
            else:
                raise ValueError(f"unsupported construct {keyword!r}")
            continue
        if table is None:
            raise ValueError(f"row {line!r} outside a .names block")
        if len(tokens) == 1 and not table.fanins:
            table.rows.append(("", tokens[0]))
        elif len(tokens) == 2 and len(tokens[0]) == len(table.fanins):
            table.rows.append((tokens[0], tokens[1]))
        else:
            raise ValueError(f"malformed row {line!r} for {table.output}")
    return model


def render(model: Blif) -> str:
    """BLIF text of *model* (inverse of :func:`parse`)."""
    lines = [
        f".model {model.name}",
        ".inputs " + " ".join(model.inputs),
        ".outputs " + " ".join(model.outputs),
    ]
    for table in model.tables:
        lines.append(".names " + " ".join(table.fanins + [table.output]))
        for pattern, value in table.rows:
            lines.append(f"{pattern} {value}" if pattern else value)
    lines.append(".end")
    return "\n".join(lines) + "\n"


def _table_value(table: Table, fanin_values: List[int], full: int) -> int:
    values = {value for _, value in table.rows}
    if len(values) > 1:
        raise ValueError(f"{table.output}: mixed on-set and off-set rows")
    onset = 0
    for pattern, _ in table.rows:
        term = full
        for column, char in enumerate(pattern):
            if char == "1":
                term &= fanin_values[column]
            elif char == "0":
                term &= ~fanin_values[column] & full
            elif char != "-":
                raise ValueError(f"{table.output}: bad character {char!r}")
            if not term:
                break
        onset |= term
    # No rows is constant 0; off-set rows list where the output is 0.
    return onset ^ full if values == {"0"} else onset


def evaluate(model: Blif, stimulus: Dict[str, int], full: int) -> Dict[str, int]:
    """Bit-parallel values of every primary output of *model*.

    *stimulus* maps each primary input to its pattern bits; *full* is
    the all-patterns mask.  Tables may appear in any order.
    """
    by_output = {table.output: table for table in model.tables}
    values = dict(stimulus)
    on_path = set()
    # Iterative post-order DFS: (name, True) is pushed below a node's
    # fanins and evaluates it once they all have values.
    stack = [(po, False) for po in model.outputs]
    while stack:
        name, expanded = stack.pop()
        if name in values:
            continue
        table = by_output.get(name)
        if table is None:
            raise ValueError(f"signal {name!r} is never defined")
        if expanded:
            values[name] = _table_value(
                table, [values[f] for f in table.fanins], full
            )
            on_path.discard(name)
            continue
        if name in on_path:
            raise ValueError(f"combinational cycle through {name!r}")
        on_path.add(name)
        stack.append((name, True))
        stack.extend((f, False) for f in table.fanins if f not in values)
    return {po: values[po] for po in model.outputs}


def stimulus_for(inputs: List[str], seed: int) -> Tuple[Dict[str, int], int]:
    """Input patterns over *inputs*: exhaustive or seeded random."""
    names = sorted(set(inputs))
    if len(names) <= EXHAUSTIVE_PIS:
        width = 1 << len(names)
        full = (1 << width) - 1
        stimulus = {}
        for var, name in enumerate(names):
            # Minterm m sets input var iff bit var of m is 1: runs of
            # 2**var zeros then 2**var ones, repeated across the width.
            block = 1 << var
            unit = ((1 << block) - 1) << block
            stimulus[name] = unit * (full // ((1 << (2 * block)) - 1))
        return stimulus, full
    rng = random.Random(seed)
    full = (1 << RANDOM_PATTERNS) - 1
    return {name: rng.getrandbits(RANDOM_PATTERNS) for name in names}, full


def mismatch(before: str, after: str, seed: int = 0) -> Optional[str]:
    """``None`` when *after* computes the same outputs as *before*,
    else a one-line description of the first difference found.

    *after* may drop primary inputs it no longer reads but may not add
    any; primary-output name sets must be equal.
    """
    try:
        a, b = parse(before), parse(after)
        if sorted(a.outputs) != sorted(b.outputs):
            return "primary outputs differ"
        extra = set(b.inputs) - set(a.inputs)
        if extra:
            return f"output reads unknown inputs {sorted(extra)}"
        stimulus, full = stimulus_for(a.inputs, seed)
        values_a = evaluate(a, stimulus, full)
        values_b = evaluate(
            b, {name: stimulus[name] for name in b.inputs}, full
        )
    except ValueError as exc:
        return f"unreadable BLIF: {exc}"
    for po in a.outputs:
        diff = values_a[po] ^ values_b[po]
        if diff:
            pattern = (diff & -diff).bit_length() - 1
            return f"output {po!r} differs on pattern {pattern}"
    return None
