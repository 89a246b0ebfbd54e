"""Incremental network deltas for the persistent worker pool.

The batch-scoped protocol (PR 2) re-pickled the whole network into
every worker once per pass.  The persistent pool instead ships the
frozen network **once** (plus the signature bitmaps, via shared
memory) and afterwards sends only what changed: one
:class:`DeltaRecord` per substitution pass, carrying the committed
node rewrites and deletions keyed by a monotonically increasing
*mutation generation*.

Workers hold their network copy at some generation ``g`` and apply any
record with ``generation > g`` before evaluating a batch; records at
or below ``g`` are skipped.  What rides with each batch is a single
**cumulative** record (:func:`cumulative_record`): the diff of the
live network against the *base snapshot*, extended so it corrects a
worker holding *any* previously shipped generation — every node that
was ever shipped changed stays in ``updates`` (a worker may still hold
an old state for it; re-applying the current state is a no-op skip for
everyone else), and ``deletions`` cover every name a worker could
possibly have (base or ever-shipped) that no longer exists.  The wire
cost is therefore bounded by the number of distinct nodes ever
rewritten, not by the number of ships, and a freshly respawned worker
restores the exact live state from the base snapshot with one
application.  Replay is exact by construction:

* updates are computed by diffing the live network against the state
  last shipped, in network iteration order, so applying them
  reproduces both the ``(fanins, cover)`` state of every node *and*
  the dict insertion order (in-place rewrites keep their slot, new
  nodes append in creation order) — the order-sensitive parts of
  GDC analysis see the same network a full re-pickle would give;
* deletions are applied by raw removal (the shipped state is a
  consistent network, so no referential validation is needed);
* after application the worker's incremental
  :class:`~repro.sim.signature.SignatureSimulator` refreshes only the
  touched fanout cones (its generation-keyed caches invalidate
  themselves), instead of restoring a fresh snapshot.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from repro.core.substitution import NodeState, node_state
from repro.network.network import Network
from repro.network.node import Node


@dataclasses.dataclass(frozen=True)
class NodeUpdate:
    """One rewritten (or newly created) node: its full current state."""

    name: str
    fanins: Tuple[str, ...]
    cover: object


@dataclasses.dataclass(frozen=True)
class DeltaRecord:
    """Committed rewrites between two consecutive pass snapshots.

    ``generation`` numbers the snapshot this record produces; workers
    apply records in order and skip any at or below their current
    generation (idempotent replay).
    """

    generation: int
    updates: Tuple[NodeUpdate, ...]
    deletions: Tuple[str, ...]

    def node_count(self) -> int:
        return len(self.updates) + len(self.deletions)


def capture_states(network: Network) -> Dict[str, NodeState]:
    """The per-node state map a delta diff runs against."""
    return {name: node_state(network, name) for name in network.nodes}


def diff_network(
    network: Network, shipped: Dict[str, NodeState], generation: int
) -> Tuple[DeltaRecord, Dict[str, NodeState]]:
    """Diff *network* against the *shipped* state map.

    Returns ``(record, new_states)`` where *record* (possibly empty)
    carries every changed/added node in network iteration order plus
    the names that disappeared, and *new_states* is the state map to
    diff the next pass against.
    """
    updates: List[NodeUpdate] = []
    states: Dict[str, NodeState] = {}
    for name in network.nodes:
        state = node_state(network, name)
        states[name] = state
        if shipped.get(name) != state:
            updates.append(NodeUpdate(name, state[0], state[1]))
    deletions = tuple(name for name in shipped if name not in states)
    record = DeltaRecord(generation, tuple(updates), deletions)
    return record, states


def cumulative_record(
    network: Network,
    base_states: Dict[str, NodeState],
    ever_updated: Sequence[str],
    generation: int,
) -> DeltaRecord:
    """One record that brings a worker at *any* shipped generation
    (including a respawned one at the base snapshot) to the live state.

    ``updates`` carry every node that differs from the base snapshot
    *plus* every name in *ever_updated* that still exists — a worker
    behind the current generation may hold a stale shipped state for
    those even when they have since reverted to their base state.
    ``deletions`` are every name a worker could possibly hold (base or
    ever-updated) that no longer exists; applying them is an
    unconditional pop, so they are harmless for workers that never saw
    the node.
    """
    updates: List[NodeUpdate] = []
    ever = set(ever_updated)
    for name in network.nodes:
        state = node_state(network, name)
        if name in ever or base_states.get(name) != state:
            updates.append(NodeUpdate(name, state[0], state[1]))
    gone = [name for name in base_states if name not in network.nodes]
    gone.extend(
        sorted(
            name
            for name in ever
            if name not in network.nodes and name not in base_states
        )
    )
    return DeltaRecord(generation, tuple(updates), tuple(gone))


def apply_record(network: Network, record: DeltaRecord) -> List[str]:
    """Apply one :class:`DeltaRecord` to a worker's network copy.

    Returns the updated node names — the dirty roots for the worker's
    incremental signature refresh (deletions and additions are
    discovered by the refresh itself).
    """
    roots: List[str] = []
    for update in record.updates:
        node = network.nodes.get(update.name)
        if node is None:
            # New nodes append in the shipped (creation) order; raw
            # insertion mirrors what unpickling a fresh snapshot does
            # — the diffed state is a consistent network, so per-node
            # validation would only re-prove that.
            network.nodes[update.name] = Node(
                update.name, list(update.fanins), update.cover
            )
        else:
            if (
                tuple(node.fanins) == update.fanins
                and node.cover == update.cover
            ):
                # A cumulative record re-lists every node ever shipped
                # changed; nodes already at the target state must not
                # become dirty roots (the incremental signature refresh
                # would resim their whole fanout cones for nothing).
                continue
            node.set_function(list(update.fanins), update.cover)
        roots.append(update.name)
    for name in record.deletions:
        network.nodes.pop(name, None)
    return roots


def apply_pending(
    network: Network,
    records: Sequence[DeltaRecord],
    current_generation: int,
) -> Tuple[int, List[str]]:
    """Apply every record newer than *current_generation*, in order.

    Returns ``(new_generation, touched_roots)``.  Safe to call with
    the full delta log on every batch — already-applied records are
    skipped, which is what lets a respawned worker replay from the
    base snapshot with the same call.
    """
    roots: List[str] = []
    generation = current_generation
    for record in sorted(records, key=lambda r: r.generation):
        if record.generation <= generation:
            continue
        roots.extend(apply_record(network, record))
        generation = record.generation
    return generation, roots
