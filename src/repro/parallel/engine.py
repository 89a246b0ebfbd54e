"""Speculative evaluation + deterministic commit for substitution.

The paper's substitution loop is embarrassingly parallel at the
candidate level: each (dividend, divisor) division attempt is an
independent read-only computation until one is accepted.  The engine
exploits that with a **persistent worker-pool runtime** — one pool per
:func:`~repro.core.substitution.substitute_network` run — and two
overlapping phases per substitution pass:

**Speculate.**  On the first pass :meth:`SpeculativeEngine.precompute`
freezes the network into a base payload (shipped once — signature
bitmaps ride in a ``multiprocessing.shared_memory`` segment when
available), spawns the executor, and enumerates the same candidate
pairs the serial greedy loop would visit, less those the run's attempt
memo already knows fail (DESIGN §16).  From then on only
:class:`~repro.parallel.delta.DeltaRecord` lists of the committed
rewrites ever cross the process boundary — at every pass start *and*
mid-pass, right before each shard submitted after a commit — and the
workers replay them onto their resident copies, refreshing their
signatures incrementally.  The pairs are sharded into batches and
**pipelined**: the :class:`ShardDispatcher` keeps a window of shards
in flight and reaps each one lazily, the first time the commit loop
asks about one of its pairs — worker evaluation overlaps main-process
commits instead of meeting them at a pass-start barrier, and because
later shards are evaluated against the freshly-shipped state, their
outcomes survive the commits that would have invalidated pass-start
speculation.

**Commit.**  The serial loop in
:func:`~repro.core.substitution.substitute_pass` then runs unchanged,
except that before evaluating a pair it asks the
:class:`SpeculativeStore` for a still-valid speculative outcome:

* without global don't cares, a division's outcome is a pure function
  of the dividend's and divisor's ``(fanins, cover)`` state, so an
  outcome stays valid exactly while *both* nodes are byte-identical to
  what the worker evaluated — the pass snapshot, or the submit-time
  state for shards shipped after a mid-pass delta — and any committed
  rewrite that touched either node invalidates it, so the pair is
  re-evaluated against the mutated network;
* with global don't cares (or the BDD oracle), implications flow
  through the whole circuit, so *any* committed rewrite invalidates all
  remaining speculation for the pass (and stops further dispatch).

Determinism note: shards are submitted and reaped only at points the
greedy loop itself reaches (the pass-start window fill, the blocking
lookup of a pair's shard, and the refill right after) — never on
worker-completion events — so every counter this module maintains is a
pure function of the input network and config, and the regression
gate compares them exactly.

Because commits are applied in the identical greedy order at identical
network states, the optimized network — and the BLIF it prints — is
byte-identical to a serial run (``tests/parallel/`` holds the
differential fuzz suite and the commit-protocol property tests).
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.config import DivisionConfig
from repro.core.substitution import AttemptMemo, NodeState, node_state
from repro.network.network import Network
from repro.obs.tracer import as_tracer
from repro.parallel.delta import (
    DeltaRecord,
    capture_states,
    cumulative_record,
    diff_network,
)
from repro.parallel.executor import make_executor, resolve_backend
from repro.parallel.worker import PairOutcome, make_payload
from repro.resilience import inject

Pair = Tuple[str, str]

#: Prefix of every shared-memory segment the engine creates, so the
#: hygiene tests can scan ``/dev/shm`` for leaks.
SHM_PREFIX = "repro_sig_"


class SpeculativeStore:
    """Snapshot-validity ledger for speculative division outcomes.

    Records the snapshot-time state of every node plus one
    :class:`PairOutcome` per evaluated pair; :meth:`lookup` returns an
    outcome only while it is provably identical to what a fresh
    evaluation on the live network would produce, and counts the
    reuse/invalidation traffic for the run statistics.

    With a :class:`ShardDispatcher` attached, outcomes materialize
    lazily: a lookup first lets the dispatcher pull the pair's shard in
    (blocking on the pool only for that shard).  Pairs the dispatcher
    pruned at submit time — their endpoints were already rewritten, so
    the snapshot evaluation could never be served — are *stale
    tombstones*: they count as invalidations, exactly as their evaluated
    outcome would have.
    """

    def __init__(self, network: Network, whole_network_sensitive: bool):
        #: With global don't cares / oracle mode every outcome depends
        #: on the whole network, so any commit invalidates everything.
        self.whole_network_sensitive = whole_network_sensitive
        self._states: Dict[str, NodeState] = capture_states(network)
        self._outcomes: Dict[Pair, PairOutcome] = {}
        self._stale: Set[Pair] = set()
        #: Submit-time endpoint states for pairs shipped after mid-pass
        #: deltas: the outcome is valid iff the live endpoints still
        #: match these (instead of the pass-start snapshot).
        self._expected: Dict[Pair, Tuple[NodeState, NodeState]] = {}
        self._dispatcher: Optional["ShardDispatcher"] = None
        #: Each dividend's enumerated divisor candidates: what the
        #: serial loop would list for it while the network is still the
        #: pass-start one.
        self.divisors: Dict[str, List[str]] = {}
        self.reused = 0
        self.invalidated = 0

    def attach(self, dispatcher: Optional["ShardDispatcher"]) -> None:
        self._dispatcher = dispatcher

    def record(self, outcome: PairOutcome) -> None:
        self._outcomes[(outcome.f_name, outcome.d_name)] = outcome

    def mark_stale(self, pair: Pair) -> None:
        self._stale.add(pair)

    def expect(
        self, pair: Pair, states: Tuple[NodeState, NodeState]
    ) -> None:
        """Pin *pair*'s validity to *states* (its endpoints as the
        worker will see them) rather than the pass-start snapshot."""
        self._expected[pair] = states

    def __len__(self) -> int:
        return len(self._outcomes)

    def _unchanged(self, network: Network, name: str) -> bool:
        return self._states.get(name) == node_state(network, name)

    def endpoints_unchanged(self, network: Network, pair: Pair) -> bool:
        return self._unchanged(network, pair[0]) and self._unchanged(
            network, pair[1]
        )

    def lookup(
        self,
        network: Network,
        f_name: str,
        d_name: str,
        mutated: bool,
    ) -> Optional[PairOutcome]:
        """The pair's speculative outcome, iff still valid.

        *mutated* is True once any rewrite has been committed since the
        snapshot (the caller tracks accepted rewrites); it is the
        whole-network invalidation trigger for GDC/oracle modes.
        ``None`` means the pair was never evaluated or its outcome is
        stale — either way the caller must evaluate against the live
        network, exactly as the serial loop would.
        """
        pair = (f_name, d_name)
        if self._dispatcher is not None:
            self._dispatcher.ensure(network, pair, mutated)
        outcome = self._outcomes.get(pair)
        if outcome is None:
            if pair in self._stale:
                self.invalidated += 1
            return None
        if self.whole_network_sensitive:
            valid = not mutated
        else:
            expected = self._expected.get(pair)
            if expected is not None:
                valid = expected == (
                    node_state(network, f_name),
                    node_state(network, d_name),
                )
            else:
                valid = self._unchanged(
                    network, f_name
                ) and self._unchanged(network, d_name)
        if not valid:
            self.invalidated += 1
            return None
        self.reused += 1
        return outcome


def enumerate_candidate_pairs(
    network: Network, config: DivisionConfig
) -> List[Pair]:
    """The (dividend, divisor) pairs a serial pass would start from.

    Mirrors the serial loop's enumeration on the snapshot; rewrites
    during the commit phase can change later dividends' candidate
    lists, in which case the missing pairs simply evaluate live.
    """
    # Looked up at call time, so a replaced ``_candidate_divisors``
    # lists the same divisors here as in the serial loop.
    from repro.core.substitution import _candidate_divisors

    pairs: List[Pair] = []
    for node in network.internal_nodes():
        if node.is_constant() or node.cover is None:
            continue
        for d_name in _candidate_divisors(network, node.name, config):
            pairs.append((node.name, d_name))
    return pairs


def shard_pairs(
    pairs: Sequence[Pair], batch_size: int
) -> List[List[Pair]]:
    """Contiguous batches, never splitting one dividend's run of pairs
    across a batch boundary unless it alone exceeds *batch_size* (keeps
    the workers' per-dividend GDC circuit cache effective)."""
    batches: List[List[Pair]] = []
    current: List[Pair] = []
    i = 0
    while i < len(pairs):
        f_name = pairs[i][0]
        j = i
        while j < len(pairs) and pairs[j][0] == f_name:
            j += 1
        group = list(pairs[i:j])
        if current and len(current) + len(group) > batch_size:
            batches.append(current)
            current = []
        current.extend(group)
        while len(current) >= batch_size:
            batches.append(current[:batch_size])
            current = current[batch_size:]
        i = j
    if current:
        batches.append(current)
    return batches


class ShardDispatcher:
    """Pipelined shard dispatch for one substitution pass.

    Keeps up to ``window = max(2, n_jobs * pipeline_depth)`` shards in
    flight on the engine's persistent executor and reaps them lazily:
    :meth:`ensure` blocks only until the shard holding the requested
    pair is done, then refills the window, so workers keep evaluating
    while the main process commits.  Dispatch points are all reached by
    the greedy loop itself, which is what keeps the counters
    deterministic (see the module doc).

    Mid-pass delta shipping: once the commit loop has rewritten
    anything, every later shard submission first ships a
    :class:`~repro.parallel.delta.DeltaRecord` of the commits so far,
    so the resident workers evaluate those shards against the *current*
    network rather than the pass-start snapshot.  Each such pair's
    expected endpoint states are recorded in the store
    (:meth:`SpeculativeStore.expect`): its outcome is served exactly
    while the live endpoints still match what the worker saw —
    speculation stays useful deep into a heavily-committing pass
    instead of dying with the first rewrites.  Pairs that are no longer
    evaluable at submit time (an endpoint was deleted or collapsed to a
    constant) become stale tombstones instead of wasted worker CPU.  In
    whole-network-sensitive mode nothing can be re-validated pair-wise,
    so the first commit kills *all* remaining speculation and
    undispatched shards are tombstoned wholesale.
    """

    def __init__(
        self,
        engine: "SpeculativeEngine",
        store: SpeculativeStore,
        batches: List[List[Pair]],
        tracer,
    ):
        self.engine = engine
        self.store = store
        self.batches = batches
        self.tracer = tracer
        self._shard_of: Dict[Pair, int] = {}
        for index, batch in enumerate(batches):
            for pair in batch:
                self._shard_of[pair] = index
        self._next = 0
        self._submitted: Set[int] = set()
        self._reaped: Set[int] = set()
        self._inflight = 0
        config = engine.config
        if getattr(engine.executor, "concurrent", True):
            self.window = max(2, config.n_jobs * config.pipeline_depth)
        else:
            # The in-process backend evaluates synchronously at submit
            # time: there is nothing to overlap, and a deeper window
            # only makes its speculation staler.  Just-in-time shards
            # see every commit (the delta ships right before each
            # evaluation), so nearly every outcome is served.
            self.window = 1
        #: Commits observed this pass vs. commits already covered by a
        #: delta ship: a submission only pays for a network diff when
        #: the counts differ (``mutated`` arrives as the commit count).
        self._mutations_seen = 0
        self._mutations_shipped = 0
        #: First commit observed in whole-network-sensitive mode: all
        #: speculation is dead, stop dispatching.
        self.dead = False
        #: Executor failed beyond containment: speculation abandoned
        #: for the pass, every remaining lookup evaluates live.
        self.failed = False

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def prime(self) -> None:
        """Fill the pipeline window at pass start."""
        self._fill()

    def _fill(self) -> None:
        while (
            self._inflight < self.window
            and self._next < len(self.batches)
            and not self.failed
        ):
            self._submit_next()

    def _submit_next(self) -> None:
        index = self._next
        self._next += 1
        batch = self.batches[index]
        engine, store = self.engine, self.store
        if self.dead:
            # Sensitive store after a commit: the outcome could never
            # be served, so the whole shard becomes tombstones (each
            # later lookup counts one invalidation, exactly as its
            # evaluated-then-invalidated outcome would have).
            for pair in batch:
                store.mark_stale(pair)
            engine.pairs_stale_skipped += len(batch)
            self._reaped.add(index)
            return
        if store.whole_network_sensitive:
            live = list(batch)
        else:
            if self._mutations_seen > self._mutations_shipped:
                # Ship the commits so far: the workers evaluate this
                # shard against the current network, and the store pins
                # each pair's validity to its submit-time states.
                engine._ship_delta(engine.network, self.tracer)
                self._mutations_shipped = self._mutations_seen
            live = []
            for pair in batch:
                states = engine.evaluable_states(pair)
                if states is None:
                    # An endpoint was deleted or collapsed to a
                    # constant: the worker could not evaluate it, and
                    # the serial loop would re-enumerate anyway.
                    store.mark_stale(pair)
                    engine.pairs_stale_skipped += 1
                else:
                    live.append(pair)
                    if self._mutations_seen:
                        store.expect(pair, states)
        if not live:
            self._reaped.add(index)
            return
        engine.note_batch_bytes(live)
        engine.executor.submit(index, live, deltas=engine.delta_log)
        engine.batches += 1
        self._submitted.add(index)
        self._inflight += 1

    # ------------------------------------------------------------------
    # Lazy reaping
    # ------------------------------------------------------------------
    def ensure(self, network: Network, pair: Pair, mutated: bool) -> None:
        """Make *pair*'s outcome (or tombstone) present in the store,
        dispatching and reaping whatever that takes."""
        if self.failed:
            return
        if mutated:
            self._mutations_seen = max(self._mutations_seen, int(mutated))
            if self.store.whole_network_sensitive and not self.dead:
                self.dead = True
        index = self._shard_of.get(pair)
        if index is None or index in self._reaped:
            return
        try:
            while self._next <= index:
                self._submit_next()
            if index in self._submitted and index not in self._reaped:
                self._reap(index)
                self._fill()
        except Exception:
            self._abandon()

    def _reap(self, index: int) -> None:
        engine = self.engine
        wait_start = time.perf_counter()
        outcomes = engine.executor.result(index)
        engine.phase_seconds["dispatch_wait"] += (
            time.perf_counter() - wait_start
        )
        self._reaped.add(index)
        self._inflight -= 1
        for outcome in outcomes:
            self.store.record(outcome)
        engine.pairs_evaluated += len(outcomes)
        engine.absorb_worker_trace(self.tracer)

    def finish(self) -> None:
        """Drain in-flight shards at pass end (never submits more)."""
        pendings = sorted(self._submitted - self._reaped)
        try:
            for index in pendings:
                self._reap(index)
        except Exception:
            self._abandon()
        self.store.attach(None)

    def _abandon(self) -> None:
        """Engine-level containment: the executor failed under us.

        Outcomes already recorded stay (they are genuinely valid
        snapshot evaluations); everything else evaluates live.  The
        executor is torn down — the next pass re-establishes it from a
        fresh base snapshot.
        """
        if self.failed:
            return
        self.failed = True
        engine = self.engine
        engine.speculation_failures += 1
        engine.worker_faults += 1
        engine.degraded_to_serial += 1
        engine.teardown_executor()
        self._submitted.clear()
        self._inflight = 0


class SpeculativeEngine:
    """Per-run driver of the persistent pool: spawned on the first
    pass, it keeps the executor, the shared-memory signature segment,
    the shipped-state map and the delta log alive across passes, and
    accumulates executor statistics so
    :func:`~repro.core.substitution.substitute_network` can fold them
    into its :class:`SubstitutionStats` once at the end.

    Lifecycle: ``precompute`` per pass → ``finish_pass`` per pass →
    ``close`` exactly once (the caller holds it in a ``finally``), which
    shuts the pool down and unlinks the shared-memory segment.
    """

    def __init__(self, config: DivisionConfig):
        self.config = config
        self.jobs = config.n_jobs
        self.batches = 0
        self.pairs_evaluated = 0
        self.reused = 0
        self.invalidated = 0
        #: Fault-containment traffic (see the executor's retry ladder).
        self.worker_faults = 0
        self.shards_redispatched = 0
        self.degraded_to_serial = 0
        #: Shards the executor's stall watchdog flagged.
        self.stalls = 0
        #: Passes whose speculation was abandoned outright because the
        #: executor itself failed; the pass then evaluates every pair
        #: live (the serial path), so only throughput is lost.
        self.speculation_failures = 0
        #: Delta-protocol traffic: records shipped to the pool and the
        #: node rewrites they carried.
        self.deltas_shipped = 0
        self.delta_nodes = 0
        #: Pairs pruned at submit time because a commit already
        #: rewrote one of their endpoints (stale tombstones).
        self.pairs_stale_skipped = 0
        #: Wire accounting: bytes of the one-time base payload and the
        #: summed per-shard payloads (pair lists + delta log).
        self.snapshot_bytes = 0
        self.batch_bytes = 0
        #: Per-phase wall seconds (snapshot/ship, worker build, worker
        #: evaluate, main-process wait on shard results).
        self.phase_seconds: Dict[str, float] = {
            "snapshot_ship": 0.0,
            "worker_build": 0.0,
            "evaluate": 0.0,
            "dispatch_wait": 0.0,
        }
        self.network: Optional[Network] = None
        #: The concrete executor backend, resolved on the first pass.
        self.backend: Optional[str] = None
        self.executor = None
        self._shm = None
        self._shm_serial = 0
        #: States as of the last ship (change detection + per-ship
        #: node counting) and as of the base snapshot (what respawned
        #: workers start from — the cumulative record diffs against
        #: this).
        self._shipped: Optional[Dict[str, NodeState]] = None
        self._base_states: Optional[Dict[str, NodeState]] = None
        #: Names ever shipped inside an update: a worker behind the
        #: current generation may hold a stale state for any of them.
        self._ever_updated: Set[str] = set()
        self._cumulative: Optional[DeltaRecord] = None
        self._cumulative_bytes = 0
        self._generation = 0
        self._dispatcher: Optional[ShardDispatcher] = None
        self._stores: List[SpeculativeStore] = []

    # ------------------------------------------------------------------
    # Persistent-pool plumbing
    # ------------------------------------------------------------------
    @property
    def delta_log(self) -> Tuple[DeltaRecord, ...]:
        """What rides with every shard: one cumulative record (or
        nothing before the first ship)."""
        if self._cumulative is None:
            return ()
        return (self._cumulative,)

    def _establish(
        self, network: Network, pairs: int, sim_filter, tracer
    ) -> None:
        """First pass (or after a teardown): ship the base snapshot and
        spawn the persistent executor.  The backend is resolved once,
        from the first pass's *pairs* count."""
        config = self.config
        if self.backend is None:
            self.backend = resolve_backend(config.parallel_backend, pairs)
        sim_ref = None
        if sim_filter is not None:
            sim_ref = self._share_signatures(sim_filter.sim, tracer)
            if sim_ref is None:
                sim_ref = sim_filter.sim.snapshot()
        payload = make_payload(
            network, config, sim_ref, trace=tracer.enabled
        )
        self.snapshot_bytes += len(payload)
        self.executor = make_executor(
            payload,
            config.n_jobs,
            self.backend,
            injection=inject.active(),
            max_retries=config.max_shard_retries,
            stall_timeout=config.stall_timeout_seconds,
        )
        self._shipped = capture_states(network)
        self._base_states = dict(self._shipped)
        self._ever_updated = set()
        self._cumulative = None
        self._cumulative_bytes = 0
        self._generation = 0

    def _share_signatures(self, sim, tracer):
        """Try to park the signature bitmaps in shared memory; ``None``
        falls back to the inline snapshot dict."""
        if not self.config.share_signatures:
            return None
        if self.backend != "process":
            # In-process backends read the parent's memory anyway; a
            # segment would only add lifecycle risk.
            return None
        self._release_shm()
        self._shm_serial += 1
        name = f"{SHM_PREFIX}{os.getpid()}_{self._shm_serial}"
        try:
            with tracer.span("shm_publish", name=name) as span:
                shm, ref = sim.to_shared(name)
                span.annotate(bytes=shm.size, nodes=len(ref.names))
        except (ImportError, OSError):
            return None
        self._shm = shm
        return ref

    def _release_shm(self) -> None:
        shm, self._shm = self._shm, None
        if shm is None:
            return
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:
            pass

    def teardown_executor(self) -> None:
        """Shut the executor down and release the segment; the next
        pass starts over from a fresh base snapshot."""
        executor, self.executor = self.executor, None
        if executor is not None:
            self._fold_executor(executor)
            executor.close(cancel=True)
        self._release_shm()
        self._shipped = None
        self._base_states = None
        self._ever_updated = set()
        self._cumulative = None
        self._cumulative_bytes = 0

    def _fold_executor(self, executor) -> None:
        """Move the executor's counters into the engine (idempotent —
        the executor's own counters are zeroed)."""
        # The *requested* job count — backend resolution ("auto" on a
        # single-core host picks the in-process engine) must not make
        # the reported stats machine-dependent.
        self.jobs = self.config.n_jobs
        self.worker_faults += executor.worker_faults
        self.shards_redispatched += executor.shards_redispatched
        self.degraded_to_serial += executor.degraded_to_serial
        self.stalls += executor.stalls
        executor.worker_faults = 0
        executor.shards_redispatched = 0
        executor.degraded_to_serial = 0
        executor.stalls = 0
        self.phase_seconds["worker_build"] += executor.worker_build_seconds
        self.phase_seconds["evaluate"] += executor.evaluate_seconds
        executor.worker_build_seconds = 0.0
        executor.evaluate_seconds = 0.0

    def absorb_worker_trace(self, tracer) -> None:
        executor = self.executor
        if executor is None or not executor.trace_events:
            return
        tracer.absorb(executor.trace_events)
        executor.trace_events = []

    def evaluable_states(
        self, pair: Pair
    ) -> Optional[Tuple[NodeState, NodeState]]:
        """The pair's current endpoint states iff a worker can still
        evaluate it: both nodes present, non-constant, with covers."""
        network = self.network
        f = network.nodes.get(pair[0])
        d = network.nodes.get(pair[1])
        if (
            f is None
            or d is None
            or f.cover is None
            or d.cover is None
            or f.is_constant()
            or d.is_constant()
        ):
            return None
        return node_state(network, pair[0]), node_state(network, pair[1])

    def note_batch_bytes(self, pairs: Sequence[Pair]) -> None:
        """Account one shard's wire payload: its pair list plus the
        cumulative delta record riding along (record bytes are
        measured once per ship, not per shard)."""
        self.batch_bytes += (
            len(pickle.dumps(pairs, pickle.HIGHEST_PROTOCOL))
            + self._cumulative_bytes
        )

    # ------------------------------------------------------------------
    # Per-pass cycle
    # ------------------------------------------------------------------
    def precompute(
        self,
        network: Network,
        sim_filter=None,
        tracer=None,
        memo: Optional[AttemptMemo] = None,
    ) -> SpeculativeStore:
        """Start one pass: ship what changed, prime the pipeline, and
        return the pass's lazily-filling store.

        With an enabled *tracer*, the enumeration and the speculative
        dispatch record ``enumerate``/``speculate`` spans, and every
        worker's locally-recorded spans are absorbed into the main
        trace (tagged with the worker's ``proc`` label) as shards are
        reaped.

        *memo* is the run's
        :class:`~repro.core.substitution.AttemptMemo`: a pair that has
        already failed on its current endpoint states is not shipped,
        because the commit loop skips it without reading an outcome.
        It stays in ``store.divisors``, so the divisor lists the loop
        walks do not change.
        """
        tracer = as_tracer(tracer)
        config = self.config
        self.network = network
        store = SpeculativeStore(
            network,
            whole_network_sensitive=config.global_dc or config.oracle_dc,
        )
        self._stores.append(store)
        with tracer.span("enumerate", scope="speculative") as enum_span:
            pairs = enumerate_candidate_pairs(network, config)
            enum_span.annotate(pairs=len(pairs))
        for f_name, d_name in pairs:
            store.divisors.setdefault(f_name, []).append(d_name)
        if memo is not None:
            pairs = [pair for pair in pairs if not memo.pair_failed(*pair)]
        if not pairs:
            return store
        batches = shard_pairs(pairs, config.batch_size)
        with tracer.span(
            "speculate", batches=len(batches), pairs=len(pairs)
        ) as spec_span:
            try:
                ship_start = time.perf_counter()
                if self.executor is None:
                    self._establish(network, len(pairs), sim_filter, tracer)
                else:
                    self._ship_delta(network, tracer)
                self.phase_seconds["snapshot_ship"] += (
                    time.perf_counter() - ship_start
                )
                dispatcher = ShardDispatcher(self, store, batches, tracer)
                store.attach(dispatcher)
                self._dispatcher = dispatcher
                dispatcher.prime()
            except Exception:
                # Final containment rung: speculation for this pass is
                # abandoned; the store stays empty and substitute_pass
                # evaluates every pair live, exactly as a serial run.
                self.speculation_failures += 1
                self.worker_faults += 1
                self.degraded_to_serial += 1
                spec_span.annotate(failed=True)
                store.attach(None)
                self._dispatcher = None
                self.teardown_executor()
                return store
            spec_span.annotate(
                window=dispatcher.window, generation=self._generation
            )
        return store

    def _ship_delta(self, network: Network, tracer) -> None:
        """Refresh the cumulative delta if the live network moved past
        what the pool last saw.

        The fresh diff (against the last-shipped states) detects the
        change and counts the newly rewritten nodes; what actually
        rides with the shards is the *cumulative* record — live state
        vs. the base snapshot, correct for a worker at any shipped
        generation (see :func:`~repro.parallel.delta.cumulative_record`).
        """
        fresh, states = diff_network(
            network, self._shipped, self._generation + 1
        )
        if fresh.node_count() == 0:
            return
        record = cumulative_record(
            network, self._base_states, self._ever_updated, fresh.generation
        )
        with tracer.span(
            "delta_ship",
            generation=record.generation,
            nodes=fresh.node_count(),
            cumulative_nodes=record.node_count(),
        ):
            self._generation = record.generation
            self._shipped = states
            self._cumulative = record
            self._ever_updated.update(u.name for u in record.updates)
            self._cumulative_bytes = len(
                pickle.dumps(record, pickle.HIGHEST_PROTOCOL)
            )
            self.deltas_shipped += 1
            self.delta_nodes += fresh.node_count()

    def finish_pass(self, store: SpeculativeStore) -> None:
        """End one pass: drain in-flight shards, detach the store."""
        dispatcher, self._dispatcher = self._dispatcher, None
        if dispatcher is not None:
            dispatcher.finish()
        else:
            store.attach(None)
        if self.executor is not None:
            self._fold_executor(self.executor)

    def close(self) -> None:
        """Run teardown: shut the pool down, unlink shared memory.

        Idempotent; the caller invokes it from a ``finally`` so a
        budget stop or an engine error can never leak worker processes
        or a ``/dev/shm`` segment."""
        self._dispatcher = None
        self.teardown_executor()

    def collect(self) -> None:
        """Fold per-store reuse counters into the engine totals."""
        for store in self._stores:
            self.reused += store.reused
            self.invalidated += store.invalidated
            store.reused = 0
            store.invalidated = 0
