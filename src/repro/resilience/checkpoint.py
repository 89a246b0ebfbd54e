"""Verified checkpoints: transactional commits with rollback.

With ``DivisionConfig.verify_commits`` the substitution loop treats
every accepted rewrite as a transaction: the touched nodes are
snapshotted (the loop's existing undo buffer), the rewrite is applied,
and the :class:`CommitLedger` proves the whole network equivalent to
its reference through :func:`~repro.network.verify.checked_equivalent`
(``verify_backend``) before the commit is kept.  A commit is kept only
when the verdict proves equality: a difference and an unknown
(exhausted SAT budget) both roll it back.

The reference starts as the pre-optimization network and advances to
a copy of the network after every proof.  Equivalence is transitive,
so proving against the last proven state proves against the input.
Between the two states only the rewritten nodes and their fanout
differ, and that is all either exact backend looks at: both leave out
what the two networks share by structure
(:func:`~repro.network.verify.shared_nodes`).  A failed check leaves
the reference where it was, so a rollback restores exactly the last
proven state.

A rollback quarantines the (dividend, divisor) pair for the rest of
the run — the pair is never evaluated again — and appends a
structured incident record (a JSON-ready dict) that surfaces through
``SubstitutionStats.incidents`` and the CLI's ``--stats-json``.
"""

from __future__ import annotations

import logging
from typing import Dict, Set, Tuple

from repro.network.network import Network
from repro.network.verify import checked_equivalent

logger = logging.getLogger("repro.resilience")

Pair = Tuple[str, str]


class CommitLedger:
    """Commit proofs, rollback bookkeeping, and quarantine.

    The ledger never mutates the network itself, nor the *reference*
    it was given: :attr:`reference` is replaced by a copy of the
    network after each proof.  The substitution loop owns the undo
    buffer and calls :meth:`quarantine` after it has restored the
    snapshot, so the rollback counts always describe completed
    rollbacks.  Checks, rollbacks, incidents and the proofs' solver
    work are recorded straight into the run's *stats* (a
    :class:`~repro.core.substitution.SubstitutionStats`).
    """

    def __init__(self, reference: Network, config, stats):
        self.reference = reference
        self.config = config
        self.stats = stats
        self.quarantined: Set[Pair] = set()
        #: Commits checked (an incident's ``commit_index``).
        self.commits = 0
        self._last_status = "none"

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_quarantined(self, f_name: str, d_name: str) -> bool:
        return (f_name, d_name) in self.quarantined

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify_commit(
        self, network: Network, f_name: str, d_name: str, tracer
    ) -> bool:
        """Prove the just-applied commit under one ``verify`` span;
        False means roll it back.

        The span records the verdict's backend (``exhaustive`` or
        ``sat``) and status.
        """
        self.commits += 1
        self.stats.commits_verified += 1
        verdict = checked_equivalent(
            self.reference,
            network,
            tracer,
            backend=self.config.verify_backend,
            conflict_budget=self.config.sat_conflict_budget,
            stats=self.stats,
            check="ledger",
            f=f_name,
            d=d_name,
        )
        self._last_status = verdict.status
        if verdict:
            # A copy, because the loop goes on mutating *network*.
            self.reference = network.copy()
        return bool(verdict)

    # ------------------------------------------------------------------
    # Rollback bookkeeping
    # ------------------------------------------------------------------
    def quarantine(self, f_name: str, d_name: str) -> None:
        """Record a completed rollback and bar the pair for the run."""
        self.stats.commits_rolled_back += 1
        if (f_name, d_name) not in self.quarantined:
            self.stats.pairs_quarantined += 1
            self.quarantined.add((f_name, d_name))
        incident: Dict[str, object] = {
            "kind": "rolled_back_commit",
            "dividend": f_name,
            "divisor": d_name,
            "commit_index": self.commits,
            "check": "exact",
            "verdict": self._last_status,
        }
        self.stats.incidents.append(incident)
        logger.error(
            "commit proof failed (%s): rolled back "
            "and quarantined dividend=%s divisor=%s",
            self._last_status,
            f_name,
            d_name,
        )
