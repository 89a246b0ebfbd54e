"""SIS-style preparation scripts and the experiment harness.

The paper prepares each benchmark with one of three scripts before a
single substitution run (Section V):

* Script A: ``eliminate 0; simplify``
* Script B: ``eliminate 0; simplify; gcx``
* Script C: ``eliminate 0; simplify; gkx``

and additionally evaluates a complete flow, ``script.algebraic`` with
every ``resub`` occurrence replaced by the method under test.

Methods compared (the paper's four columns): SIS's algebraic
``resub -d`` and the three RAR configurations (basic / ext / ext GDC).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, Optional

from repro.network.network import Network
from repro.network.factor import network_literals
from repro.network.ops import eliminate, sweep
from repro.network.simplify import simplify
from repro.network.resub import resub
from repro.network.extract import gcx, gkx
from repro.network.verify import exact_equivalent
from repro.core.config import (
    BASIC,
    EXTENDED,
    EXTENDED_GDC,
    SIMGUIDED,
    DivisionConfig,
)
from repro.core.substitution import SubstitutionStats, substitute_network
from repro.obs.tracer import as_tracer
from repro.scripts.tables import TableResult, TableRow


def script_a(network: Network) -> None:
    """``eliminate 0; simplify`` — build complex gates, then minimize."""
    eliminate(network, 0)
    simplify(network)
    sweep(network)


def script_b(network: Network) -> None:
    """Script A followed by greedy common-cube extraction (``gcx``)."""
    script_a(network)
    gcx(network)


def script_c(network: Network) -> None:
    """Script A followed by greedy kernel extraction (``gkx``)."""
    script_a(network)
    gkx(network)


SCRIPTS: Dict[str, Callable[[Network], None]] = {
    "A": script_a,
    "B": script_b,
    "C": script_c,
}


# ----------------------------------------------------------------------
# Substitution methods under comparison
# ----------------------------------------------------------------------
def _sis_resub(network: Network) -> None:
    resub(network, use_complement=True)


def _rar_method(config: DivisionConfig) -> Callable[[Network], object]:
    def run(network: Network):
        return substitute_network(network, config)

    return run


METHODS: Dict[str, Callable[[Network], object]] = {
    "sis": _sis_resub,
    "basic": _rar_method(BASIC),
    "ext": _rar_method(EXTENDED),
    "ext_gdc": _rar_method(EXTENDED_GDC),
    "simguided": _rar_method(SIMGUIDED),
}

#: Base configuration per method name (``None`` for SIS resub, which
#: takes no :class:`DivisionConfig`).  Used by :func:`run_method` to
#: apply per-run overrides such as ``enable_sim_filter``.
METHOD_CONFIGS: Dict[str, Optional[DivisionConfig]] = {
    "sis": None,
    "basic": BASIC,
    "ext": EXTENDED,
    "ext_gdc": EXTENDED_GDC,
    "simguided": SIMGUIDED,
}


def run_method(
    network: Network,
    method: str,
    config_overrides: Optional[Dict[str, object]] = None,
    budget=None,
    tracer=None,
) -> Dict[str, object]:
    """Apply one substitution method in place; returns lit/cpu stats
    (plus the full :class:`SubstitutionStats` under ``"stats"`` for
    the RAR methods).

    *config_overrides* replaces fields of the method's base
    :class:`DivisionConfig` (e.g. ``{"enable_sim_filter": False}``);
    it is rejected for methods without one (``"sis"``, ad-hoc
    registrations in :data:`METHODS`).  *budget* is an optional
    :class:`~repro.resilience.budget.RunBudget` shared with the run —
    pass one to spread a single deadline over several calls (also
    rejected for configless methods).  *tracer* is an optional
    :class:`~repro.obs.tracer.Tracer` threaded through the whole run;
    like the other knobs it requires a :class:`DivisionConfig` method —
    SIS resub has no span instrumentation.
    """
    tracer = as_tracer(tracer)
    config = METHOD_CONFIGS.get(method)
    if config_overrides or budget is not None or tracer.enabled:
        if config is None:
            raise ValueError(
                f"method {method!r} takes no DivisionConfig overrides"
            )
        config = dataclasses.replace(config, **(config_overrides or {}))

        def runner(net: Network, config=config):
            return substitute_network(
                net, config, budget=budget, tracer=tracer
            )

    else:
        runner = METHODS[method]
    start = time.perf_counter()
    outcome = runner(network)
    elapsed = time.perf_counter() - start
    result: Dict[str, object] = {
        "literals": network_literals(network),
        "cpu": elapsed,
    }
    if isinstance(outcome, SubstitutionStats):
        # Full run statistics for callers
        # that report more than the table columns, e.g. the CLI's
        # ``--stats-json``.
        result["stats"] = dataclasses.asdict(outcome)
    return result


def run_script_table(
    benchmarks: Dict[str, Network],
    script: str,
    methods: Optional[list] = None,
    verify: bool = True,
) -> TableResult:
    """Reproduce one of Tables II–IV.

    *benchmarks* maps circuit names to freshly built networks.  Each is
    prepared with the named script, then every method runs on its own
    copy of the prepared circuit.  Columns mirror the paper: initial
    literal count after the script, then (literals, cpu) per method.
    """
    if methods is None:
        methods = ["sis", "basic", "ext", "ext_gdc"]
    prepare = SCRIPTS[script]
    result = TableResult(
        title=f"Script {script}", methods=list(methods)
    )
    for name, network in benchmarks.items():
        prepared = network.copy(name)
        prepare(prepared)
        initial = network_literals(prepared)
        row = TableRow(circuit=name, initial=initial)
        for method in methods:
            working = prepared.copy(f"{name}:{method}")
            stats = run_method(working, method)
            if verify:
                verdict = exact_equivalent(prepared, working)
                if not verdict:
                    raise AssertionError(
                        f"{method} on {name} (script {script}): "
                        f"equivalence {verdict.status}"
                    )
            row.literals[method] = int(stats["literals"])
            row.cpu[method] = stats["cpu"]
        result.rows.append(row)
    return result


# ----------------------------------------------------------------------
# script.algebraic
# ----------------------------------------------------------------------
def script_algebraic(
    network: Network, substitution: Callable[[Network], None]
) -> None:
    """Our rendering of SIS's ``script.algebraic`` flow.

    The real script interleaves sweep/eliminate/simplify with several
    ``resub`` invocations and kernel/cube extraction; every ``resub``
    call site below is replaced by the *substitution* argument, exactly
    as the paper's Table V experiment replaces them with the RAR
    method.
    """
    sweep(network)
    eliminate(network, 0)
    simplify(network)
    substitution(network)  # resub call site 1
    gkx(network)
    substitution(network)  # resub call site 2
    gcx(network)
    substitution(network)  # resub call site 3
    eliminate(network, 0)
    sweep(network)
    simplify(network)


def run_script_algebraic_table(
    benchmarks: Dict[str, Network],
    methods: Optional[list] = None,
    verify: bool = True,
) -> TableResult:
    """Reproduce Table V (full flow with resub swapped per method)."""
    if methods is None:
        methods = ["sis", "basic", "ext", "ext_gdc"]
    result = TableResult(title="script.algebraic", methods=list(methods))
    for name, network in benchmarks.items():
        initial = network_literals(network)
        row = TableRow(circuit=name, initial=initial)
        for method in methods:
            working = network.copy(f"{name}:{method}")
            start = time.perf_counter()
            script_algebraic(working, METHODS[method])
            elapsed = time.perf_counter() - start
            if verify:
                verdict = exact_equivalent(network, working)
                if not verdict:
                    raise AssertionError(
                        f"{method} on {name} (script.algebraic): "
                        f"equivalence {verdict.status}"
                    )
            row.literals[method] = network_literals(working)
            row.cpu[method] = elapsed
        result.rows.append(row)
    return result
