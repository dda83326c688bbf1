"""Oracle-backed verification subsystem.

Four pillars, each importable on its own:

* :mod:`repro.check.oracle` — exact-Fraction DP oracle certifying the
  online RTT decomposition admits the offline-optimal set (Lemmas 1-3);
* :mod:`repro.check.differential` — one trace through every kernel
  backend, server model, and recombination policy, with the invariant
  catalog of :mod:`repro.check.invariants` audited live;
* :mod:`repro.check.fuzz` — adversarial trace generation with
  delta-debugging counterexample shrinking;
* :mod:`repro.check.corpus` — golden-trace regression corpus replayed
  by the ``repro-check`` CLI (:mod:`repro.check.cli`).

See ``docs/verification.md`` for the construction and how to extend it.
"""

from .corpus import (
    CorpusReport,
    GoldenTrace,
    ReplayResult,
    load_golden,
    record_golden,
    replay_corpus,
    replay_golden,
)
from .differential import (
    CheckedRun,
    DifferentialReport,
    KernelParityReport,
    ParityReport,
    decomposition_cross_check,
    differential_policies,
    disk_comparability_check,
    engine_parity,
    fcfs_lindley_check,
    kernel_parity,
    run_checked,
)
from .fuzz import (
    Disagreement,
    FuzzCase,
    GENERATORS,
    fuzz_oracle,
    make_case,
    shrink_arrivals,
    shrink_case,
)
from .invariants import CheckingScheduler, Violation
from .oracle import (
    OracleReport,
    certify_optimality,
    oracle_max_admitted,
    oracle_max_admitted_discrete,
    oracle_max_admitted_fluid,
)

__all__ = [
    "CorpusReport",
    "GoldenTrace",
    "ReplayResult",
    "load_golden",
    "record_golden",
    "replay_corpus",
    "replay_golden",
    "CheckedRun",
    "DifferentialReport",
    "KernelParityReport",
    "ParityReport",
    "decomposition_cross_check",
    "differential_policies",
    "disk_comparability_check",
    "engine_parity",
    "fcfs_lindley_check",
    "kernel_parity",
    "run_checked",
    "Disagreement",
    "FuzzCase",
    "GENERATORS",
    "fuzz_oracle",
    "make_case",
    "shrink_arrivals",
    "shrink_case",
    "CheckingScheduler",
    "Violation",
    "OracleReport",
    "certify_optimality",
    "oracle_max_admitted",
    "oracle_max_admitted_discrete",
    "oracle_max_admitted_fluid",
]
