"""``repro-check``: the verification subsystem's command-line front end.

Three verification passes, composable in one invocation:

* ``--corpus DIR`` — replay every golden trace under ``DIR`` and fail
  on any drift from the pinned outcomes (the regression pass CI runs on
  every push);
* ``--fuzz N`` — generate ``N`` fresh traces (round-robin over the
  poisson / onoff / bmodel / adversarial generators) and certify each
  against the exact DP oracle, shrinking any counterexample;
* ``--differential N`` — run ``N`` fuzzed traces through every
  recombination policy with the invariant auditors on, plus the kernel
  parity, execution-engine parity (the event loop vs the path
  ``auto`` takes: the native loops where the C code builds, the
  heap-free loop otherwise), serve-vs-simulate parity (one rotating
  policy per case), closed-loop parity (one population per case,
  rotating through every policy), and server-model cross-checks;
* ``--serve-parity DIR`` — replay every golden trace under ``DIR``
  through the online serving plane (:mod:`repro.serve`) and certify
  serve ≡ simulate bit-for-bit across every policy.

With no pass selected, a default smoke run executes: the corpus (when
``tests/corpus`` exists), a small fuzz batch, and a small differential
batch.  Exit status is non-zero iff *any* selected pass found a
problem, so the command slots directly into CI.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .corpus import load_golden, replay_corpus
from ..sched.registry import ALL_POLICIES
from ..sim.rng import derive_seed
from ..workload.sizes import BimodalDemand
from .differential import (
    closed_loop_parity,
    differential_policies,
    engine_parity,
    fcfs_lindley_check,
    kernel_parity,
    serve_parity,
)
from .fuzz import GENERATORS, FuzzCase, fuzz_oracle, make_case

#: Default corpus location relative to the working directory.
DEFAULT_CORPUS = Path("tests") / "corpus"


def _run_corpus(directory: Path) -> tuple[int, list[str]]:
    report = replay_corpus(directory)
    lines = [report.summary()]
    return (0 if report.ok else 1), lines


def _run_fuzz(n_cases: int, seed: int, budget: float | None) -> tuple[int, list[str]]:
    lines: list[str] = []
    start = time.monotonic()
    failures = []
    done = 0
    # Chunked so a --budget cap lands between cases, not mid-oracle.
    chunk = 16
    while done < n_cases:
        take = min(chunk, n_cases - done)
        batch = fuzz_oracle(take, seed=seed + done, shrink=True)
        failures.extend(batch)
        done += take
        if (
            budget is not None
            and done < n_cases
            and time.monotonic() - start > budget
        ):
            lines.append(
                f"fuzz budget of {budget:g}s reached after {done} cases "
                f"(requested {n_cases}) — coverage truncated, not failed"
            )
            break
    if failures:
        lines.append(f"fuzz FAILED: {len(failures)} of {done} cases disagree "
                     "with the oracle")
        for failure in failures:
            lines.extend(f"  {p}" for p in failure.problems)
            if failure.shrunk is not None:
                lines.append(
                    f"  shrunk reproducer ({len(failure.shrunk.arrivals)} "
                    f"requests): {list(failure.shrunk.arrivals)} "
                    f"C={failure.shrunk.capacity:g} "
                    f"delta={failure.shrunk.delta:g}"
                )
        return 1, lines
    lines.append(f"fuzz OK: {done} traces certified optimal by the DP oracle")
    return 0, lines


def _population(case: FuzzCase, seed: int, index: int) -> dict:
    """Closed-loop parity arguments for fuzz case ``index``.

    2-8 users whose think time matches the server's rate keep it near
    saturation, for about 120 requests; the cases alternate unit and
    bimodal demand, and count and work admission.
    """
    rate = case.capacity + max(1.0, case.capacity / 2)
    n_users = 2 + index % 7
    return {
        "n_users": n_users,
        "think_time": n_users / rate,
        "horizon": 120.0 / rate,
        "seed": derive_seed(seed, "check.closed-loop", index),
        "demand_sampler": BimodalDemand(long=4.0) if index % 2 else None,
        "admission": ("count", "work")[index // 2 % 2],
    }


def _run_differential(
    n_cases: int, seed: int, policies: tuple[str, ...]
) -> tuple[int, list[str]]:
    lines: list[str] = []
    status = 0
    problems = 0
    for index in range(n_cases):
        generator = GENERATORS[index % len(GENERATORS)]
        case = make_case(generator, seed, index, max_requests=120)
        workload = case.workload()
        parity = kernel_parity(workload, case.capacity, case.delta)
        if not parity.ok:
            status = 1
            problems += 1
            lines.append(parity.summary())
        for problem in fcfs_lindley_check(workload, case.capacity):
            status = 1
            problems += 1
            lines.append(problem)
        engines = engine_parity(
            workload, case.capacity, max(1.0, case.capacity / 2), case.delta
        )
        if not engines.ok:
            status = 1
            problems += 1
            lines.append(engines.summary())
        report = differential_policies(
            workload, case.capacity, max(1.0, case.capacity / 2), case.delta,
            policies=policies,
        )
        if not report.ok:
            status = 1
            problems += 1
            lines.append(report.summary())
        # Serve-vs-simulate parity: one policy per case, rotating through
        # the full set so N >= len(policies) covers every policy.
        serve_policy = ALL_POLICIES[index % len(ALL_POLICIES)]
        serving = serve_parity(
            workload, case.capacity, max(1.0, case.capacity / 2), case.delta,
            policies=(serve_policy,),
        )
        if not serving.ok:
            status = 1
            problems += 1
            lines.append(serving.summary())
        # Closed-loop parity: one population per case, rotating through
        # every policy on the path auto takes it to.
        for problem in closed_loop_parity(
            ALL_POLICIES[index % len(ALL_POLICIES)],
            case.capacity,
            max(1.0, case.capacity / 2),
            case.delta,
            **_population(case, seed, index),
        ):
            status = 1
            problems += 1
            lines.append(problem)
    if status == 0:
        lines.append(
            f"differential OK: {n_cases} traces x {len(policies)} policies, "
            "kernels, engines, closed loops, serve harness and invariants agree"
        )
    else:
        lines.insert(0, f"differential FAILED: {problems} problem(s)")
    return status, lines


def _run_serve_parity(directory: Path) -> tuple[int, list[str]]:
    """Replay every golden trace through the serving plane, all policies."""
    paths = sorted(Path(directory).glob("*.json"))
    if not paths:
        return 1, [f"serve-parity: no golden traces under {directory}"]
    lines: list[str] = []
    status = 0
    for path in paths:
        golden = load_golden(path)
        report = serve_parity(
            golden.workload(), golden.capacity, golden.delta_c, golden.delta
        )
        if not report.ok:
            status = 1
            lines.append(f"{path.name}: {report.summary()}")
    if status == 0:
        lines.append(
            f"serve parity OK: {len(paths)} golden traces x "
            f"{len(ALL_POLICIES)} policies, serve == simulate bit-for-bit"
        )
    return status, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Oracle, differential, and golden-trace verification.",
    )
    parser.add_argument(
        "--corpus",
        metavar="DIR",
        default=None,
        help="replay the golden-trace corpus under DIR",
    )
    parser.add_argument(
        "--fuzz",
        type=int,
        metavar="N",
        default=None,
        help="certify N fuzzed traces against the DP oracle",
    )
    parser.add_argument(
        "--differential",
        type=int,
        metavar="N",
        default=None,
        help="run N fuzzed traces through every policy with auditors on",
    )
    parser.add_argument(
        "--serve-parity",
        metavar="DIR",
        default=None,
        help="replay every golden trace under DIR through the serving "
        "plane and certify serve == simulate bit-for-bit",
    )
    parser.add_argument(
        "--budget",
        type=float,
        metavar="SECONDS",
        default=None,
        help="wall-clock cap for the fuzz pass (smoke jobs)",
    )
    parser.add_argument("--seed", type=int, default=0, help="fuzz base seed")
    parser.add_argument(
        "--policies",
        nargs="+",
        default=list(ALL_POLICIES),
        help="policies for the differential pass",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    passes: list[tuple[int, list[str]]] = []
    selected = any(
        value is not None
        for value in (args.corpus, args.fuzz, args.differential, args.serve_parity)
    )
    corpus = args.corpus
    fuzz_n = args.fuzz
    diff_n = args.differential
    if not selected:
        # Default smoke run: everything, lightly.
        corpus = str(DEFAULT_CORPUS) if DEFAULT_CORPUS.is_dir() else None
        fuzz_n = 24
        diff_n = 4
    if corpus is not None:
        passes.append(_run_corpus(Path(corpus)))
    if args.serve_parity is not None:
        passes.append(_run_serve_parity(Path(args.serve_parity)))
    if fuzz_n is not None:
        passes.append(_run_fuzz(fuzz_n, args.seed, args.budget))
    if diff_n is not None:
        passes.append(_run_differential(diff_n, args.seed, tuple(args.policies)))
    status = 0
    for code, lines in passes:
        status = max(status, code)
        for line in lines:
            print(line)
    print("repro-check:", "PASS" if status == 0 else "FAIL")
    return status


if __name__ == "__main__":  # pragma: no cover - module execution guard
    sys.exit(main())
