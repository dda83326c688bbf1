"""Command-line runner: regenerate any table or figure of the paper.

Usage::

    repro-experiments table1 [--duration 300]
    repro-experiments figure2 figure6
    repro-experiments all --jobs 4 --duration 120 --output EXPERIMENTS-run.md
    repro-experiments --metrics out.jsonl [--metrics-policy miser]
    repro-experiments --summarize out.jsonl

Each experiment prints its rendered table/figure; ``--output`` appends
everything to a Markdown file with headers, which is how the committed
EXPERIMENTS.md measurements were produced.

``--jobs N`` fans the selected experiments out over ``N`` worker
processes.  Every experiment is a pure function of ``(duration,
seed_offset)`` — workers rebuild their configuration from those scalars
and reseed deterministically via :func:`repro.sim.rng.derive_seed` — so
the output is bit-identical to a serial run, in the same order.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..sim.rng import derive_seed
from . import bufferbloat, extensions, resilience, sensitivity, serve, tailbakeoff, workbound, figure2, figure3, figure4, figure5, figure6, figure7, figure8, table1
from .common import ExperimentConfig

#: Experiment registry: name -> (run, render) callables.
EXPERIMENTS = {
    "table1": (table1.run, table1.render),
    "figure2": (figure2.run, figure2.render),
    "figure3": (figure3.run, figure3.render),
    "figure4": (figure4.run, figure4.render),
    "figure5": (figure5.run, figure5.render),
    "figure6": (figure6.run, figure6.render),
    "figure7": (figure7.run, figure7.render),
    "figure8": (figure8.run, figure8.render),
    # Beyond the paper (not part of "all"):
    "extensions": (extensions.run, extensions.render),
    "sensitivity": (sensitivity.run, sensitivity.render),
    "resilience": (resilience.run, resilience.render),
    "workbound": (workbound.run, workbound.render),
    "tailbakeoff": (tailbakeoff.run, tailbakeoff.render),
    "bufferbloat": (bufferbloat.run, bufferbloat.render),
    "serve": (serve.run, serve.render),
}

#: Paper presentation order for "all" (extensions run only by name).
ORDER = ("table1", "figure2", "figure3", "figure4", "figure5", "figure6", "figure7", "figure8")


def run_experiment(name: str, config: ExperimentConfig) -> str:
    """Run one experiment and return its rendered text."""
    run, render = EXPERIMENTS[name]
    return render(run(config))


#: Per-process memo of ExperimentConfig by (duration, seed_offset): each
#: worker (and the serial path) builds the library workloads once and
#: shares them across the experiments it runs.
_configs: dict = {}


def _config_for(duration: float, seed_offset: int) -> ExperimentConfig:
    key = (duration, seed_offset)
    config = _configs.get(key)
    if config is None:
        config = _configs[key] = ExperimentConfig(
            duration=duration, seed_offset=seed_offset
        )
    return config


def _run_one(name: str, duration: float, seed_offset: int) -> tuple[str, str, float]:
    """Worker entry point: run one experiment from scalar config knobs.

    Used by both the serial and the ``--jobs`` paths so they share the
    exact same per-experiment environment.  The legacy global numpy RNG
    is reseeded from ``(seed_offset, name)`` — deterministic no matter
    which worker picks the experiment up, and identical in-process.
    (Library components draw from explicit Generators, so this is a
    guard against stray global draws, not a behavior change.)
    """
    np.random.seed(derive_seed(seed_offset, name) % 2**32)
    config = _config_for(duration, seed_offset)
    started = time.time()
    text = run_experiment(name, config)
    return name, text, time.time() - started


def _run_metrics(args) -> int:
    """Instrumented single run: plan, simulate, export JSONL, summarize."""
    from ..obs import MetricsRegistry, summarize_file
    from ..shaping import RunConfig, WorkloadShaper, run_policy
    from ..units import ms

    config = _config_for(args.duration, args.seed_offset)
    workload = config.workload(args.metrics_workload)
    delta = ms(args.metrics_delta_ms)
    shaper = WorkloadShaper(delta=delta, fraction=args.metrics_fraction)
    plan = shaper.plan(workload)
    registry = MetricsRegistry()
    result = run_policy(
        workload,
        args.metrics_policy,
        config=RunConfig(
            plan.cmin,
            plan.delta_c,
            delta,
            metrics=registry,
            sample_interval=args.metrics_interval,
        ),
    )
    lines = result.telemetry.export(args.metrics)
    print(f"wrote {lines} JSONL lines to {args.metrics}")
    print()
    print(summarize_file(args.metrics))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    # NOTE: choices are validated manually — Python 3.11's argparse
    # rejects an *empty* nargs="*" positional when choices is set.
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="experiment",
        help=f"which experiments to run: {', '.join(sorted(EXPERIMENTS))}, "
             "or 'all'",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help="check every reproduction criterion and print PASS/FAIL",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=ExperimentConfig().duration,
        help="trace length in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--seed-offset",
        type=int,
        default=0,
        help="offset added to library seeds (independent replicas)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run experiments in N worker processes (default 1 = serial); "
             "output is identical to a serial run",
    )
    parser.add_argument(
        "--output",
        type=str,
        default=None,
        help="also append rendered output to this Markdown file",
    )
    metrics_group = parser.add_argument_group(
        "observability",
        "run one instrumented simulation and export a JSONL metrics trace",
    )
    metrics_group.add_argument(
        "--metrics",
        type=str,
        default=None,
        metavar="PATH",
        help="write a JSONL trace of one instrumented run to PATH "
             "(uses --duration / --seed-offset) and print its summary",
    )
    metrics_group.add_argument(
        "--metrics-policy",
        type=str,
        default="miser",
        choices=("fcfs", "split", "fairqueue", "wf2q", "miser"),
        help="policy for the instrumented run (default %(default)s)",
    )
    metrics_group.add_argument(
        "--metrics-workload",
        type=str,
        default="websearch",
        choices=("websearch", "fintrans", "openmail"),
        help="library workload for the instrumented run (default %(default)s)",
    )
    metrics_group.add_argument(
        "--metrics-delta-ms",
        type=float,
        default=50.0,
        help="guaranteed-class bound in milliseconds (default %(default)s)",
    )
    metrics_group.add_argument(
        "--metrics-fraction",
        type=float,
        default=0.95,
        help="guaranteed fraction for capacity planning (default %(default)s)",
    )
    metrics_group.add_argument(
        "--metrics-interval",
        type=float,
        default=0.1,
        help="sampler period in simulated seconds (default %(default)s)",
    )
    metrics_group.add_argument(
        "--summarize",
        type=str,
        default=None,
        metavar="PATH",
        help="pretty-print an existing JSONL metrics trace and exit",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    if args.summarize:
        from ..obs import summarize_file

        print(summarize_file(args.summarize))
        return 0
    if args.metrics:
        return _run_metrics(args)

    if args.verify:
        from . import verify as verify_module

        config = ExperimentConfig(
            duration=args.duration, seed_offset=args.seed_offset
        )
        checks = verify_module.verify(config)
        print(verify_module.render(checks))
        return 0 if all(c.passed for c in checks) else 1
    if not args.experiments:
        parser.error(
            "name experiments to run, use 'all', or pass "
            "--verify / --metrics / --summarize"
        )
    known = set(EXPERIMENTS) | {"all"}
    unknown = [e for e in args.experiments if e not in known]
    if unknown:
        parser.error(f"unknown experiment(s) {unknown}; known: {sorted(known)}")

    names = list(ORDER) if "all" in args.experiments else args.experiments

    sections = []

    def emit(section: tuple[str, str, float]) -> None:
        name, text, elapsed = section
        print(f"== {name} ({elapsed:.1f} s) ==")
        print(text)
        print()
        sections.append(section)

    if args.jobs > 1 and len(names) > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(names))) as pool:
            futures = [
                pool.submit(_run_one, name, args.duration, args.seed_offset)
                for name in names
            ]
            # Emit in submission order: output matches the serial run.
            for future in futures:
                emit(future.result())
    else:
        for name in names:
            emit(_run_one(name, args.duration, args.seed_offset))

    if args.output:
        with open(args.output, "a", encoding="utf-8") as handle:
            for name, text, elapsed in sections:
                handle.write(f"## {name} (duration={args.duration:g}s, {elapsed:.1f}s)\n\n")
                handle.write("```\n" + text + "\n```\n\n")
        print(f"appended {len(sections)} section(s) to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
