"""Small-scale self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

It checks ``BENCHMARK.json`` against the workloads defined here, then
runs every workload at a small scale in both modes and checks that each
run is correct, emits every metric named in ``BENCHMARK.json`` (and no
other) with its unit, keeps names to ``[A-Za-z0-9_.-]``, and prints the
same determinism digest twice for the same seed. Exits 1 on the first
failed check.
"""

from __future__ import annotations

import math
import re
import sys

import run

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class SelfTestFailure(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SelfTestFailure(message)


def check_spec(spec: dict, names: set[str]) -> None:
    listed = [w["name"] for w in spec["workloads"]]
    expect(set(listed) == names, f"BENCHMARK.json lists {listed}, defined {sorted(names)}")
    metrics = spec["end_to_end"] + spec["per_layer"]
    seen = [m["name"] for m in metrics]
    expect(len(seen) == len(set(seen)), "a metric name is used twice")
    for metric in metrics:
        expect(NAME.fullmatch(metric["name"]), f"bad metric name {metric['name']!r}")
        expect(UNIT.fullmatch(metric["unit"]), f"bad unit {metric['unit']!r}")
    expect(any(m["name"] == "setup_s" for m in spec["end_to_end"]), "no setup_s")


def check_run(bench, trace: bool, spec: dict) -> str:
    result, digest = run.measure(bench, seed=7, seconds=0.0, trace=trace)
    label = f"{bench.name} trace={int(trace)}"
    expect(result["correct"], f"{label}: a check failed")
    expect(result["attempted"] >= 1 and result["failed"] == 0, f"{label}: {result}")
    expected = {
        m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]
    }
    names = result["metrics"].keys()
    expect(
        names == expected.keys(),
        f"{label}: missing {sorted(expected.keys() - names)}, "
        f"unexpected {sorted(names - expected.keys())}",
    )
    emitted = run.with_units(result["metrics"], trace)
    for name, metric in emitted.items():
        expect(metric["unit"] == expected[name], f"{label}: {name} unit")
        value = metric["value"]
        expect(isinstance(value, float) and math.isfinite(value), f"{label}: {name}={value}")
        if not trace:
            expect(value > 0, f"{label}: end-to-end metric {name} is {value}")
    return digest


def main() -> int:
    problem = run.bootstrap()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    import workloads

    spec = run.spec()
    try:
        check_spec(spec, set(workloads.WORKLOADS))
        # Every workload, shrunk to seconds of simulated time.
        small = (
            workloads.PaperOpen(duration=20.0),
            workloads.SizedClosed(horizon=40.0, profile=300.0),
            workloads.ChaosServe(duration=20.0),
        )
        for bench in small:
            first = check_run(bench, False, spec)
            second = check_run(bench, True, spec)
            expect(first == second, f"{bench.name}: digest {first} then {second}")
    except SelfTestFailure as failure:
        print(f"selftest FAILED: {failure}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
