"""Failure injection + SLO monitoring: watching a brownout hit and pass.

Serves a steady shaped workload on a server that browns out to a third
of its speed for four seconds mid-run (a ``RateDroop`` on the fault
plane), then uses the windowed compliance monitor to show the violation
is confined to the injected window and the system recovers on its own.

Run:  python examples/brownout_monitoring.py [duration_seconds]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.analysis.monitor import ComplianceMonitor
from repro.analysis.reporting import ascii_bars
from repro.core.workload import Workload
from repro.faults import FaultSchedule, RateDroop, run_resilient
from repro.units import ms


def main(duration: float = 30.0) -> None:
    delta = ms(200)
    cmin, delta_c = 50.0, 10.0
    window = (duration * 0.3, duration * 0.3 + 4.0)
    gen = np.random.default_rng(4)
    workload = Workload(
        np.sort(gen.uniform(0.0, duration, int(40 * duration))), name="steady"
    )
    print(f"{len(workload)} requests at 40 IOPS on a {cmin + delta_c:.0f} IOPS "
          f"server; brownout to 1/3 speed during "
          f"[{window[0]:.0f}, {window[1]:.0f}) s\n")

    result = run_resilient(
        workload, "miser", cmin, delta_c, delta,
        schedule=FaultSchedule([RateDroop(*window, factor=3.0)]),
    )

    monitor = ComplianceMonitor(delta=delta, target=0.8, window=1.0)
    monitor.record_requests(result.completed)

    windows = monitor.windows()
    labels = [f"t={w.start:>4.0f}s" for w in windows]
    values = [w.fraction for w in windows]
    print(ascii_bars(labels, values, width=40))
    print(f"\noverall <= {delta * 1000:.0f} ms: {monitor.overall_fraction:.1%}")
    print(f"violated windows: "
          f"{[f'{w.start:.0f}s' for w in monitor.violations()]}")
    print(f"availability (1 s windows >= 80%): {monitor.availability():.1%}")
    print("\nThe dips line up with the injected brownout and its drain; "
          "no operator action was needed to recover.")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 30.0)
