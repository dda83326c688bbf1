"""The deadline and room tolerances live in :mod:`repro.units` alone.

Every module under ``src/repro`` is tokenized; a number literal equal to
``1e-9`` or ``1e-12`` outside ``repro/units.py`` is either a new copy of
a rule the units module owns (use ``met_deadline``, ``count_within``,
``q1_limit`` or ``EPS``) or a different tolerance that must be listed in
:data:`ALLOWED` with the reason it is not a deadline or room tolerance.
"""

from __future__ import annotations

import re
import tokenize
from pathlib import Path

import pytest

import repro
from repro import units
from repro.core import bounds, rtt, slack
from repro.perf import native, scalar
from repro.sched import fair, sized

PACKAGE = Path(repro.__file__).parent

#: The two tolerance values the units module owns.
TOLERANCES = (1e-9, 1e-12)

#: ``(module, source line) -> reason``: literals that are not a deadline
#: or room tolerance.
ALLOWED = {
    ("sim/engine.py", "if time < now - 1e-12:"): (
        "clock guard: an event time behind the clock by more than float "
        "noise is an engine error"
    ),
    ("core/streaming.py", "if arrival < self._last_time - 1e-12:"): (
        "clock guard: the live estimator refuses an arrival stream that "
        "runs backwards"
    ),
    ("core/curves.py", "if backlog_end is None or t > backlog_end + 1e-12:"): (
        "clock guard: an arrival at the drain instant stays in the same "
        "busy period"
    ),
    ("check/invariants.py", "if virtual < self._last_virtual - 1e-12:"): (
        "ordering guard: fair-queue virtual time never runs backwards"
    ),
    ("check/invariants.py", "if deadline < self._last_q1_deadline - 1e-12:"): (
        "ordering guard: EDF dispatches primaries in deadline order"
    ),
    (
        "check/invariants.py",
        "if boost_min is not None and key_value > boost_min + 1e-12:",
    ): "ordering guard: Boost dispatches its smallest key",
    ("sched/fair.py", "ELIGIBILITY_SLACK = 1e-12"): (
        "WF2Q eligibility: a virtual start time tied with virtual time"
    ),
    ("core/sla.py", "return self.achieved_fraction >= self.tier.fraction - 1e-12"): (
        "a ratio comparison: an achieved fraction against a tier's fraction"
    ),
    (
        "sched/drr.py",
        "fid: max(1e-9, quantum_scale * len(weights) * w / total)",
    ): "DRR's quantum floor keeps every flow live; not a comparison",
    ("traces/perturb.py", "while remaining > 1e-9:"): (
        "trace generator: stop amplifying once the factor is used up"
    ),
    ("traces/synthetic/poisson.py", "if np.any(rates > rate_max + 1e-9):"): (
        "trace generator: a thinning rate may touch its ceiling"
    ),
    (
        "experiments/figure4.py",
        "if c.workload_name == workload_name and abs(c.delta - delta) < 1e-12:",
    ): "float-equality lookup of a swept deadline",
    ("experiments/figure6.py", "if abs(p.fraction - fraction) < 1e-12:"): (
        "float-equality lookup of a swept fraction"
    ),
    (
        "experiments/figure7.py",
        "if c.workload_name == workload_name and abs(c.fraction - fraction) < 1e-12:",
    ): "float-equality lookup of a swept fraction",
    (
        "experiments/figure7.py",
        "cells = [c for c in result.cells if abs(c.fraction - fraction) < 1e-12]",
    ): "float-equality lookup of a swept fraction",
    (
        "experiments/serve.py",
        "abs(self.offline_post_fault_q1 - self.serve_post_fault_q1) < 1e-12",
    ): "float equality of two compliance fractions",
    (
        "analysis/reporting.py",
        'flag = " <== target" if any(abs(g - m) < 1e-12 for m in marks) else ""',
    ): "float-equality lookup of a marked grid point",
    ("analysis/reporting.py", "top = max(max(values), 1e-12)"): (
        "a bar chart's scale floor against dividing by zero"
    ),
    ("check/corpus.py", "FLOAT_TOLERANCE = 1e-9"): (
        "the golden corpus's relative/absolute comparison tolerance"
    ),
    ("check/differential.py", "rotation_time=1e-12,"): (
        "a model parameter: a disk whose rotation costs next to nothing"
    ),
}


def _value(text: str) -> float | None:
    try:
        return float(text.replace("_", ""))
    except ValueError:  # imaginary or hexadecimal literals
        return None


def _tolerance_literals():
    """``(module, line number, source line)`` of every tolerance literal."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        with path.open("rb") as source:
            for token in tokenize.tokenize(source.readline):
                if token.type == tokenize.NUMBER and _value(token.string) in TOLERANCES:
                    yield module, token.start[0], token.line.strip()


def test_no_tolerance_literal_outside_units_and_the_allowlist():
    stray = [
        f"{module}:{line_no}: {line}"
        for module, line_no, line in _tolerance_literals()
        if module != "units.py" and (module, line) not in ALLOWED
    ]
    assert not stray, (
        "tolerance literals outside repro.units; use its rules, or add an "
        "ALLOWED entry saying why this is not a deadline or room "
        "tolerance:\n" + "\n".join(stray)
    )


def test_every_allowlist_entry_is_still_needed():
    found = {(module, line) for module, _, line in _tolerance_literals()}
    assert sorted(set(ALLOWED) - found) == []


def test_units_defines_each_tolerance_once():
    defined = sorted(
        line for module, _, line in _tolerance_literals() if module == "units.py"
    )
    assert defined == ["DEADLINE_SLACK: float = 1e-12", "EPS: float = 1e-9"]


def test_the_kernels_epsilon_is_the_units_constant():
    assert scalar.EPS is units.EPS


def test_the_native_source_restates_no_python_rule():
    """The C source takes every tolerance, sentinel and size bound as an
    argument: none of their values is written in it."""
    numbers = {
        float(text)
        for text in re.findall(r"(?<![\w.])\d+\.?\d*(?:[eE][-+]?\d+)?", native._C_SOURCE)
    }
    owned = {
        units.EPS,
        units.DEADLINE_SLACK,
        units.MIN_SIZE,
        units.MAX_SIZE,
        fair.ELIGIBILITY_SLACK,
        float(slack.no_constraint()),
    }
    assert numbers and not numbers & owned


@pytest.mark.parametrize(
    ("module", "name"),
    [
        (rtt, "_EPS"),
        (bounds, "_EPS"),
        (sized, "PREEMPT_EPS"),
        (units, "TIME_EPSILON"),
    ],
)
def test_the_private_copies_are_gone(module, name):
    assert not hasattr(module, name)
