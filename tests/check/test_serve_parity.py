"""serve_parity: certify serve == simulate on goldens and fuzzed traces.

This is the differential-replay half of the serving plane's test
contract: every golden trace in the corpus and a 240-case fuzz sweep
(all four generators x all eleven policies) must replay through the online
:class:`~repro.serve.harness.ServiceHarness` bit-identically to the
offline event engine.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.check.cli import _run_serve_parity
from repro.check.cli import main as check_main
from repro.check.corpus import load_golden
from repro.check.differential import serve_parity
from repro.check.fuzz import GENERATORS, make_case
from repro.core.workload import Workload
from repro.sched.registry import ALL_POLICIES

CORPUS = Path(__file__).resolve().parents[1] / "corpus"

#: Deterministic fuzz campaign: lcm(4 generators, 11 policies) = 44, so
#: 240 cases rotate every (generator, policy) pairing five or six times.
FUZZ_SEED = 424242
FUZZ_CASES = 240


def _goldens() -> list[Path]:
    return sorted(CORPUS.glob("*.json"))


class TestGoldenCorpus:
    @pytest.mark.parametrize(
        "path", _goldens(), ids=lambda p: p.stem
    )
    def test_each_golden_replays_bit_identically(self, path):
        golden = load_golden(path)
        report = serve_parity(
            golden.workload(),
            golden.capacity,
            golden.delta_c,
            golden.delta,
            chunks=4,
        )
        assert report.ok, report.summary()
        assert report.bit_identical
        assert report.max_drift == 0.0

    def test_cli_sweep_covers_every_golden_and_policy(self):
        status, lines = _run_serve_parity(CORPUS)
        assert status == 0
        assert len(_goldens()) == 10
        assert lines == [
            "serve parity OK: 10 golden traces x 11 policies, "
            "serve == simulate bit-for-bit"
        ]

    def test_cli_flag_is_wired(self, capsys):
        assert check_main(["--serve-parity", str(CORPUS)]) == 0
        assert "serve parity OK" in capsys.readouterr().out

    def test_missing_directory_fails(self, tmp_path):
        status, lines = _run_serve_parity(tmp_path)
        assert status == 1
        assert "no golden traces" in lines[0]


class TestFuzzedTraces:
    def test_240_fuzzed_traces_replay_bit_identically(self):
        failures = []
        for index in range(FUZZ_CASES):
            case = make_case(
                GENERATORS[index % len(GENERATORS)],
                FUZZ_SEED,
                index,
                max_requests=80,
            )
            policy = ALL_POLICIES[index % len(ALL_POLICIES)]
            report = serve_parity(
                case.workload(),
                case.capacity,
                max(1.0, case.capacity / 2.0),
                case.delta,
                policies=(policy,),
                chunks=3,
            )
            if not (report.ok and report.bit_identical):
                failures.append(f"case {index} ({policy}): {report.summary()}")
        assert not failures, "\n".join(failures)


class TestReportSemantics:
    def test_topologies_skipped_without_overflow_capacity(self):
        workload = Workload(np.array([0.0, 0.1, 0.2]), name="tiny")
        report = serve_parity(
            workload,
            4.0,
            0.0,
            0.5,
            policies=("fcfs", "split", "splitfarm"),
        )
        assert report.ok
        # The skip is recorded, not silently dropped.
        assert report.policies == ("fcfs",)

    def test_summary_reads_both_ways(self):
        workload = Workload(np.array([0.0, 0.5]), name="two")
        report = serve_parity(workload, 4.0, 2.0, 0.5, policies=("split",))
        assert "serve parity OK" in report.summary()
        assert "bit-identical" in report.summary()
