"""``repro-check`` CLI: pass/fail wiring and injected-bug detection."""

from pathlib import Path

from repro.check import cli
from repro.sched.classifier import OnlineRTTClassifier

CORPUS = Path(__file__).resolve().parents[1] / "corpus"


class TestCleanRuns:
    def test_corpus_pass(self, capsys):
        assert cli.main(["--corpus", str(CORPUS)]) == 0
        out = capsys.readouterr().out
        assert "corpus OK" in out
        assert "repro-check: PASS" in out

    def test_fuzz_and_differential_pass(self, capsys):
        assert cli.main(["--fuzz", "4", "--differential", "1"]) == 0
        out = capsys.readouterr().out
        assert "fuzz OK" in out
        assert "differential OK" in out

    def test_differential_passes_a_sub_eps_tie(self, capsys):
        """Case 4 admits a request inside the EPS tie tolerance (see
        ``test_strict_count_tie_regression``); the first nine cases also
        run one closed-loop population per single-server policy."""
        assert cli.main(["--differential", "9"]) == 0
        out = capsys.readouterr().out
        assert "closed loops" in out

    def test_budget_truncates_without_failing(self, capsys):
        assert cli.main(["--fuzz", "64", "--budget", "0.0"]) == 0
        out = capsys.readouterr().out
        assert "budget" in out
        assert "truncated, not failed" in out

    def test_budget_message_absent_when_work_finishes(self, capsys):
        assert cli.main(["--fuzz", "4", "--budget", "600"]) == 0
        assert "truncated" not in capsys.readouterr().out


class TestEnvironment:
    def test_aqm_variable_changes_nothing(self, capsys, monkeypatch):
        """No variable arms a window: the compared runs stay alike."""
        monkeypatch.setenv("REPRO_AQM", "static")
        assert cli.main(["--differential", "2"]) == 0
        assert "repro-check: PASS" in capsys.readouterr().out


class TestInjectedBugDetection:
    """Acceptance: a seeded off-by-one in maxQ1 must fail the corpus."""

    def test_off_by_one_limit_fails_corpus(self, capsys, monkeypatch):
        original = OnlineRTTClassifier.__init__

        def off_by_one(self, capacity, delta, mode="count"):
            original(self, capacity, delta, mode)
            self.limit += 1  # admit one request beyond C*delta
            self.planned_limit += 1

        monkeypatch.setattr(OnlineRTTClassifier, "__init__", off_by_one)
        status = cli.main(["--corpus", str(CORPUS)])
        out = capsys.readouterr().out
        assert status != 0
        assert "corpus FAILED" in out
        assert "repro-check: FAIL" in out
        # The live invariant audit names the broken guarantee too: the
        # extra admission overloads Split's dedicated Cmin server.
        assert "split-q1-guarantee" in out

    def test_clean_after_monkeypatch_removed(self):
        assert cli.main(["--corpus", str(CORPUS)]) == 0


class TestParser:
    def test_defaults(self):
        args = cli.build_parser().parse_args([])
        assert args.corpus is None
        assert args.fuzz is None
        assert args.differential is None
        assert args.seed == 0

    def test_policy_override(self):
        args = cli.build_parser().parse_args(["--policies", "fcfs", "miser"])
        assert args.policies == ["fcfs", "miser"]
