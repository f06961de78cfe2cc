"""CLI surface of the fault-tolerant runtime: ``--max-shard-retries``,
``--shard-timeout``, ``--resume``, and the exit-code discipline
(0 success, 1 operational failure, 2 usage error)."""

import pytest

from repro.cli import main

QUICK = ["--vantages", "2", "--rounds", "1", "--workers", "2",
         "--dests", "4", "--seed", "11"]


def signature_of(output):
    for line in output.splitlines():
        if line.startswith("# result signature:"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no signature line in {output!r}")


class TestSupervisedCampaign:
    def test_any_runtime_flag_engages_the_supervisor(self, capsys):
        assert main(["campaign"] + QUICK
                    + ["--max-shard-retries", "2"]) == 0
        out = capsys.readouterr().out
        assert "supervised K=1 (inline)" in out
        assert "# runtime: clean run: no runtime incidents" in out

    def test_supervised_signature_matches_unsupervised(self, capsys):
        assert main(["campaign"] + QUICK) == 0
        plain = signature_of(capsys.readouterr().out)
        assert main(["campaign"] + QUICK + ["--shards", "2",
                    "--max-shard-retries", "1"]) == 0
        assert signature_of(capsys.readouterr().out) == plain

    def test_resume_creates_journal_and_reruns_identically(
            self, tmp_path, capsys):
        journal = tmp_path / "runs" / "fleet.journal"
        argv = ["campaign"] + QUICK + ["--shards", "2", "--resume",
                                       str(journal)]
        assert main(argv) == 0
        first = signature_of(capsys.readouterr().out)
        assert journal.exists()
        # Second run resumes every shard from the journal.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert signature_of(out) == first
        assert "resumed 2 shard(s) from journal" in out

    def test_mismatched_journal_is_an_operational_error(
            self, tmp_path, capsys):
        journal = tmp_path / "fleet.journal"
        assert main(["campaign"] + QUICK + ["--resume",
                                            str(journal)]) == 0
        capsys.readouterr()
        # Same journal, different run description: refused, exit 1.
        assert main(["campaign"] + QUICK[:-1] + ["12", "--resume",
                                                 str(journal)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "different run" in err


class TestDegradedRunsAreNeverSilent:
    """Unflagged sharded runs are supervised too, so a degraded result
    prints its ``# runtime:`` block with or without runtime flags."""

    def test_unflagged_sharded_run_reports_degradation(
            self, monkeypatch, capsys):
        import repro.vantage
        from repro.runtime import ChaosPlan, RuntimeOptions

        sharded = repro.vantage.run_fleet_sharded

        def crashing(*args, runtime=None, **kwargs):
            assert runtime is None  # no runtime flag was given
            return sharded(*args, runtime=RuntimeOptions(
                max_retries=0,
                chaos=ChaosPlan.of(("shard-v1", 0, "crash"))), **kwargs)

        monkeypatch.setattr(repro.vantage, "run_fleet_sharded", crashing)
        assert main(["campaign"] + QUICK + ["--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "sharded K=2 (inline)" in out
        assert "# runtime: DEGRADED result — vantages [1] excluded" in out

    def test_clean_unflagged_sharded_run_prints_no_report(self, capsys):
        assert main(["campaign"] + QUICK + ["--shards", "2"]) == 0
        assert "# runtime:" not in capsys.readouterr().out


class TestUsageErrors:
    def test_negative_retries_rejected(self, capsys):
        assert main(["campaign"] + QUICK
                    + ["--max-shard-retries", "-1"]) == 2
        assert "--max-shard-retries" in capsys.readouterr().err

    def test_nonpositive_timeout_rejected(self, capsys):
        assert main(["campaign"] + QUICK
                    + ["--shard-timeout", "0"]) == 2
        assert "--shard-timeout" in capsys.readouterr().err

    def test_monitor_shares_the_validation(self, capsys):
        assert main(["monitor", "--dests", "4", "--duration", "60",
                     "--shard-timeout", "-3"]) == 2
        assert "--shard-timeout" in capsys.readouterr().err


class TestSupervisedMonitor:
    def test_monitor_runtime_flags_round_trip(self, tmp_path, capsys):
        base = ["monitor", "--dests", "4", "--duration", "60"]
        assert main(base) == 0
        plain = signature_of(capsys.readouterr().out)
        journal = tmp_path / "monitor.journal"
        assert main(base + ["--shards", "2", "--max-shard-retries",
                            "1", "--resume", str(journal)]) == 0
        out = capsys.readouterr().out
        assert signature_of(out) == plain
        assert "# runtime:" in out
        assert journal.exists()


class TestSupervisedIngest:
    def test_ingest_with_runtime_flags_matches_plain_digest(
            self, tmp_path, capsys):
        quick = ["--kind", "campaign", "--vantages", "2", "--rounds",
                 "1", "--dests", "4", "--seed", "11"]
        plain_store = tmp_path / "plain.sqlite"
        assert main(["ingest", "--warehouse", str(plain_store)]
                    + quick) == 0
        plain = capsys.readouterr().out
        digest = [l for l in plain.splitlines()
                  if "content digest" in l]
        supervised_store = tmp_path / "supervised.sqlite"
        assert main(["ingest", "--warehouse", str(supervised_store),
                     "--shards", "2", "--max-shard-retries", "1"]
                    + quick) == 0
        out = capsys.readouterr().out
        assert [l for l in out.splitlines()
                if "content digest" in l] == digest
        assert "# runtime:" in out
