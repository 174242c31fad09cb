"""CLI tests (driving `main(argv)` directly, asserting on stdout)."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestListing:
    def test_workloads(self, capsys):
        code, out = run_cli(capsys, "workloads")
        assert code == 0
        assert "crc32" in out and "stringsearch" in out

    def test_devices(self, capsys):
        code, out = run_cli(capsys, "devices")
        assert code == 0
        assert "TI-MSP430FR5994" in out
        assert "adc+comp" in out


class TestCompile:
    def test_compile_workload(self, capsys):
        code, out = run_cli(capsys, "compile", "crc16", "--scheme", "gecko")
        assert code == 0
        assert "checkpoint stores" in out
        assert "recovery blocks" in out

    def test_compile_nvp_no_gecko_lines(self, capsys):
        code, out = run_cli(capsys, "compile", "crc16", "--scheme", "nvp")
        assert code == 0
        assert "recovery blocks" not in out

    def test_compile_dump(self, capsys):
        code, out = run_cli(capsys, "compile", "blink", "--dump")
        assert code == 0
        assert "mark region=" in out

    def test_compile_file(self, capsys, tmp_path):
        path = tmp_path / "prog.mc"
        path.write_text("void main() { out(41 + 1); }")
        code, out = run_cli(capsys, "run", str(path))
        assert code == 0
        assert "[42]" in out

    def test_unknown_program(self, capsys):
        with pytest.raises(SystemExit):
            main(["compile", "not-a-thing"])


class TestRun:
    def test_run_prints_output_and_cycles(self, capsys):
        code, out = run_cli(capsys, "run", "crc32", "--scheme", "nvp")
        assert code == 0
        assert "output:" in out and "cycles:" in out


class TestSimulate:
    def test_simulate_benign(self, capsys):
        code, out = run_cli(capsys, "simulate", "blink",
                            "--duration", "0.05")
        assert code == 0
        assert "completions:" in out

    def test_simulate_with_attack_and_trace(self, capsys):
        code, out = run_cli(capsys, "simulate", "blink",
                            "--duration", "0.06", "--attack", "27,35",
                            "--trace")
        assert code == 0
        assert "final state:" in out
        assert "t: 0.0ms" in out  # the rendered trace

    def test_bad_attack_spec(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "blink", "--attack", "27MHz"])


class TestSweep:
    def test_sweep_finds_resonance(self, capsys):
        code, out = run_cli(capsys, "sweep", "--device",
                            "TI-MSP430FR5994", "--start", "23",
                            "--stop", "31", "--step", "4")
        assert code == 0
        assert "most effective tone: 27 MHz" in out


class TestBadRanges:
    """Empty or non-advancing ranges stop with an error line, unsimulated.

    A zero or negative sweep step used to loop forever, a reversed sweep
    ran the default grid instead, and an empty campaign axis crashed.
    """

    @pytest.fixture
    def simulated(self, monkeypatch):
        from repro.runtime import IntermittentSimulator

        calls = []

        def simulate(*args, **kwargs):
            calls.append(args)
            raise AssertionError("a bad range reached the simulator")

        monkeypatch.setattr(IntermittentSimulator, "run", simulate)
        return calls

    @pytest.mark.parametrize("argv", [
        ["sweep", "--step", "0"],
        ["sweep", "--step", "-4"],
        ["sweep", "--start", "45", "--stop", "5"],
        ["campaign", "blink", "--freqs", "45:5:4"],
        ["campaign", "blink", "--distances", "5:1:1"],
    ], ids=["zero-step", "negative-step", "reversed-sweep",
            "empty-freqs", "empty-distances"])
    def test_rejected_before_simulating(self, argv, simulated):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value.code).startswith("error:")
        assert simulated == []

    def test_frequency_grid_needs_a_positive_step(self):
        from repro.eval import frequency_sweep_mhz

        with pytest.raises(ValueError):
            frequency_sweep_mhz(step=0)
        with pytest.raises(ValueError):
            frequency_sweep_mhz(sparse_step=-50)


class TestServe:
    def test_help_lists_workers_not_shards(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "--workers" in out and "--timeout-s" in out
        assert "--shards" not in out and "--batch" not in out


class TestTorture:
    def test_clean_run_reports_and_exits_zero(self, capsys):
        code, out = run_cli(capsys, "torture", "run", "blink",
                            "--scheme", "gecko-jit", "--cases", "3",
                            "--seed", "3")
        assert code == 0
        assert "blink/gecko-jit: 3 cases, 0 violations" in out
        assert "fingerprint:" in out

    def test_corpus_round_trip(self, capsys, tmp_path):
        from .planted import heal_skipped

        root = str(tmp_path / "corpus")
        with heal_skipped():
            code, out = run_cli(capsys, "torture", "run", "heartbeat",
                                "--scheme", "gecko-rollback", "--cases", "6",
                                "--seed", "0", "--shrink-budget", "60",
                                "--corpus", root)
            assert code == 1                     # violations found
            assert "violations" in out and "corpus" in out

            code, out = run_cli(capsys, "torture", "corpus", root)
            assert code == 0 and "heartbeat" in out

            code, out = run_cli(capsys, "torture", "replay", root)
            assert code == 0
            assert "all cases reproduced" in out

    def test_replay_of_missing_corpus_fails(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["torture", "replay", str(tmp_path / "nope")])


class TestReadOnlyStoreCommands:
    @pytest.mark.parametrize("argv", [["store", "stats"],
                                      ["torture", "corpus"]])
    def test_empty_directory_is_refused_and_left_empty(self, argv,
                                                      tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(argv + [str(tmp_path)])
        assert str(exc.value.code).startswith("error:")
        assert list(tmp_path.iterdir()) == []
