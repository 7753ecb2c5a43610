"""Tests for the command-line table generator."""

import pytest

from repro.cli import main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "FlexNIC" in out
        assert "Azure SmartNIC" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "238.1Mpps" in out
        assert "595.2Mpps" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "5.60" in out
        assert "6x6 Mesh" in out

    def test_demo_runs_fast_path(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "served-on-nic" in out
        assert "host CPU ran   : 0 times" in out

    def test_all(self, capsys):
        assert main(["all"]) == 0
        out = capsys.readouterr().out
        for marker in ("Table 1", "Table 2", "Table 3", "served-on-nic"):
            assert marker in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["tableX"])

    @pytest.mark.parametrize("argv", [
        ["table1", "--nics", "9"],       # a rack option on a table
        ["trace", "--transport", "sr"],  # a chaos option on trace
    ])
    def test_option_the_command_does_not_take_is_an_error(
            self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_help_lists_only_the_commands_own_options(self, capsys):
        with pytest.raises(SystemExit):
            main(["trace", "--help"])
        out = capsys.readouterr().out
        assert "--sample-every" in out and "--trace-out" in out
        assert "--nics" not in out and "--transport" not in out

    def test_rack_reports_equivalence(self, capsys):
        assert main(["rack", "--nics", "3", "--frames", "4",
                     "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical reports : yes" in out
        assert "monolithic" in out
        assert "sharded" in out
        assert "speedup" in out


class TestIntReportCli:
    def test_incast_flight_record(self, capsys, tmp_path):
        out_json = tmp_path / "int_report.json"
        trace = tmp_path / "int_trace.json"
        assert main(["int-report", "--nics", "4", "--frames", "20",
                     "--gap-ns", "200", "--workers", "2",
                     "--int-out", str(out_json),
                     "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "INT flight record" in out
        assert "nic1->nic0" in out
        assert "microburst" in out.lower()
        assert "bit-identical" not in out  # mono-vs-sharded runs silently
        import json
        report = json.loads(out_json.read_text())
        assert report["postcards"] == 60
        assert report["microbursts"]
        events = json.loads(trace.read_text())
        assert any(ev.get("name") == "microburst"
                   for ev in events["traceEvents"])

    def test_inband_monolithic(self, capsys):
        assert main(["int-report", "--nics", "3", "--frames", "4",
                     "--inband"]) == 0
        out = capsys.readouterr().out
        assert "in-band" in out
        assert "INT flight record" in out
