"""CLI tests: parsing, exit codes, file outputs, determinism."""

import json

import pytest
import yaml

from cskfde import cli, harness
from cskfde import config as cfgmod


@pytest.fixture()
def fast_config(tmp_path):
    """Config file that keeps Monte Carlo work tiny for CLI-level tests."""
    path = tmp_path / "fast.yaml"
    path.write_text(yaml.safe_dump({
        "min_bit_errors": 20,
        "max_bits": 200_000,
        "target_ber": 1e-2,
    }))
    return str(path)


class TestParsing:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.run([]) == 2

    def test_unknown_flag_rejected(self):
        assert cli.run(["ber-curve", "--nope", "1"]) == 2

    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "N=64" in text and "L=8" in text and "24e6" in text

    def test_unsupported_order_exits_2(self, capsys):
        code = cli.run(["constellation", "--scheme", "tled", "--order", "32"])
        assert code == 2
        assert "UnsupportedOrder" in capsys.readouterr().err

    def test_bad_entries_exit_2(self):
        assert cli.run(["table1", "--entries", "qled:4:1.0"]) == 2
        assert cli.run(["table1", "--entries", "qled:4:x:fde"]) == 2

    @pytest.mark.parametrize("flags", [
        ["--scheme", "qled", "--order", "32"],
        ["--scheme", "tled", "--order", "64"],
        ["--dt", "-1"],
        ["--target-ber", "0.7"],
    ])
    def test_invalid_config_exits_2(self, flags, capsys):
        assert cli.run(["ber-curve", "--snr", "10"] + flags) == 2
        assert "error:" in capsys.readouterr().err

    def test_ber_curve_needs_grid(self):
        assert cli.run(["ber-curve", "--scheme", "qled", "--order", "4"]) == 2


class TestConstellationCommand:
    def test_export(self, tmp_path):
        out = tmp_path / "c.csv"
        code = cli.run(["constellation", "--scheme", "qled", "--order", "16",
                        "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 17
        assert lines[0] == "label,x,y,I_0,I_1,I_2,I_3"

    def test_stdout_default(self, capsys):
        assert cli.run(["constellation", "--scheme", "tled", "--order", "4"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("label,x,y,I_0,I_1,I_2")


class TestLoopbackCommand:
    def test_qled_4096_reports_zero_errors(self, capsys):
        code = cli.run(["loopback-check", "--scheme", "qled", "--order", "4096",
                        "--dt", "1", "--fde", "on", "--bits", "120000"])
        assert code == 0
        assert "0 bit errors" in capsys.readouterr().out

    def test_unequalised_dispersion_fails_loopback(self, capsys):
        code = cli.run(["loopback-check", "--scheme", "tled", "--order", "16",
                        "--dt", "1", "--fde", "off", "--bits", "40000"])
        assert code == 1

    @pytest.mark.parametrize("g,error", [
        ([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
         "SingularMatrix"),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "DimensionMismatch"),
        ([[float("nan"), 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
         "SingularMatrix"),
    ])
    def test_bad_cil_matrix_is_a_typed_error(self, tmp_path, capsys, g, error):
        path = tmp_path / "g.yaml"
        path.write_text(yaml.safe_dump({"matrices": {"g_qled": g}}))
        code = cli.run(["loopback-check", "--config", str(path), "--bits", "1024"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: {error}:")
        assert captured.out == ""


class TestBerCurveCommand:
    def test_writes_csv(self, tmp_path, fast_config):
        out = tmp_path / "curve.csv"
        code = cli.run(["ber-curve", "--scheme", "qled", "--order", "4",
                        "--dt", "0.5", "--config", fast_config,
                        "--snr-range", "4:8:2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4

    def test_byte_identical_reruns(self, tmp_path, fast_config):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["ber-curve", "--scheme", "qled", "--order", "4", "--dt", "0.5",
                "--config", fast_config, "--snr", "7.0", "--seed", "5"]
        assert cli.run(argv + ["--out", str(a)]) == 0
        assert cli.run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_matches_library_curve_on_sorted_grid(self, tmp_path):
        """The command is run_ber_curve over the sorted grid, with the
        config file's sources and G matrix."""
        file_cfg = {"min_bit_errors": 20, "max_bits": 200_000,
                    "sources": {"qled": [
                        {"name": "B", "xy": [0.0, 0.0]},
                        {"name": "C", "xy": [0.0, 0.5]},
                        {"name": "Y", "xy": [0.5, 0.5]},
                        {"name": "R", "xy": [0.5, 0.0]}]},
                    "matrices": {"g_qled": [[0.9, 0.1, 0, 0], [0.1, 0.8, 0.1, 0],
                                            [0, 0.1, 0.8, 0.1], [0, 0, 0.1, 0.9]]}}
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(file_cfg))
        out = tmp_path / "cli.csv"
        assert cli.run(["ber-curve", "--scheme", "qled", "--order", "4",
                        "--dt", "0.5", "--config", str(path), "--seed", "3",
                        "--snr", "9", "--snr", "5", "--snr", "7",
                        "--out", str(out)]) == 0
        cfg = harness.ExperimentConfig(scheme="qled", order=4, dt=0.5,
                                       min_bit_errors=20, max_bits=200_000,
                                       seed=3)
        curve = harness.run_ber_curve(
            cfg, [5.0, 7.0, 9.0],
            constellation=cfgmod.build_constellation_from_config(file_cfg, "qled", 4),
            g_matrix=cfgmod.g_matrix_from_config(file_cfg, "qled"))
        lib = tmp_path / "lib.csv"
        harness.write_curve_csv(lib, curve)
        assert out.read_bytes() == lib.read_bytes()
        default = tmp_path / "default.csv"
        harness.write_curve_csv(default, harness.run_ber_curve(cfg, [5.0, 7.0, 9.0]))
        assert default.read_bytes() != lib.read_bytes()


class TestTable1Command:
    def test_entry_and_json_summary(self, tmp_path, fast_config):
        out = tmp_path / "t1.csv"
        js = tmp_path / "t1.json"
        code = cli.run(["table1", "--entries", "qled:4:0.5:fde",
                        "--config", fast_config, "--seed", "7",
                        "--out", str(out), "--json", str(js)])
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[1].startswith("qled,4,0.5,1")
        data = json.loads(js.read_text())
        assert data["entries"][0]["order"] == 4
        assert data["entries"][0]["achievable"] is True

    def test_power_vs_dt(self, tmp_path, fast_config):
        out = tmp_path / "sweep.csv"
        code = cli.run(["power-vs-dt", "--scheme", "qled", "--order", "4",
                        "--fde", "on", "--config", fast_config,
                        "--dt-list", "0.1,1.0", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 3


class TestConfigPrecedence:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({
            "scheme": "tled", "order": 8, "min_bit_errors": 20,
            "max_bits": 100_000, "target_ber": 1e-2}))
        out = tmp_path / "c.csv"
        code = cli.run(["constellation", "--config", str(cfg),
                        "--order", "4", "--out", str(out)])
        assert code == 0
        # scheme from file (tled, 3 bands), order from the flag
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "label,x,y,I_0,I_1,I_2"
        assert len(lines) == 5

    def test_source_override_from_file(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(yaml.safe_dump({
            "sources": {"qled": [
                {"name": "B", "xy": [0.0, 0.0]},
                {"name": "C", "xy": [0.0, 0.5]},
                {"name": "Y", "xy": [0.5, 0.5]},
                {"name": "R", "xy": [0.5, 0.0]},
            ]}}))
        out = tmp_path / "c.csv"
        code = cli.run(["constellation", "--scheme", "qled", "--order", "4",
                        "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert "0.500000000" in out.read_text()
