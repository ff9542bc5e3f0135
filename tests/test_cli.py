"""CLI tests: parsing, exit codes, file outputs, determinism."""

import contextlib
import io
import json

import pytest
import yaml

from cskfde import cli, harness
from cskfde import colorimetry as col
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
        ["--seed", "-1"],
        ["--rs", "0"],
        ["--seed", str(1 << 64)],
    ])
    def test_invalid_config_exits_2(self, flags, capsys):
        assert cli.run(["ber-curve", "--snr", "10"] + flags) == 2
        assert "error:" in capsys.readouterr().err

    def test_ber_curve_needs_grid(self):
        assert cli.run(["ber-curve", "--scheme", "qled", "--order", "4"]) == 2

    @pytest.mark.parametrize("grid", ["10:20:0", "10:20:-1", "10:nan:1",
                                      "-inf:20:1", "10:20:inf"])
    def test_bad_snr_range_is_a_usage_error(self, grid, capsys):
        assert cli.run(["ber-curve", f"--snr-range={grid}"]) == 2
        assert "usage error: --snr-range" in capsys.readouterr().err

    @pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
    def test_non_finite_snr_is_a_usage_error(self, snr, capsys, started_threads,
                                             fast_config):
        assert cli.run(["ber-curve", "--config", fast_config, "--snr=12",
                        f"--snr={snr}"]) == 2
        assert "usage error: --snr needs finite values" in capsys.readouterr().err
        assert started_threads == []


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

    @pytest.mark.parametrize("bits", ["0", "-100"])
    def test_non_positive_bits_exit_2(self, bits, capsys, started_threads):
        code = cli.run(["loopback-check", f"--bits={bits}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(
            f"error: InvalidParameter: n_bits must be >= 1, got {bits}")
        assert captured.out == ""
        assert started_threads == []

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
            constellation=col.build_constellation(
                "qled", 4, cfgmod.sources_from_config(file_cfg, "qled")),
            g_matrix=cfgmod.g_matrix_from_config(file_cfg, "qled"))
        lib = tmp_path / "lib.csv"
        with open(lib, "w", newline="") as fh:
            harness.write_curve_csv(fh, curve)
        assert out.read_bytes() == lib.read_bytes()
        default = tmp_path / "default.csv"
        with open(default, "w", newline="") as fh:
            harness.write_curve_csv(fh, harness.run_ber_curve(cfg, [5.0, 7.0, 9.0]))
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


def _write_config(tmp_path, text):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    return str(path)


class TestConfigValues:
    """ExperimentConfig converts file values; a bad or unknown key exits 2."""

    def test_upper_case_scheme_runs_that_scheme(self, tmp_path, capsys):
        path = _write_config(tmp_path, "scheme: TLED\n")
        assert cli.run(["constellation", "--config", path]) == 0
        assert capsys.readouterr().out.startswith("label,x,y,I_0,I_1,I_2\r\n")
        assert cli.run(["loopback-check", "--config", path, "--bits", "4096"]) == 0
        assert capsys.readouterr().out.startswith("loopback tled-4 ")

    @pytest.mark.parametrize("text,message", [
        ('fde: "off"\n', "fde: expected bool, got 'off'"),
        ("max_bits: 2e8\n", "max_bits: expected int, got '2e8'"),
        ("n: [1, 2]\n", "n: expected int, got [1, 2]"),
        ("order: 4.5\n", "order: expected int, got 4.5"),
        ("seed: true\n", "seed: expected int, got True"),
        ("dt: [0.1]\n", "dt: expected float, got [0.1]"),
        ("max_bit: 1000\n", "unknown key 'max_bit'"),
        ("sources: [1, 2]\n", "sources: must be a mapping"),
        ("sources: {QLED: []}\n", "unknown key 'sources.QLED'"),
        ("matrices: {g_qeld: [[1]]}\n", "unknown key 'matrices.g_qeld'"),
        ("matrices: {g_qled: [[1, 0], [0]]}\n", "matrices.g_qled: must be"),
        ("[1, 2]\n", "top level must be a mapping"),
        ("scheme: [\n", "not valid YAML"),
        ("n_taps: 8\n", "unknown key 'n_taps'"),
    ])
    def test_bad_value_exits_2_naming_the_key(self, tmp_path, capsys, text,
                                              message):
        path = _write_config(tmp_path, text)
        assert cli.run(["constellation", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: InvalidConfig: {message}")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text", ["min_bit_errors: 0\n", "min_bit_errors: -5\n",
                                      "max_bits: 0\n"])
    def test_non_positive_floor_or_budget_exits_2(self, tmp_path, capsys, text):
        key = text.split(":")[0]
        path = _write_config(tmp_path, text)
        assert cli.run(["ber-curve", "--config", path, "--snr", "16"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: InvalidParameter: {key} must be >= 1")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_unknown_key_error_lists_the_accepted_keys(self, tmp_path, capsys):
        path = _write_config(tmp_path, "max_bit: 1000\n")
        assert cli.run(["constellation", "--config", path]) == 2
        err = capsys.readouterr().err
        for key in ["max_bits", "min_bit_errors", "sources", "tables", "matrices"]:
            assert key in err

    def test_whole_float_and_exponent_values_convert(self, tmp_path, capsys):
        path = _write_config(tmp_path, "order: 16.0\ntarget_ber: 1e-3\n"
                                       "fde: false\nmax_bits: 2.0e+8\n")
        assert cli.run(["loopback-check", "--config", path, "--bits", "4096"]) == 0
        assert capsys.readouterr().out.startswith("loopback qled-16 dt=0 fde=off:")

    def test_table1_entry_scheme_is_normalised(self, capsys, fast_config):
        assert cli.run(["table1", "--entries", "QLED:4:0:fde",
                        "--config", fast_config]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("qled,4,0,1,")


class TestOutputTarget:
    def test_stdout_is_looked_up_at_call_time(self):
        """``contextlib.redirect_stdout`` swaps sys.stdout after import."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.run(["constellation", "--scheme", "qled", "--order", "4"]) == 0
        assert buf.getvalue().startswith("label,x,y,I_0,I_1,I_2,I_3")
        assert not buf.closed
