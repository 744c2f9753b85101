"""Config handling, subcommand output formats, and exit codes."""

import numpy as np
import pytest

from tfqss import cli
from tfqss.core import ProtocolConfig, SystemParams
from tfqss.optimize import scan_distances

SCI_WIDTH = len("1.000000000e-01")


def _run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- config


def test_defaults_cover_every_key():
    settings = cli.default_settings()
    assert set(settings) == {
        "eta_d", "p_d", "alpha", "f", "e_d_list", "mu", "mu_list",
        "n_pairs", "distance", "l_min", "l_max", "l_step", "seed",
        "test_fraction", "qber_abort_threshold", "grid_size",
        "refine_iters", "threads", "output",
    }
    assert settings["eta_d"] == 0.56
    assert settings["e_d_list"] == [0.02, 0.04, 0.052]
    assert settings["threads"] >= 1
    system, run = SystemParams(), ProtocolConfig()
    assert (settings["eta_d"], settings["p_d"], settings["alpha"],
            settings["f"]) == (
        system.detector_efficiency, system.dark_count_rate,
        system.attenuation, system.ec_efficiency)
    assert (settings["mu"], settings["n_pairs"], settings["distance"],
            settings["seed"], settings["test_fraction"]) == (
        run.intensity, run.n_pairs, run.distance, run.rng_seed,
        run.test_fraction)


def test_default_settings_hand_out_fresh_lists():
    settings = cli.default_settings()
    settings["e_d_list"].append(0.3)
    settings["mu_list"].append(0.4)
    again = cli.default_settings()
    assert again["e_d_list"] == [0.02, 0.04, 0.052]
    assert again["mu_list"] == [0.05, 0.1, 0.2]


def test_config_text_round_trip_is_exact():
    settings = cli.default_settings()
    settings["p_d"] = 3.7e-9
    settings["e_d_list"] = [0.013, 0.0521]
    settings["n_pairs"] = 123457
    text = cli.format_config(settings)
    parsed = cli.parse_config_text(text)
    expected = {k: v for k, v in settings.items() if v is not None}
    assert parsed == expected
    assert cli.format_config(parsed) == text


def test_config_file_parsing_comments_blanks_duplicates(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# full-line comment\n"
        "\n"
        "mu = 0.07   # inline comment\n"
        "seed=3\n"
        "mu=0.09\n"  # duplicates: last one wins
        "e_d_list = 0.02, 0.04\n")
    parsed = cli.parse_config_file(str(path))
    assert parsed == {"mu": 0.09, "seed": 3, "e_d_list": [0.02, 0.04]}


def test_config_rejects_unknown_keys_and_bad_values():
    with pytest.raises(cli.ConfigError, match="unknown key"):
        cli.parse_config_text("mu_typo=0.1\n")
    with pytest.raises(cli.ConfigError, match="expected key=value"):
        cli.parse_config_text("just words\n")
    with pytest.raises(cli.ConfigError, match="bad value"):
        cli.parse_config_text("n_pairs=many\n")
    with pytest.raises(cli.ConfigError, match="at least one e_d"):
        cli.parse_config_text("e_d_list=\n")


def test_cli_overrides_beat_config_file(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("mu=0.07\nseed=3\n")
    parser = cli._build_parser()
    args = parser.parse_args(
        ["simulate", "--config", str(path), "--mu", "0.09"])
    settings = cli._merge_settings(args)
    assert settings["mu"] == 0.09   # CLI wins
    assert settings["seed"] == 3    # file beats default
    assert settings["n_pairs"] == 10**6  # untouched default


# ------------------------------------------------------------------- scan


def test_scan_csv_schema_and_ordering(capsys):
    code, out, _ = _run([
        "scan", "--l_min", "0", "--l_max", "40", "--l_step", "20",
        "--e_d_list", "0.04,0.02"], capsys)
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == ("L_km,e_d,mu_opt,gain,qber,rate,"
                        "plob,repeaterless,dps_baseline")
    assert lines[-1] == ""  # single trailing newline
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 6
    keys = [(float(r[1]), float(r[0])) for r in rows]
    assert keys == sorted(keys)  # sorted by e_d, then distance
    for row in rows:
        assert len(row) == 9
        for token in row:
            assert len(token) == SCI_WIDTH
            # locale-free scientific notation that re-renders identically
            assert f"{float(token):.9e}" == token


def test_scan_values_match_the_api(capsys):
    code, out, _ = _run([
        "scan", "--l_min", "50", "--l_max", "150", "--l_step", "50",
        "--e_d_list", "0.02"], capsys)
    assert code == 0
    table = scan_distances(50.0, 150.0, 50.0, SystemParams(), [0.02])
    rows = out.strip().split("\n")[1:]
    assert len(rows) == 3
    for row, point in zip(rows, table[0.02]):
        fields = row.split(",")
        assert fields[0] == f"{point.distance:.9e}"
        assert fields[2] == f"{point.mu_opt:.9e}"
        assert fields[5] == f"{point.rate:.9e}"
        assert fields[6] == f"{point.plob:.9e}"
        assert fields[8] == f"{point.dps_baseline:.9e}"


def test_scan_default_grid_row_count(tmp_path, capsys):
    out_path = tmp_path / "scan.csv"
    code, _, _ = _run(["scan", "--output", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().split("\n")
    assert len(lines) == 1 + 3 * 71 + 1  # header, rows, trailing newline
    assert lines[-1] == ""


def test_scan_output_file_matches_stdout(tmp_path, capsys):
    argv = ["scan", "--l_min", "0", "--l_max", "30", "--l_step", "15",
            "--e_d_list", "0.02"]
    code, out, _ = _run(argv, capsys)
    assert code == 0
    out_path = tmp_path / "scan.csv"
    code2, _, _ = _run(argv + ["--output", str(out_path)], capsys)
    assert code2 == 0
    assert out_path.read_text() == out


# --------------------------------------------------------------- simulate


def test_scan_without_dark_counts_reaches_thousands_of_km(capsys):
    # with p_d = 0 the gain is ~mu*eta, about 1e-16 here; computed as
    # 1 - e^(-mu*eta) it cancelled to 0 and the scan exited 1
    code, out, err = _run(["scan", "--p_d", "0", "--l_min", "1800",
                           "--l_max", "2000"], capsys)
    assert code == 0, err
    rows = [[float(t) for t in line.split(",")]
            for line in out.strip().split("\n")[1:]]
    assert len(rows) == 3 * 21
    for distance, e_d, mu, gain, qber, rate, *bounds in rows:
        assert all(np.isfinite([mu, gain, qber, rate, *bounds]))
        eta = 0.56 * 10.0 ** (-0.167 * distance / 20.0)
        assert gain == pytest.approx(mu * eta, rel=1e-8)
        assert qber == pytest.approx(e_d, rel=1e-8)  # no dark counts
        assert rate > 0.0


def test_simulate_report_fields_and_determinism(capsys):
    argv = ["simulate", "--n_pairs", "200000", "--seed", "9"]
    code, out, _ = _run(argv, capsys)
    assert code == 0
    values = dict(
        line.split("=", 1) for line in out.strip().split("\n")
        if not line.startswith("#"))
    assert values["n_pairs"] == "200000"
    assert values["interior_slots"] == "399998"
    for key in ("empirical_gain", "analytic_gain", "gain_z",
                "empirical_qber", "analytic_qber", "qber_z"):
        float(values[key])  # parseable scientific notation
    assert values["abort"] == "false"
    assert int(values["detected_slots"]) == (
        int(values["test_slots_consumed"]) + int(values["sifted_remaining"]))
    code2, out2, _ = _run(argv, capsys)
    assert code2 == 0
    assert out2 == out


def test_simulate_noiseless_run_has_zero_qber(capsys):
    code, out, _ = _run([
        "simulate", "--p_d", "0", "--e_d_list", "0", "--n_pairs", "100000",
        "--distance", "50", "--mu", "0.3"], capsys)
    assert code == 0
    assert "empirical_qber=0.000000000e+00" in out
    assert "abort=false" in out


def test_simulate_aborts_with_exit_code_2(capsys):
    code, out, _ = _run([
        "simulate", "--e_d_list", "0.3", "--n_pairs", "50000",
        "--seed", "2"], capsys)
    assert code == 2
    assert "abort=true" in out
    code2, _, _ = _run([
        "simulate", "--qber_abort_threshold", "0", "--n_pairs", "50000",
        "--seed", "5"], capsys)
    assert code2 == 2


# ----------------------------------------------------------------- attack


def test_attack_table_columns_and_values(capsys):
    code, out, _ = _run([
        "attack", "--distance", "300", "--mu_list", "0.05,0.1"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "mu,beta,internal_split,internal_general,external"
    first = lines[1].split(",")
    assert first[0] == "5.000000000e-02"
    assert first[1] == "8.937620690e-02"
    assert first[2] == "9.984058579e-02"
    assert first[3] == "1.000000000e-01"
    assert first[4] == "9.982493956e-02"
    second = lines[2].split(",")
    assert second[3] == "2.000000000e-01"  # general leakage 2*mu at mu=0.1


def test_attack_lossless_channel_leaks_nothing_externally(capsys):
    code, out, _ = _run([
        "attack", "--distance", "0", "--eta_d", "1", "--mu_list", "0.1"],
        capsys)
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[4] == "0.000000000e+00"


# ------------------------------------------------------------- exit codes


def test_unknown_cli_argument_exits_1(capsys):
    code, _, err = _run(["scan", "--bogus", "1"], capsys)
    assert code == 1
    assert "error:" in err


def test_unknown_config_key_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.conf"
    path.write_text("not_a_key=1\n")
    code, _, err = _run(["scan", "--config", str(path)], capsys)
    assert code == 1
    assert "unknown key" in err


def test_missing_config_file_exits_1(capsys):
    code, _, err = _run(["simulate", "--config", "/does/not/exist"], capsys)
    assert code == 1
    assert "cannot read config file" in err


def test_invalid_parameter_value_exits_1(capsys):
    code, _, err = _run(["simulate", "--mu", "0.7"], capsys)
    assert code == 1
    assert "intensity" in err


@pytest.mark.parametrize("argv,key", [
    (["scan", "--l_max", "inf"], "l_max"),  # was an OverflowError traceback
    (["scan", "--l_min", "nan"], "l_min"),
    (["scan", "--l_max", "nan"], "l_max"),
    (["scan", "--l_step", "nan"], "l_step"),
    (["scan", "--alpha", "inf"], "attenuation"),
    (["attack", "--distance", "nan"], "distance"),
    (["simulate", "--distance", "nan"], "distance"),
    (["scan", "--l_step", "inf"], "l_step"),
    (["scan", "--l_step", "0"], "l_step"),
    (["scan", "--l_step", "-5"], "l_step"),
    # the grid's point count overflowed: an OverflowError traceback
    (["scan", "--l_step", "5e-324"], "l_step"),
    (["scan", "--l_max", "1e300", "--l_step", "1e-10"], "l_step"),
])
def test_non_finite_values_exit_1_naming_the_key(argv, key, capsys):
    code, out, err = _run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {key}=")


def test_missing_subcommand_exits_1(capsys):
    code, _, err = _run([], capsys)
    assert code == 1
    assert "error:" in err


def test_unknown_command_exits_1(capsys):
    code, out, err = _run(["bogus"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["-h"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for command in ("scan", "simulate", "attack"):
        assert command in out
