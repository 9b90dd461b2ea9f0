import json
import math

import numpy as np
import pytest

import fishercap as fc
from fishercap import cli
from fishercap.cli import main


def _write_channel(tmp_path, name, record):
    p = tmp_path / name
    p.write_text(json.dumps(record))
    return str(p)


@pytest.fixture
def awgn_json(tmp_path):
    return _write_channel(tmp_path, "awgn.json", {"kind": "awgn", "A": 1.0})


@pytest.fixture
def onebit_json(tmp_path):
    return _write_channel(tmp_path, "onebit.json",
                          {"kind": "quantized_awgn", "A": 2.0, "thresholds": [0.0]})


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


def test_jf_command_m_column_decreasing(awgn_json, tmp_path):
    out = tmp_path / "jf.csv"
    rc = main(["jf", "--channel", awgn_json, "--P", "0.111",
               "--lambda-grid", "0:4:64", "--output", str(out)])
    assert rc == 0
    header, rows = _read_csv(out)
    assert len(header) == 3 and "lambda" in header[0]
    assert rows.shape == (64, 3)
    assert np.all(np.diff(rows[:, 2]) < 0)  # avg cost strictly decreasing


def test_capacity_command_matches_library(onebit_json, tmp_path):
    out = tmp_path / "cap.json"
    rc = main(["capacity", "--channel", onebit_json, "--P", "0.444",
               "--nr", "100", "--output", str(out)])
    assert rc == 0
    got = json.loads(out.read_text())
    with open(onebit_json, encoding="utf-8") as fh:
        channel = fc.channel_from_json(fh.read())
    s = fc.solve_lambda_star(channel, 0.444)
    assert got["lambda_star"] == s.lambda_star
    assert got["jf"] == s.jf
    assert got["capacity_bits"] == s.capacity_fn(100)


def test_constellation_modes(onebit_json, tmp_path):
    for mode in ["jeffreys", "pam", "poly"]:
        out = tmp_path / f"c_{mode}.csv"
        rc = main(["constellation", "--channel", onebit_json, "--P", "1.0",
                   "--M", "8", "--mode", mode, "--output", str(out)])
        assert rc == 0, mode
        header, rows = _read_csv(out)
        assert rows.shape == (8, 3)
        assert rows[:, 2].sum() == pytest.approx(1.0, abs=1e-12)
    _, pam = _read_csv(tmp_path / "c_pam.csv")
    diffs = np.diff(pam[:, 1])
    assert np.allclose(diffs, diffs[0], atol=1e-9)  # uniform grid baseline


def test_prior_and_fisher_commands(onebit_json, tmp_path):
    out = tmp_path / "prior.csv"
    assert main(["prior", "--channel", onebit_json, "--P", "0.444",
                 "--grid", "65", "--output", str(out)]) == 0
    _, rows = _read_csv(out)
    assert rows.shape == (65, 2)
    width = rows[1, 0] - rows[0, 0]
    assert rows[:, 1] @ np.full(65, width) == pytest.approx(1.0, abs=1e-3)

    out2 = tmp_path / "fisher.csv"
    assert main(["fisher", "--channel", onebit_json, "--grid", "33",
                 "--output", str(out2)]) == 0
    _, rows2 = _read_csv(out2)
    want = fc.quantized_awgn_channel(2.0, [0.0]).fisher(rows2[:, 0])
    assert np.allclose(rows2[:, 1], want, rtol=1e-12)


def test_mi_command_with_points_csv(onebit_json, tmp_path):
    pts = tmp_path / "points.csv"
    assert main(["constellation", "--channel", onebit_json, "--P", "1.0",
                 "--M", "4", "--mode", "jeffreys", "--output", str(pts)]) == 0
    out = tmp_path / "mi.json"
    rc = main(["mi", "--channel", onebit_json, "--nr", "25",
               "--points-csv", str(pts), "--ba", "--output", str(out)])
    assert rc == 0
    got = json.loads(out.read_text())
    assert 0.0 < got["mi_bits"] <= 2.0
    assert got["ba_mi_bits"] >= got["mi_bits"] - 1e-9


def test_mi_command_with_prior_grid(onebit_json, tmp_path):
    out = tmp_path / "mi2.json"
    rc = main(["mi", "--channel", onebit_json, "--nr", "16", "--P", "0.444",
               "--prior-grid", "33", "--output", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["mi_bits"] > 0


def test_quant_loss_command(awgn_json, tmp_path):
    out = tmp_path / "ql.csv"
    rc = main(["quant-loss", "--channel", awgn_json,
               "--L-list", "8,16,32,64", "--output", str(out)])
    assert rc == 0
    _, rows = _read_csv(out)
    assert rows.shape == (4, 3)
    assert np.all(np.diff(rows[:, 1]) < 0)
    assert np.allclose(rows[:, 2], rows[0, 2])  # one fitted slope echoed per row


def test_fisher_rate_command(tmp_path):
    out = tmp_path / "rate.csv"
    rc = main(["fisher-rate", "--acov", '{"kind": "ar1", "rho": 0.5}',
               "--n-list", "64,128,256", "--output", str(out)])
    assert rc == 0
    _, rows = _read_csv(out)
    assert np.allclose(rows[:, 2], 1.0 / 3.0)
    assert np.all(np.abs(np.diff(rows[:, 1] - 1.0 / 3.0)) > 0)


def test_fisher_rate_ladder_is_one_n_at_a_time(capsys):
    # one recursion up to the largest n prints what one run per n prints, in the given order
    acov = '{"kind": "ar1", "rho": 0.5}'

    def rows(n_list):
        assert main(["fisher-rate", "--acov", acov, "--n-list", n_list]) == 0
        return capsys.readouterr().out.splitlines()

    singles = [rows(n) for n in ("4096", "64", "256")]
    assert rows("4096,64,256") == singles[0][:1] + [s[1] for s in singles]


def test_fit_poly_command(awgn_json, tmp_path):
    out = tmp_path / "poly.json"
    rc = main(["fit-poly", "--channel", awgn_json, "--P", "0.111",
               "--degree", "4", "--output", str(out)])
    assert rc == 0
    got = json.loads(out.read_text())
    assert len(got["coeffs"]) == 5
    assert got["support"] == [-1.0, 1.0]


def test_determinism_byte_for_byte(onebit_json, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["capacity", "--channel", onebit_json, "--P", "0.444", "--nr", "64"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_exit_code_validation_errors(tmp_path, capsys):
    assert main(["capacity", "--channel", '{"kind": "nope"}', "--P", "1", "--nr", "4"]) == 1
    assert main(["capacity", "--channel", str(tmp_path / "missing.json"),
                 "--P", "1", "--nr", "4"]) == 1
    assert main(["jf", "--channel", '{"kind": "awgn", "A": 1.0}', "--P", "1",
                 "--lambda-grid", "bad"]) == 1
    err = capsys.readouterr().err
    assert "invalid input" in err


@pytest.mark.parametrize("argv", [
    ["capacity", "--channel", '{"kind": "awgn", "A": 3}', "--P", "1"],  # --nr missing
    ["fisher", "--channel", '{"kind": "awgn", "A": 3}', "--bogus"],
    ["fisher", "--channel", '{"kind": "awgn", "A": 3}', "--theta-grid", "-2:2:9"],
], ids=["missing-flag", "unknown-flag", "dash-value"])
def test_usage_errors_exit_validation(argv, capsys):
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["fisher", "--help"]):
        assert main(argv) == 0
    assert "--theta-grid" in capsys.readouterr().out


_POISSON_BAD_H = {"kind": "poisson", "A": 1.0, "h": [1], "mu": {"values": [0.5], "probs": [1.0]}}


@pytest.mark.parametrize("argv", [
    ["lambda-star", "--channel", '{"kind": "awgn", "A": null}', "--P", "0.5"],
    ["lambda-star", "--channel", '{"kind": "awgn", "A": [1]}', "--P", "0.5"],
    ["lambda-star", "--channel", json.dumps(_POISSON_BAD_H), "--P", "0.5"],
    ["lambda-star", "--channel", '{"kind": [1], "A": 1.0}', "--P", "0.5"],
    ["fisher-rate", "--acov", '{"kind": "ar1", "rho": [1]}', "--n-list", "8"],
    ["fisher-rate", "--acov", "acov_list.json", "--n-list", "8"],
    ["quant-loss", "--channel", '{"kind": "quantized_awgn", "A": 1.0, "thresholds": [0.0]}',
     "--L-list", "8,16,32,64"],
    ["mi", "--channel", '{"kind": "awgn", "A": 1.0}', "--nr", "4", "--P", "0.5",
     "--prior-grid", "9"],
    ["fisher", "--channel", '{"kind": "dithered_onebit", "A": 1, "points": []}'],
    ["fisher", "--channel", '{"kind": "awgn", "A": 1}', "--grid", "0"],
    ["fisher", "--channel", '{"kind": "awgn", "A": 1}', "--grid", "-3"],
    ["prior", "--channel", '{"kind": "awgn", "A": 1}', "--P", "0.1", "--grid", "0"],
    ["quant-loss", "--channel", '{"kind": "awgn", "A": 1}', "--L-list", "8,8,8,8"],
], ids=["null-field", "list-field", "poisson-h-list", "list-kind", "acov-list-field",
        "acov-file-not-object", "quant-loss-adc", "mi-awgn", "dither-no-points",
        "fisher-grid-0", "fisher-grid-negative", "prior-grid-0", "quant-loss-one-L"])
def test_malformed_input_is_invalid_not_traceback(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "acov_list.json").write_text("[1]")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv, field", [
    (["fisher", "--channel", '{"kind":"awgn","A":3,"sigma2":0.25}', "--theta-grid=0:1:2"], "sigma2"),
    (["fisher-rate", "--acov", '{"kind":"ar1","rho":0.5,"varience":4}', "--n-list", "8"], "varience"),
], ids=["awgn-sigma2", "ar1-varience"])
def test_record_field_the_kind_lacks_exits_invalid(argv, field, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and f"has no field '{field}'" in captured.err


@pytest.mark.parametrize("rows, message", [
    (["theta,value", "0,0.5,0.5"], "not a constellation CSV"),
    (["index,point (input units),probability", "0,-1,0.5", "", "1,0.5,1,0.5"], "scalar constellation points"),
], ids=["no-index-header", "four-fields"])
def test_mi_refuses_a_points_csv_it_cannot_read(rows, message, onebit_json, tmp_path, capsys):
    pts = tmp_path / "points.csv"
    pts.write_text("\n".join(rows) + "\n")
    assert main(["mi", "--channel", onebit_json, "--nr", "4", "--points-csv", str(pts)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "invalid input" in captured.err and message in captured.err


@pytest.mark.parametrize("grid", ["1:0:3", "0:1:0"], ids=["hi-below-lo", "count-0"])
def test_bad_theta_grid_exits_invalid(grid, capsys):
    assert main(["fisher", "--channel", '{"kind": "awgn", "A": 1}', f"--theta-grid={grid}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert f"bad grid argument {grid!r}" in captured.err


def test_fisher_grid_of_one_is_the_centre(capsys):
    assert main(["fisher", "--channel", '{"kind": "awgn", "A": 1}', "--grid", "1"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert rows == [f"0,{float(fc.awgn_channel(1.0).fisher(0.0)):.17g}"]


def test_exit_code_numerical_failure(awgn_json, capsys):
    rc = main(["fit-poly", "--channel", awgn_json, "--P", "0.001",
               "--degree", "8", "--max-newton", "1"])
    assert rc == 2
    assert "numerical failure" in capsys.readouterr().err


def test_mi_ba_stall_exits_numerical_failure(tmp_path, capsys):
    # Blahut-Arimoto's 10,000-iteration cap on the 1-bit ADC with 16 points and 30 antennas
    points = tmp_path / "points.csv"
    rows = [f"{i},{x!r},{1 / 16!r}" for i, x in enumerate(np.linspace(-6.0, 6.0, 16).tolist())]
    points.write_text("\n".join(["index,point,probability", *rows]) + "\n")
    rc = main(["mi", "--channel", '{"kind": "quantized_awgn", "A": 6, "thresholds": [0]}',
               "--nr", "30", "--points-csv", str(points), "--ba"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "fishercap mi: numerical failure: blahut_arimoto: bound gap" in captured.err
    assert "Traceback" not in captured.err


def test_mi_requires_exactly_one_source(onebit_json, capsys):
    assert main(["mi", "--channel", onebit_json, "--nr", "4"]) == 1
    assert main(["mi", "--channel", onebit_json, "--nr", "4",
                 "--prior-grid", "9"]) == 1  # missing --P
    err = capsys.readouterr().err
    assert "invalid input" in err


def test_jf_overflow_exits_numerical_failure_naming_lambda(capsys):
    # JF = 2^(lambda P) times the weight integral leaves the float range
    # at lambda = 5e5; the command must fail cleanly, not with a traceback.
    rc = main(["jf", "--channel", '{"kind": "awgn", "A": 1.0}', "--P", "0.111",
               "--lambda-grid", "0:1e6:3"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "numerical failure" in captured.err and "lambda=500000.0" in captured.err


def test_jf_large_tilt_without_overflow(capsys):
    rc = main(["jf", "--channel", '{"kind": "awgn", "A": 1.0}', "--P", "0",
               "--lambda-grid", "0:1e6:3"])
    assert rc == 0
    rows = [[float(v) for v in line.split(",")]
            for line in capsys.readouterr().out.strip().split("\n")[1:]]
    for lam, jf, m in rows[1:]:
        # narrow Gaussian peak: JF -> sqrt(pi / (lam ln2)), M -> 1 / (2 lam ln2)
        assert jf == pytest.approx(math.sqrt(math.pi / (lam * math.log(2.0))), rel=1e-10)
        assert m == pytest.approx(1.0 / (2.0 * lam * math.log(2.0)), rel=1e-10)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_non_finite_float_arguments_rejected(onebit_json, capsys, value):
    rc = main(["capacity", "--channel", onebit_json, f"--P={value}", "--nr", "10"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert "invalid input" in captured.err
    assert main(["jf", "--channel", onebit_json, "--P", "0.5",
                 "--lambda-grid", f"0:{value}:3"]) == 1
    assert main(["capacity", "--channel", '{"kind": "awgn", "A": Infinity}',
                 "--P", "0.5", "--nr", "10"]) == 1


def test_json_output_is_strict(onebit_json, capsys):
    assert main(["capacity", "--channel", onebit_json, "--P", "0.444", "--nr", "10"]) == 0
    out = capsys.readouterr().out

    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")

    assert json.loads(out, parse_constant=reject)["P"] == 0.444


def test_acov_file_is_closed(tmp_path, monkeypatch):
    import builtins

    path = tmp_path / "acov.json"
    path.write_text(json.dumps({"kind": "ar1", "rho": 0.5}))
    opened = []
    real_open = builtins.open

    def tracking_open(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(builtins, "open", tracking_open)
    assert main(["fisher-rate", "--acov", str(path), "--n-list", "8,16",
                 "--output", str(tmp_path / "rate.csv")]) == 0
    monkeypatch.undo()
    assert opened and all(fh.closed for fh in opened)


# Every failure class the library raises, with the exit code the CLI has always given it.
_FAILURES = [
    (fc.ValidationError("x"), 1), (fc.DomainError("x"), 1), (fc.PositivityError("x"), 1),
    (json.JSONDecodeError("x", "{", 0), 1), (ValueError("x"), 1), (KeyError("x"), 1),
    (TypeError("x"), 1), (OSError("x"), 1),
    (fc.ToleranceError("x", 0.5, 1e-3), 2), (fc.ConvergenceError("x"), 2),
    (fc.UnboundedTiltError("x"), 2), (fc.BudgetError("x"), 2), (fc.DegenerateChannelError("x"), 2),
    (fc.RangeError("x"), 2), (np.linalg.LinAlgError("x"), 2),
]


@pytest.mark.parametrize("error, code", _FAILURES, ids=[type(e).__name__ for e, _ in _FAILURES])
def test_each_failure_class_keeps_its_exit_code(error, code, monkeypatch, capsys):
    def fail(args, channel):
        raise error

    monkeypatch.setattr(cli, "_cmd_lambda_star", fail)
    assert main(["lambda-star", "--channel", '{"kind": "awgn", "A": 1}', "--P", "0.5"]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"fishercap lambda-star: {'invalid input' if code == 1 else 'numerical failure'}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("record", ['{"kind": "clipped_awgn", "A": -1, "B": 1.5}',
                                    '{"kind": "energy_detection", "A": 0}'])
def test_bad_peak_exits_invalid_naming_the_constructor(record, capsys):
    assert main(["fisher", "--channel", record, "--grid", "3"]) == 1
    want = f"fishercap fisher: invalid input: {json.loads(record)['kind']}_channel: need a finite peak > 0"
    assert capsys.readouterr().err.startswith(want)
