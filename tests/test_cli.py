import json

import pytest

from infoblotto import StrategyProfile
from infoblotto.blotto2 import BlottoParams, build_equilibrium
from infoblotto.cli import main
from infoblotto.oracle import blotto_deviation_gaps


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPayoff:
    def test_lotto_low_regime(self, capsys):
        code, out, _ = run(
            capsys, "payoff", "--game", "lotto3", "--alpha", "0.5", "--beta", "0.5",
            "--gamma", "0.2",
        )
        assert code == 0
        assert "pi_informed = -0.7" in out
        assert "regime = low" in out
        assert "lambda_informed = 0.5" in out

    def test_blotto_q3(self, capsys):
        code, out, _ = run(
            capsys, "payoff", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5",
            "--gamma", "0.7",
        )
        assert code == 0
        assert "pi_informed = -0.2" in out
        assert "q = 3" in out
        assert "baseline = -0.333333333333" in out

    def test_blotto_out_of_regime(self, capsys):
        code, _, err = run(
            capsys, "payoff", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5",
            "--gamma", "0.4",
        )
        assert code == 2
        assert "secure both battlefields" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "payoff", "--game", "lotto3", "--gamma", "0.5")
        assert code == 2
        assert "--alpha" in err

    def test_beta_defaults_to_alpha(self, capsys):
        code, out, _ = run(
            capsys, "payoff", "--game", "lotto3", "--alpha", "0.5", "--gamma", "0.2"
        )
        assert code == 0
        assert "pi_informed = -0.7" in out


class TestSweep:
    def test_deterministic_output(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        argv = [
            "sweep", "--game", "lotto3", "--axis", "alpha=0.1:0.9:9",
            "--axis", "gamma=0.1:1.0:10", "--columns", "payoff,max_cost",
        ]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        capsys.readouterr()
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        assert lines[0] == "alpha,gamma,payoff,max_cost"
        assert len(lines) == 1 + 9 * 10

    def test_no_axes_single_row(self, capsys, tmp_path):
        out = tmp_path / "point.csv"
        code, stdout, _ = run(
            capsys, "sweep", "--game", "lotto3", "--alpha", "0.5", "--gamma", "0.2",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "payoff"
        assert lines[1] == "-0.7"
        assert "1 rows" in stdout

    def test_blotto_voi_column_nonnegative(self, capsys, tmp_path):
        out = tmp_path / "gw.csv"
        code, _, _ = run(
            capsys, "sweep", "--game", "blotto2", "--axis", "alpha=0.05:0.95:10",
            "--axis", "gamma=0.55:0.95:9", "--columns", "voi", "--out", str(out),
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 90
        assert all(float(r.split(",")[2]) > 0.0 for r in rows)

    def test_axis_domain_enforced(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--game", "blotto2", "--axis", "gamma=0.3:0.9:5",
            "--vlow", "0.5", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "gamma" in err

    def test_bad_axis_syntax(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--game", "lotto3", "--axis", "alpha=nope",
            "--gamma", "0.5", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "axis" in err


class TestStrategyAndVerify:
    def test_strategy_round_trip(self, capsys, tmp_path):
        path = tmp_path / "strat.json"
        code, _, _ = run(
            capsys, "strategy", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5",
            "--gamma", "0.7", "--xu", "10", "--e", "2", "--out", str(path),
        )
        assert code == 0
        data = json.loads(path.read_text())
        profile = StrategyProfile.from_dict(data["profile"])
        assert data["game"] == "blotto2"
        assert data["params"]["budget_informed"] == pytest.approx(7.0)
        assert profile.uninformed[0].atoms == ((2.0, 0.4), (5.0, 0.2), (8.0, 0.4))

    def test_verify_equilibrium_exits_zero(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        code, out, _ = run(
            capsys, "verify", "--game", "lotto3", "--alpha", "0.5", "--beta", "0.5",
            "--gamma", "0.2", "--samples", "40000", "--out", str(cert_path),
        )
        assert code == 0
        assert "passed = true" in out
        cert = json.loads(cert_path.read_text())
        assert cert["passed"] is True
        assert cert["claimed_value"] == pytest.approx(-0.7)

    def test_verify_strategy_file(self, capsys, tmp_path):
        path = tmp_path / "strat.json"
        run(
            capsys, "strategy", "--game", "lotto3", "--alpha", "0.6", "--beta", "0.3",
            "--gamma", "0.8", "--out", str(path),
        )
        code, out, _ = run(
            capsys, "verify", "--strategy", str(path), "--samples", "40000"
        )
        assert code == 0
        assert "passed = true" in out

    def test_verify_perturbed_strategy_exits_one(self, capsys, tmp_path):
        path = tmp_path / "strat.json"
        run(
            capsys, "strategy", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5",
            "--gamma", "0.7", "--xu", "10", "--out", str(path),
        )
        data = json.loads(path.read_text())
        # shift mass within the uninformed lattice, keeping it a valid
        # distribution and keeping battlefield 2 the exact complement
        bf1 = data["profile"]["uninformed"][0]["atoms"]
        bf1[0][1] += 0.05
        bf1[1][1] -= 0.05
        bf2 = data["profile"]["uninformed"][1]["atoms"]
        bf2[-1][1] += 0.05
        bf2[-2][1] -= 0.05
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify", "--strategy", str(path), "--samples", "40000")
        assert code == 1
        assert "passed = false" in out

    def test_verify_malformed_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", "--strategy", str(path))
        assert code == 2
        assert "malformed" in err

    def test_strategy_even_q_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "strategy", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5",
            "--gamma", "0.6", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "even" in err

    def test_verify_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--strategy", str(tmp_path / "none.json"))
        assert code == 2

    def test_verify_float_tie_lattice_exits_zero(self, capsys):
        # battlefield-2 breakpoints X_U - (X_I - k*d) miss the battlefield-1
        # ones (k+1)*d by an ulp; no spurious deviation may open between them
        code, out, _ = run(
            capsys, "verify", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5",
            "--gamma", "0.67", "--xu", "10",
        )
        assert code == 0
        assert "passed = true" in out
        params = BlottoParams.from_ratio(1.0, 0.5, 0.67, 10.0)
        assert blotto_deviation_gaps(build_equilibrium(params), params).worst() <= 1e-12

    def test_zero_remainder_builds_and_verifies(self, capsys, tmp_path):
        # gamma = 0.96 gives X_U / d = 25 up to rounding, so r = 0
        path = tmp_path / "strat.json"
        code, _, err = run(
            capsys, "strategy", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5",
            "--gamma", "0.96", "--out", str(path),
        )
        assert code == 0, err
        code, out, _ = run(capsys, "verify", "--strategy", str(path))
        assert code == 0
        assert "passed = true" in out

    def test_grid_option_removed(self, capsys):
        argv = [
            "verify", "--grid", "10", "--game", "lotto3", "--alpha", "0.5",
            "--gamma", "0.5",
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


_POINT_FLAGS = {
    "blotto2": {"vbar": "1", "vlow": "0.5", "gamma": "0.7", "xu": "10"},
    "lotto3": {"alpha": "0.5", "beta": "0.5", "gamma": "0.5", "xu": "1"},
}


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize(
    "game,flag", [(game, flag) for game, flags in _POINT_FLAGS.items() for flag in flags]
)
@pytest.mark.parametrize("command", ["payoff", "strategy"])
def test_non_finite_parameter_exits_two(capsys, tmp_path, command, game, flag, value):
    flags = dict(_POINT_FLAGS[game], **{flag: value})
    # "--flag=value": argparse reads a separate "-inf" as an option name
    argv = [command, "--game", game] + [f"--{name}={text}" for name, text in flags.items()]
    if command == "strategy":
        argv += ["--out", str(tmp_path / "s.json")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize(
    "command,vbar,vlow,gamma",
    [
        ("payoff", "1", "0.5", "0.9999998"),
        ("verify", "1", "0.5", "0.9999998"),
        ("payoff", "1e6", "1", "0.9999"),
        ("payoff", "1", "0.5", "0.99951159"),
    ],
)
def test_series_overflow_exits_two(capsys, command, vbar, vlow, gamma):
    code, out, err = run(
        capsys, command, "--game", "blotto2", "--vbar", vbar, "--vlow", vlow,
        "--gamma", gamma,
    )
    assert code == 2
    assert err.startswith("error:") and "not a finite float" in err
    assert out == ""


def test_tiny_finite_payoff_printed(capsys):
    code, out, _ = run(
        capsys, "payoff", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5",
        "--gamma", "0.9995",
    )
    assert code == 0
    assert "pi_informed = -3.11087872834e-302" in out
    assert "voi = 0.0005" in out


class TestSimulate:
    def test_simulate_reports_z_score(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--game", "lotto3", "--alpha", "0.5", "--beta", "0.5",
            "--gamma", "0.2", "--samples", "50000", "--seed", "3",
        )
        assert code == 0
        assert "closed_form = -0.7" in out
        z = float(out.split("z_score = ")[1].split()[0])
        assert z < 4.0

    def test_simulate_deterministic(self, capsys):
        argv = [
            "simulate", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5",
            "--gamma", "0.7", "--samples", "20000", "--seed", "11",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
