import itertools
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import infoblotto
from infoblotto import StrategyProfile, blotto2, lotto3, oracle
from infoblotto.blotto2 import BlottoParams, build_equilibrium
from infoblotto.cli import (
    SweepAxis,
    SweepSpec,
    _fmt,
    main,
    sweep_table,
)
from infoblotto.oracle import blotto_deviation_gaps


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def samples(command, count="2000"):
    # simulate's sample count; verify is exact and takes none
    return ["--samples", count] if command == "simulate" else []


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

    @pytest.mark.parametrize(
        "argv",
        [
            # a beta axis that rises above alpha
            ["--game", "lotto3", "--alpha", "0.5", "--axis", "beta=0.3:0.7:5", "--gamma", "0.5"],
            # a fixed gamma out of regime
            ["--game", "lotto3", "--axis", "alpha=0.1:0.9:5", "--gamma", "1.5"],
            ["--game", "blotto2", "--axis", "vlow=0.1:0.9:5", "--gamma", "0.4"],
            # --vlow >= --vbar
            ["--game", "blotto2", "--vbar", "1", "--vlow", "1.5", "--axis", "gamma=0.6:0.9:4"],
            ["--game", "blotto2", "--vbar", "1", "--vlow", "1", "--axis", "gamma=0.6:0.9:4"],
            # voi and max_cost need beta == alpha at every point
            ["--game", "lotto3", "--alpha", "0.5", "--axis", "beta=0.1:0.5:5", "--gamma", "0.5",
             "--columns", "payoff,voi"],
            ["--game", "lotto3", "--alpha", "0.5", "--beta", "0.4", "--axis", "gamma=0.1:1:5",
             "--columns", "max_cost"],
            # the series overflows at the top of the grid
            ["--game", "blotto2", "--vlow", "0.5", "--axis", "gamma=0.99:0.9999998:3"],
            # the even-q payoff (1/c)/(1 + c) underflows at q = 4, not at q = 2
            ["--game", "blotto2", "--vbar", "1e200", "--vlow", "1", "--axis", "gamma=0.6:0.76:2"],
            # vbar/vlow overflows to inf: the scalar path's refusal, with no numpy warning
            ["--game", "blotto2", "--vbar", "1e308", "--vlow", "0.5", "--axis", "gamma=0.6:0.9:4"],
            # three axes
            ["--game", "lotto3", "--axis", "alpha=0.5:0.9:2", "--axis", "beta=0.1:0.4:2",
             "--axis", "gamma=0.1:0.9:2"],
        ],
    )
    def test_grid_refused(self, capsys, tmp_path, argv):
        out = tmp_path / "x.csv"
        code, stdout, err = run(capsys, "sweep", *argv, "--out", str(out))
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err
        assert stdout == ""
        assert not out.exists()

    def test_refusal_names_first_offending_point(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, stdout, err = run(
            capsys, "sweep", "--game", "lotto3", "--axis", "alpha=0.5:1.5:3",
            "--gamma", "0.5", "--out", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert "alpha=1.0" in err
        assert not out.exists()

    def test_bad_axis_syntax(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--game", "lotto3", "--axis", "alpha=nope",
            "--gamma", "0.5", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "axis" in err


@pytest.mark.parametrize("command", ["payoff", "sweep"])
def test_blotto_cost_refused(capsys, tmp_path, command):
    argv = [command, "--game", "blotto2", "--vbar", "1", "--vlow", "0.5", "--gamma", "0.7",
            "--cost", "0.3"]
    if command == "sweep":
        argv += ["--out", str(tmp_path / "x.csv")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "--cost" in err
    assert out == ""


@pytest.mark.parametrize(
    "command,game,flag",
    [
        ("payoff", "blotto2", "--alpha"),
        ("payoff", "blotto2", "--beta"),
        ("sweep", "blotto2", "--alpha"),
        ("strategy", "blotto2", "--cost"),
        ("payoff", "lotto3", "--vbar"),
        ("payoff", "lotto3", "--vlow"),
        ("sweep", "lotto3", "--vlow"),
        ("strategy", "lotto3", "--e"),
        ("verify", "lotto3", "--e"),
        ("simulate", "lotto3", "--vbar"),
    ],
)
def test_other_game_flag_refused(capsys, tmp_path, command, game, flag):
    argv = [command, "--game", game, "--gamma", "0.7", flag, "0.3"]
    argv += ["--vbar", "1", "--vlow", "0.5"] if game == "blotto2" else ["--alpha", "0.5"]
    if command in ("sweep", "strategy"):
        argv += ["--out", str(tmp_path / "x.out")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and flag in err and game in err
    assert out == ""
    assert not (tmp_path / "x.out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--game", "lotto3", "--axis", "gamma=0.1:0.9:3", "--axis", "gamma=0.1:0.9:3",
         "--alpha", "0.5"],
        # "alpha" is the CLI alias of a blotto2 vlow axis
        ["--game", "blotto2", "--axis", "alpha=0.1:0.9:3", "--axis", "vlow=0.1:0.9:3",
         "--gamma", "0.7"],
        ["--game", "lotto3", "--axis", "gamma=0.1:0.9:3", "--gamma", "0.5", "--alpha", "0.5"],
        ["--game", "blotto2", "--axis", "alpha=0.1:0.9:3", "--vlow", "0.5", "--gamma", "0.7"],
        # a column, as a parameter, is given once
        ["--game", "lotto3", "--alpha", "0.5", "--gamma", "0.5", "--columns", "payoff,payoff"],
        ["--game", "blotto2", "--vlow", "0.5", "--axis", "gamma=0.6:0.9:3",
         "--columns", "voi,baseline,voi"],
    ],
)
def test_sweep_parameter_given_twice_refused(capsys, tmp_path, argv):
    out = tmp_path / "x.csv"
    code, stdout, err = run(capsys, "sweep", *argv, "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and "more than once" in err
    assert stdout == ""
    assert not out.exists()


def test_sweep_table_refuses_axis_and_fixed_value():
    axis = SweepAxis("gamma", 0.1, 0.9, 3)
    with pytest.raises(ValueError, match="gamma"):
        sweep_table(SweepSpec("lotto3", (axis, axis), {"alpha": 0.5}, ("payoff",)))
    with pytest.raises(ValueError, match="gamma"):
        sweep_table(SweepSpec("lotto3", (axis,), {"alpha": 0.5, "gamma": 0.5}, ("payoff",)))


def _axis(draw, name, lo, hi):
    a, b = sorted(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=2, unique=True)))
    return SweepAxis(name, a, b, draw(st.integers(2, 6)))


@st.composite
def sweep_specs(draw):
    """Valid sweeps of either game with 0, 1 or 2 axes; every other
    parameter is fixed."""
    game = draw(st.sampled_from(["blotto2", "lotto3"]))
    if game == "blotto2":
        vbar = draw(st.floats(0.1, 10.0))
        # c = vbar / vlow <= 4 and q <= 1000 keep the series finite
        ranges = {"vlow": (vbar / 4, vbar * (1 - 1e-9)), "gamma": (0.500001, 0.999)}
        names = draw(st.permutations(["vlow", "gamma"]))[: draw(st.integers(0, 2))]
        fixed = {"vbar": vbar}
        fixed.update({n: draw(st.floats(*r)) for n, r in ranges.items() if n not in names})
        # "alpha" is the CLI alias of a vlow axis
        axes = [
            _axis(draw, draw(st.sampled_from(["vlow", "alpha"])) if n == "vlow" else n, *ranges[n])
            for n in names
        ]
        columns = ["payoff", "baseline", "voi"]
    else:
        has_beta = draw(st.booleans())
        names = draw(st.permutations(["alpha", "gamma"] + ["beta"] * has_beta))
        names = names[: draw(st.integers(0, 2))]
        ranges = {"alpha": (0.002, 0.998), "gamma": (1e-6, 1.0)}
        axes = [_axis(draw, name, *ranges[name]) for name in names if name != "beta"]
        fixed = {n: draw(st.floats(*r)) for n, r in ranges.items() if n not in names}
        alpha_lo = min([ax.lo for ax in axes if ax.name == "alpha"] or [fixed.get("alpha")])
        if "beta" in names:
            axes.insert(names.index("beta"), _axis(draw, "beta", 1e-6, alpha_lo))
        elif has_beta:
            fixed["beta"] = draw(st.floats(1e-6, alpha_lo))
        fixed["cost"] = draw(st.floats(0.0, 0.99))
        # voi and max_cost need beta == alpha
        columns = ["payoff", "baseline", "info_gain"] + ["voi", "max_cost"] * (not has_beta)
    columns = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=4, unique=True))
    return SweepSpec(game, tuple(axes), fixed, tuple(columns))


def _scalar_row(spec, point):
    if spec.game == "blotto2":
        params = BlottoParams.from_ratio(point["vbar"], point["vlow"], point["gamma"])
        q = blotto2.BlottoIndex.from_params(params).q
        out = {"payoff": blotto2.informed_payoff(params),
               "baseline": blotto2.gross_wagner_payoff(q),
               "voi": blotto2.value_of_information(params)}
    else:
        alpha, gamma = point["alpha"], point["gamma"]
        beta = point.get("beta", alpha)
        out = {"payoff": lotto3.informed_payoff(alpha, beta, gamma),
               "baseline": lotto3.complete_info_baseline(gamma),
               "info_gain": lotto3.info_gain(alpha, beta, gamma)}
        if beta == alpha:
            out["voi"] = lotto3.voi(alpha, gamma, point["cost"])
            out["max_cost"] = lotto3.max_cost(alpha, gamma)
    return out


@settings(max_examples=150, deadline=None)
@given(sweep_specs())
def test_sweep_cells_equal_scalar_closed_forms(spec):
    header, rows = sweep_table(spec)
    names = ["vlow" if ax.name == "alpha" and spec.game == "blotto2" else ax.name
             for ax in spec.axes]
    assert header == ",".join(names + list(spec.columns))
    grids = [np.linspace(ax.lo, ax.hi, ax.steps).tolist() for ax in spec.axes]
    points = list(itertools.product(*grids))  # row-major
    assert len(rows) == len(points)
    # the column values the game's kernel gives, before formatting
    grid = dict(spec.fixed, **{n: np.array(v) for n, v in zip(names, zip(*points))})
    kernels = getattr(infoblotto, spec.game).closed_forms(grid, spec.columns)
    kernels = {c: np.broadcast_to(kernels[c], len(points)).tolist() for c in spec.columns}
    for i, (row, coords) in enumerate(zip(rows, points)):
        point = dict(spec.fixed, **dict(zip(names, coords)))
        values = _scalar_row(spec, point)
        for c in spec.columns:
            assert kernels[c][i] == values[c], (c, point)
        cells = list(coords) + [values[c] for c in spec.columns]
        assert row == ",".join(_fmt(v) for v in cells)


def test_sweep_budget_scale_refused(capsys, tmp_path):
    # no sweep column depends on the budget scale, so --xu would be ignored
    out = tmp_path / "x.csv"
    code, stdout, err = run(
        capsys, "sweep", "--game", "lotto3", "--axis", "gamma=0.1:0.9:3", "--alpha", "0.5",
        "--xu", "7", "--out", str(out),
    )
    assert code == 2
    assert err.startswith("error:") and "--xu" in err and "Traceback" not in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("axis", ["gamma=0.1:inf:3", "gamma=-inf:0.5:3", "gamma=-1e308:1e308:3"])
def test_non_finite_axis_span_refused(capsys, tmp_path, axis):
    # numpy's linspace warned on these before the domain check refused them
    out = tmp_path / "x.csv"
    code, stdout, err = run(
        capsys, "sweep", "--game", "lotto3", "--axis", axis, "--alpha", "0.5", "--out", str(out),
    )
    assert code == 2
    assert err.startswith("error:") and "axis gamma" in err and "not finite" in err
    assert stdout == ""
    assert not out.exists()


def test_sweep_near_largest_float(capsys, tmp_path):
    # vbar + vlow overflows in the even-q weight, which q = 3 does not select
    out = tmp_path / "x.csv"
    code, _, err = run(
        capsys, "sweep", "--game", "blotto2", "--vbar", "1.7e308",
        "--axis", "vlow=1e308:1.5e308:3", "--gamma", "0.7", "--out", str(out),
    )
    assert code == 0, err
    vlows = np.linspace(1e308, 1.5e308, 3).tolist()
    expected = [
        _fmt(blotto2.informed_payoff(BlottoParams.from_ratio(1.7e308, vlow, 0.7)))
        for vlow in vlows
    ]
    assert [row.split(",")[1] for row in out.read_text().splitlines()[1:]] == expected


@pytest.mark.parametrize(
    "argv,named",
    [
        (["--vbar", "1", "--vlow", "1.5", "--axis", "gamma=0.6:0.9:4"], "1.5"),
        (["--vlow", "0.5", "--axis", "gamma=0.3:0.9:5"], "gamma = 0.3 "),
        (["--vbar", "1e200", "--vlow", "1", "--axis", "gamma=0.6:0.76:2"], "q = 4 "),
        # a sweep with no column to print: "" and " , " name none
        (["--vlow", "0.5", "--gamma", "0.7", "--columns", ""], "at least one column"),
        (["--vlow", "0.5", "--axis", "gamma=0.6:0.9:3", "--columns", " , "],
         "at least one column"),
    ],
)
def test_refused_blotto_sweep_names_the_value(capsys, tmp_path, argv, named):
    out = tmp_path / "x.csv"
    code, stdout, err = run(capsys, "sweep", "--game", "blotto2", *argv, "--out", str(out))
    assert code == 2
    assert err.startswith("error:") and named in err
    assert stdout == ""
    assert not out.exists()


def test_step_count_not_raised_far_from_an_integer(capsys):
    # 1/(1 - 0.6666666666) = 2.9999999994 is q = 2, not 3; an absolute
    # slack of 1e-9 raised it to 3
    argv = ["--game", "blotto2", "--vbar", "2", "--vlow", "1", "--gamma", "0.6666666666"]
    code, out, _ = run(capsys, "payoff", *argv)
    assert code == 0
    assert "pi_informed = -0.333333333333\n" in out and "q = 2\n" in out
    # an even q has no strategy construction: refused, not a failed certificate
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert err.startswith("error: q = 2: ") and "only for odd q up to 100000" in err
    assert out == ""


def test_step_count_of_a_decimal_gamma_near_one(capsys):
    # 1/(1 - 0.99998) = 50000 as typed; a slack capped at 1e-9 gave 49999
    argv = ["--game", "blotto2", "--vbar", "1", "--vlow", "0.99999", "--gamma", "0.99998"]
    code, out, err = run(capsys, "payoff", *argv)
    assert code == 0, err
    assert "q = 50000\n" in out


_LARGEST_VALUES = ["--game", "blotto2", "--vbar", "1.7e308", "--vlow", "1.5e308"]


def test_payoff_at_largest_float_valuations(capsys):
    # vbar + vlow overflows to inf; the weight 1.5/3.2 does not
    code, out, err = run(capsys, "payoff", *_LARGEST_VALUES, "--gamma", "0.6")
    assert code == 0, err
    assert "pi_informed = -0.46875\n" in out and "q = 2\n" in out


@pytest.mark.parametrize("command", ["strategy", "verify", "simulate"])
def test_profile_at_largest_float_valuations(capsys, tmp_path, command):
    argv = [command, *_LARGEST_VALUES, "--gamma", "0.7"]
    argv += ["--out", str(tmp_path / "s.json")] if command == "strategy" else []
    code, out, err = run(capsys, *argv, *samples(command, "20000"))
    assert code == 0, err
    if command == "verify":
        assert "passed = true" in out


@pytest.mark.parametrize(
    "marginal",
    [
        {"atoms": [[5e-14, 0.5]], "segments": [[0.0, 1e-13, 5e12]]},
        {"atoms": [], "segments": [[0.0, 2e-13, 2.5e12], [1e-13, 3e-13, 2.5e12]]},
    ],
)
def test_small_scale_malformed_strategy_exits_two(capsys, blotto_strategy_file, marginal):
    with open(blotto_strategy_file) as handle:
        data = json.load(handle)
    data["profile"]["uninformed"][0] = marginal
    with open(blotto_strategy_file, "w") as handle:
        json.dump(data, handle)
    code, out, err = run(capsys, "verify", "--strategy", blotto_strategy_file)
    assert code == 2
    assert err.startswith("error:") and ("inside" in err or "overlap" in err)
    assert out == ""


@pytest.mark.parametrize(
    "atoms,residual",
    [
        # type 1's top atom moved from 0.6 past X_I = 0.7
        ([[0.3, 0.4], [0.75, 0.6]], 0.15),
        # two atoms whose complements X_I - x round to one location
        ([[1e-20, 0.4], [2e-20, 0.6]], 0.6),
    ],
)
def test_verify_broken_complement_exits_one(capsys, blotto_strategy_file, atoms, residual):
    # q = 3 at X_I = 0.7, battlefield 1 of informed type 1 replaced.  The
    # complement check reflected the row first, and its validation refused a
    # location the file does not hold (exit 2): "atom location -0.05 outside
    # [0, inf)", "atom locations must be strictly increasing".  Both are
    # budget violations, found as one
    with open(blotto_strategy_file) as handle:
        data = json.load(handle)
    data["profile"]["informed"][0][0]["atoms"] = atoms
    with open(blotto_strategy_file, "w") as handle:
        json.dump(data, handle)
    code, out, err = run(capsys, "verify", "--strategy", blotto_strategy_file)
    assert code == 1, err
    fields = dict(line.split(" = ") for line in out.splitlines())
    assert fields["passed"] == "false"
    assert float(fields["budget_residuals_informed[0]"]) == pytest.approx(residual)
    assert float(fields["budget_residuals_informed[1]"]) <= oracle.EPS_BUDGET
    assert float(fields["budget_residual_uninformed"]) <= oracle.EPS_BUDGET


@pytest.mark.parametrize("command", ["verify", "simulate"])
@pytest.mark.parametrize("cut", ["state", "battlefield"])
def test_strategy_of_other_dimensions_exits_two(capsys, blotto_strategy_file, command, cut):
    # one state or one battlefield short of its game: simulate raised
    # IndexError on the first and scored one battlefield of the second
    with open(blotto_strategy_file) as handle:
        data = json.load(handle)
    profile = data["profile"]
    if cut == "state":
        profile["informed"] = profile["informed"][:1]
    else:
        profile["informed"] = [row[:1] for row in profile["informed"]]
        profile["uninformed"] = profile["uninformed"][:1]
    with open(blotto_strategy_file, "w") as handle:
        json.dump(data, handle)
    code, out, err = run(capsys, command, "--strategy", blotto_strategy_file, *samples(command))
    assert code == 2
    assert err.startswith("error:") and "counts disagree" in err
    assert out == ""


@pytest.mark.parametrize(
    "command,cost", [("strategy", "0.9"), ("verify", "-3"), ("simulate", "0.9")]
)
def test_cost_refused_where_unread(capsys, tmp_path, command, cost):
    out = tmp_path / "x.out"
    argv = [command, "--game", "lotto3", "--alpha", "0.5", "--gamma", "0.5", "--cost", cost]
    argv += ["--out", str(out)] if command == "strategy" else samples(command)
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "--cost" in err and command in err
    assert stdout == ""
    assert not out.exists()


def test_sweep_cost_without_voi_refused(capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, stdout, err = run(
        capsys, "sweep", "--game", "lotto3", "--axis", "gamma=0.1:0.9:3", "--alpha", "0.5",
        "--cost", "7", "--columns", "payoff", "--out", str(out),
    )
    assert code == 2
    assert err.startswith("error:") and "--cost" in err and "voi" in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        # budget residuals of 2e-7 in absolute units, 5e-16 as fractions of X_U
        ["--game", "lotto3", "--alpha", "0.5", "--gamma", "0.9", "--xu", "1e9"],
        # a midpoint (a + b)/2 between lattice breakpoints overflowed to inf
        ["--game", "blotto2", "--vbar", "1", "--vlow", "0.5", "--gamma", "0.7",
         "--xu", "1.7976931348623157e308"],
        # the value residual was inf (a width squared overflowed) and 0.708
        # (it underflowed) at these budgets
        ["--game", "lotto3", "--alpha", "0.5", "--gamma", "0.5", "--xu", "1e300"],
        ["--game", "lotto3", "--alpha", "0.5", "--gamma", "0.5", "--xu", "1e-300"],
    ],
)
def test_verify_passes_at_extreme_budget(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 0, out + err
    assert "passed = true" in out


@pytest.mark.parametrize("command", ["strategy", "verify", "simulate"])
def test_offset_at_rounded_gap_exits_two(capsys, tmp_path, command):
    # 0.3 is 4e-17 below d = 1 - 0.7 = 0.30000000000000004: inside (r, d),
    # but the lattice it builds failed its own certificate (verify exited 1)
    extra = ["--out", str(tmp_path / "s.json")] if command == "strategy" else []
    code, out, err = run(
        capsys, command, "--game", "blotto2", "--vbar", "1", "--vlow", "0.5",
        "--gamma", "0.7", "--e", "0.3", *extra,
    )
    assert code == 2
    assert out == "" and err.startswith("error:") and "offset e = 0.3" in err


@pytest.mark.parametrize("command", ["strategy", "verify", "simulate"])
def test_default_offset_in_rounded_gap_exits_two(capsys, tmp_path, command):
    # X_U/d = 3.9999999999984 is within rounding of 4, so (r, d) is 4e-13
    # wide at q = 3: the midpoint, not an --e, is refused, and named so
    path = tmp_path / "s.json"
    extra = ["--out", str(path)] if command == "strategy" else []
    code, out, err = run(
        capsys, command, "--game", "blotto2", "--vbar", "1", "--vlow", "0.5",
        "--gamma", "0.7499999999999", *extra,
    )
    assert code == 2 and out == "" and not path.exists()
    assert err.startswith("error: q = 3: the default offset, the midpoint e = ")


def perturbed_strategy_file(capsys, tmp_path):
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
    return str(path)


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
            "--gamma", "0.2", "--out", str(cert_path),
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
        code, out, _ = run(capsys, "verify", "--strategy", str(path))
        assert code == 0
        assert "passed = true" in out

    def test_verify_perturbed_strategy_exits_one(self, capsys, tmp_path):
        path = perturbed_strategy_file(capsys, tmp_path)
        code, out, _ = run(capsys, "verify", "--strategy", path)
        assert code == 1
        assert "passed = false" in out

    def test_verify_malformed_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", "--strategy", str(path))
        assert code == 2
        assert "malformed" in err

    def test_verify_deeply_nested_file_exits_two(self, capsys, tmp_path):
        # the json decoder raised RecursionError out of main (exit 1)
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "verify", "--strategy", str(path))
        assert code == 2
        assert err.startswith("error: malformed strategy file") and out == ""

    def test_strategy_even_q_rejected(self, capsys, tmp_path):
        path = tmp_path / "x.json"
        code, out, err = run(
            capsys, "strategy", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5",
            "--gamma", "0.6", "--out", str(path),
        )
        assert code == 2 and out == "" and not path.exists()
        assert err.startswith("error: q = 2: ") and "only for odd q up to 100000" in err

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


@pytest.fixture
def blotto_strategy_file(capsys, tmp_path):
    path = tmp_path / "s.json"
    argv = ["strategy", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5", "--gamma", "0.7"]
    assert main(argv + ["--out", str(path)]) == 0
    capsys.readouterr()
    return str(path)


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_game_flags_beside_strategy_refused(capsys, blotto_strategy_file, command):
    # the file fixes vlow 0.5 and gamma 0.7: certifying or simulating it
    # would silently ignore the flags
    code, out, err = run(
        capsys, command, "--strategy", blotto_strategy_file, "--game", "blotto2",
        "--vbar", "1", "--vlow", "0.1", "--gamma", "0.9", *samples(command),
    )
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert all(flag in err for flag in ("--vbar", "--vlow", "--gamma", "--strategy"))
    assert out == ""


@pytest.mark.parametrize(
    "flag", ["--vbar", "--vlow", "--alpha", "--beta", "--gamma", "--xu", "--cost", "--e"]
)
def test_each_game_flag_beside_strategy_refused(capsys, blotto_strategy_file, flag):
    code, out, err = run(capsys, "verify", "--strategy", blotto_strategy_file, flag, "0.3")
    assert code == 2
    assert err.startswith("error:") and flag in err
    assert out == ""


def test_game_beside_strategy_checked(capsys, blotto_strategy_file):
    argv = ["verify", "--strategy", blotto_strategy_file, "--game"]
    code, out, _ = run(capsys, *argv, "blotto2")
    assert code == 0 and "passed = true" in out
    code, _, err = run(capsys, *argv, "lotto3")
    assert code == 2 and "conflicts" in err


# strategy files written before BlottoParams held its budgets as fields,
# with the strategy command that wrote each: the format is pinned to them
_PINNED_FILES = {
    "blotto2_q3.json": "--game blotto2 --vbar 1 --vlow 0.5 --gamma 0.7 --xu 10",
    "lotto3_high.json": "--game lotto3 --alpha 0.6 --beta 0.3 --gamma 0.8",
}
_DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("name", sorted(_PINNED_FILES))
def test_pinned_strategy_file(capsys, tmp_path, name):
    # and the certificate that verify --out wrote of it, pinned with it
    pinned = os.path.join(_DATA, name)
    cert = tmp_path / "certificate.json"
    code, out, err = run(capsys, "verify", "--strategy", pinned, "--out", str(cert))
    assert code == 0, err
    assert "passed = true" in out
    with open(pinned.replace(".json", "_certificate.json"), "rb") as handle:
        assert cert.read_bytes() == handle.read()
    path = tmp_path / name
    code, _, err = run(capsys, "strategy", *_PINNED_FILES[name].split(), "--out", str(path))
    assert code == 0, err
    with open(pinned, "rb") as handle:
        assert path.read_bytes() == handle.read()


@pytest.mark.parametrize("name", sorted(_PINNED_FILES))
@pytest.mark.parametrize("change", ["missing", "unknown"])
def test_params_record_of_other_fields_exits_two(capsys, tmp_path, name, change):
    # the params record must name exactly its class's fields; an unknown key
    # was ignored before the constructors read the record
    with open(os.path.join(_DATA, name)) as handle:
        data = json.load(handle)
    if change == "missing":
        del data["params"]["budget_uninformed"]
    else:
        data["params"]["budget"] = 1.0
    path = tmp_path / name
    path.write_text(json.dumps(data))
    for command in ("verify", "simulate"):
        code, out, err = run(capsys, command, "--strategy", str(path), *samples(command))
        assert code == 2
        assert err.startswith("error: malformed strategy file") and "budget" in err
        assert out == ""


@pytest.mark.parametrize("where", ["params", "profile"])
def test_strategy_file_integer_too_large_for_a_float_exits_two(capsys, blotto_strategy_file, where):
    # json reads 1e400 as inf but an integer literal of 401 digits as an int,
    # which float() refuses with OverflowError
    with open(blotto_strategy_file) as handle:
        data = json.load(handle)
    if where == "params":
        data["params"]["vbar"] = 10**400
    else:
        data["profile"]["uninformed"][0]["atoms"][0][0] = 10**400
    with open(blotto_strategy_file, "w") as handle:
        json.dump(data, handle)
    code, out, err = run(capsys, "verify", "--strategy", blotto_strategy_file)
    assert code == 2
    assert err.startswith("error: expected numbers:") and "too large" in err
    assert out == ""


@pytest.mark.parametrize("argv", [[], ["verify"], ["simulate"]],
                         ids=["no-command", "verify", "simulate"])
def test_nothing_to_run_exits_two(capsys, argv):
    # with no subcommand the help went to stdout; verify and simulate need a
    # strategy file or a game
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: either --strategy" if argv else "usage: infoblotto")


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
        # q = 2^53: a sum of 2^52 powers, which the closed form refuses at once
        ("payoff", "1", "0.9999999", "0.9999999999999999"),
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


@pytest.mark.parametrize(
    "vbar,vlow,gamma",
    # q = 2: the weight vlow/(vbar+vlow) is 0 in floats; q = 4: the weight
    # is 1e-200 and the payoff 1e-200/(1 + 1e200)
    [("1e300", "1e-300", "0.6"), ("1e200", "1", "0.76")],
)
def test_even_payoff_underflow_exits_two(capsys, vbar, vlow, gamma):
    code, out, err = run(
        capsys, "payoff", "--game", "blotto2", "--vbar", vbar, "--vlow", vlow,
        "--gamma", gamma,
    )
    assert code == 2
    assert err.startswith("error:") and "underflows to 0" in err
    assert out == ""


def test_series_overflow_names_the_ratio(capsys):
    # c = 1/0.9999999 in full: six digits would print it as 1
    code, _, err = run(
        capsys, "payoff", "--game", "blotto2", "--vbar", "1", "--vlow", "0.9999999",
        "--gamma", "0.9999999999999999",
    )
    assert code == 2
    assert f"{1 / 0.9999999!r}**k, k < {2**52}," in err


@pytest.mark.parametrize(
    "argv",
    [
        # (1 - cost) * gamma underflows to 0 after every other value is known
        ["--game", "lotto3", "--alpha", "0.5", "--gamma", "5e-324",
         "--cost", "0.9999999999999999"],
        ["--game", "lotto3", "--alpha", "0.5", "--beta", "0.3", "--gamma", "0.5",
         "--cost", "0.1"],
        ["--game", "blotto2", "--vbar", "1", "--vlow", "0.5", "--gamma", "0.4"],
    ],
)
def test_refused_payoff_prints_nothing(capsys, argv):
    code, out, err = run(capsys, "payoff", *argv)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


def test_tiny_finite_payoff_printed(capsys):
    code, out, _ = run(
        capsys, "payoff", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5",
        "--gamma", "0.9995",
    )
    assert code == 0
    assert "pi_informed = -3.11087872834e-302" in out
    assert "voi = 0.0005" in out


@pytest.mark.parametrize("command", ["payoff", "strategy"])
def test_non_finite_multiplier_exits_two(capsys, tmp_path, command):
    argv = [
        command, "--game", "lotto3", "--alpha", "0.5", "--gamma", "0.5", "--xu", "1e-320",
    ]
    if command == "strategy":
        argv += ["--out", str(tmp_path / "s.json")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:") and "uninformed budget 1e-320" in err
    assert out == ""


@pytest.mark.parametrize("xu", ["1e-308", "1.7e308"])
def test_non_finite_marginal_exits_two(capsys, tmp_path, xu):
    code, out, err = run(
        capsys, "strategy", "--game", "lotto3", "--alpha", "0.5", "--gamma", "0.5",
        "--xu", xu, "--out", str(tmp_path / "s.json"),
    )
    assert code == 2
    assert err.startswith("error:") and f"uninformed budget {float(xu)!r}" in err
    assert out == ""


def test_small_finite_budget_builds(capsys, tmp_path):
    code, _, err = run(
        capsys, "strategy", "--game", "lotto3", "--alpha", "0.5", "--gamma", "0.5",
        "--xu", "5e-308", "--out", str(tmp_path / "s.json"),
    )
    assert code == 0, err


def test_verify_strategy_where_informed_budget_underflows(capsys, tmp_path):
    # gamma * X_U underflows to 0: strategy writes the file, and verify
    # certifies it, with the informed residuals reading 0 against X_I = 0
    path = tmp_path / "s.json"
    code, _, err = run(
        capsys, "strategy", "--game", "lotto3", "--alpha", "0.5", "--gamma", "1e-300",
        "--xu", "1e-300", "--out", str(path),
    )
    assert code == 0, err
    code, out, err = run(capsys, "verify", "--strategy", str(path))
    assert code == 0, out + err
    assert "passed = true" in out
    for i in range(3):
        assert f"budget_residuals_informed[{i}] = 0\n" in out


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

    def test_simulate_reports_samples_and_seed(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5",
            "--gamma", "0.7", "--samples", "2000", "--seed", "11",
        )
        assert code == 0
        assert "samples = 2000\n" in out
        assert "seed = 11\n" in out

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

    @pytest.mark.parametrize(
        "samples,seed", [("1", "20240801"), ("2", "9" * 41)]
    )
    def test_zero_std_error_miss_is_infinite(self, capsys, tmp_path, samples, seed):
        # certify judges |mean - claimed| <= 4 se: with se = 0 a miss fails.
        # Every marginal is one atom at 0, so every battlefield ties and
        # every sample scores 0 whatever the seed, against a closed form of -0.7
        zero = {"atoms": [[0.0, 1.0]], "segments": []}
        record = {"game": "lotto3", "params": lotto3.LottoParams(0.5, 0.5, 0.2)._asdict(),
                  "profile": {"informed": [[zero] * 3] * 3, "uninformed": [zero] * 3}}
        path = tmp_path / "ties.json"
        path.write_text(json.dumps(record))
        code, out, _ = run(
            capsys, "simulate", "--strategy", str(path), "--samples", samples, "--seed", seed
        )
        assert code == 0
        assert "mc_mean = 0\n" in out
        assert "mc_std_error = 0\n" in out
        assert "closed_form = -0.7\n" in out
        assert "z_score = inf\n" in out


@pytest.mark.parametrize("command", ["simulate"])
def test_undrawable_samples_exit_two(capsys, command):
    # numpy draws the state counts as signed 64-bit integers, and its
    # multinomial raised OverflowError from 2**63 up; any count below is
    # drawn, in memory that does not grow with it
    for count in (str(2**63), "1" + "0" * 30):
        code, out, err = run(
            capsys, command, "--game", "lotto3", "--alpha", "0.5", "--gamma", "0.2",
            "--samples", count,
        )
        assert code == 2 and out == ""
        assert err == (f"error: {count} Monte Carlo samples are more than numpy draws: "
                       "the count must be below 2^63\n")


# exit code and ru_maxrss (kB) of the CLI run on argv in a child.  A
# child's ru_maxrss counts the memory of the process it was started from,
# so the child is started from this small interpreter, not from pytest's
_PEAK_RSS_PROBE = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "infoblotto.cli", *sys.argv[1:]],
                         stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_kb(argv):
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_PROBE, *argv], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    code, peak = map(int, proc.stdout.split())
    assert code == 0, argv
    return peak


def test_simulate_memory_flat_in_samples():
    # a payoff was kept per sample: 10^7 samples peaked about 155 MB above
    # 10^3; a chunk's payoffs are now reduced to counts as it is scored
    argv = ["simulate", "--game", "lotto3", "--alpha", "0.6", "--beta", "0.3",
            "--gamma", "0.8", "--samples"]
    small, large = (_peak_rss_kb(argv + [count]) for count in ("1000", "10000000"))
    assert large - small <= 8 * 1024, (small, large)


@pytest.mark.parametrize(
    "argv,named",
    [
        (["--game", "lotto3", "--alpha", "0.5", "--axis", "gamma=0.1:0.9:1000000000000"],
         "gamma (1000000000000 steps)"),
        (["--game", "lotto3", "--axis", "gamma=0.1:0.9:1000000",
          "--axis", "alpha=0.1:0.9:1000000"],
         "gamma (1000000 steps) x alpha (1000000 steps)"),
        (["--game", "blotto2", "--gamma", "0.7", "--axis", "vlow=0.1:0.9:1000000000000"],
         "vlow (1000000000000 steps)"),
    ],
)
def test_unallocatable_sweep_exits_two(capsys, tmp_path, argv, named):
    # 10^12 grid points ask for terabytes at once, so the request fails
    # before any memory is touched
    out_path = tmp_path / "x.csv"
    code, out, err = run(capsys, "sweep", *argv, "--out", str(out_path))
    assert code == 2
    assert err.startswith("error:") and named in err and "do not fit in memory" in err
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("command", ["simulate"])
def test_negative_seed_exits_two(capsys, command):
    code, out, err = run(
        capsys, command, "--game", "lotto3", "--alpha", "0.5", "--gamma", "0.2",
        "--samples", "100", "--seed", "-1",
    )
    assert code == 2
    assert err == "error: --seed must be a non-negative integer, got -1\n"
    assert out == ""


def test_verify_reports_value_residual(capsys, tmp_path):
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(
        capsys, "verify", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5",
        "--gamma", "0.7", "--out", str(cert_path),
    )
    assert code == 0
    *_, residual_line, passed_line = out.splitlines()
    assert residual_line.startswith("value_residual = ") and passed_line == "passed = true"
    assert float(residual_line.split(" = ")[1]) <= 1e-15
    cert = json.loads(cert_path.read_text())
    assert cert["value_residual"] <= 1e-15
    assert "mc_" not in out and not [key for key in cert if key.startswith("mc_")]


@pytest.mark.parametrize("source", ["blotto2", "lotto3", "perturbed"])
def test_verify_stdout_is_the_certificate(capsys, tmp_path, source):
    # stdout lists the Certificate fields in order, a tuple as name[i] lines,
    # each value printed as _fmt prints its --out JSON value
    argv = {
        "blotto2": ["--game", "blotto2", "--vbar", "1", "--vlow", "0.5", "--gamma", "0.7"],
        "lotto3": ["--game", "lotto3", "--alpha", "0.6", "--beta", "0.3", "--gamma", "0.8"],
    }.get(source) or ["--strategy", perturbed_strategy_file(capsys, tmp_path)]
    cert_path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "verify", *argv, "--out", str(cert_path))
    assert code == (1 if source == "perturbed" else 0)
    cert = json.loads(cert_path.read_text())
    fields = list(oracle.Certificate._fields)
    assert list(cert) == fields
    expected = []
    for name in fields:
        value = cert[name]
        if isinstance(value, list):
            expected += [(f"{name}[{i}]", item) for i, item in enumerate(value)]
        else:
            expected.append((name, value))
    lines = [line.split(" = ", 1) for line in out.splitlines()]
    assert [name for name, _ in lines] == [name for name, _ in expected]
    for (name, text), (_, value) in zip(lines, expected):
        if isinstance(value, bool):
            assert text == ("true" if value else "false"), name
        elif isinstance(value, str):
            assert text == value, name
        else:
            assert text == _fmt(value), name
    assert lines[-1] == ["passed", "false" if source == "perturbed" else "true"]
    assert ["eps_deviation", "1e-06"] in lines and ["eps_budget", "1e-09"] in lines


@pytest.mark.parametrize(
    "command,argv",
    [
        ("verify", ["--game", "blotto2", "--vbar", "1", "--vlow", "0.5", "--gamma", "0.7"]),
        ("strategy", ["--game", "blotto2", "--vbar", "1", "--vlow", "0.5", "--gamma", "0.7"]),
        ("sweep", ["--game", "lotto3", "--alpha", "0.5", "--axis", "gamma=0.1:0.9:3"]),
    ],
    ids=["verify", "strategy", "sweep"],
)
def test_unwritable_out_exits_two(capsys, tmp_path, command, argv):
    # the record is printed only once the file is written: a passing
    # certificate used to be printed before its --out write failed
    path = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, command, *argv, "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "No such file or directory" in err


@pytest.mark.parametrize(
    "flags",
    [["--samples", "10"], ["--seed", "-1"], ["--samples", "1000000000000"]],
    ids=["samples", "negative-seed", "unallocatable-samples"],
)
def test_verify_takes_no_monte_carlo_flags(capsys, flags):
    argv = ["verify", "--game", "lotto3", "--alpha", "0.5", "--gamma", "0.2", *flags]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {' '.join(flags)}" in captured.err


def test_verify_at_tiny_gamma(capsys):
    # at 1e-9 every Monte Carlo sample scored the same sum, one ulp off the
    # claimed value with a standard error of 0, so the old verdict failed
    # (exit 1); below, the uninformed priced payoff summed weights of order
    # 1/gamma times an informed CDF near 1, so each value was rounded at
    # ulp(1/gamma): the support spread read 3.1e-5, 3.9e-3 and 0.25 (exit 1)
    for gamma in ["1e-9", "1e-12", "1e-14", "1e-16"]:
        code, out, err = run(
            capsys, "verify", "--game", "lotto3", "--alpha", "0.0018928857208885264",
            "--gamma", gamma,
        )
        assert code == 0, (gamma, out + err)
        assert "passed = true" in out
        gap = next(line for line in out.splitlines() if line.startswith("deviation_gap_uninformed"))
        assert float(gap.split(" = ")[1]) <= 1e-15, gamma


_MULTIPLIER_UNDERFLOW = [
    "--game", "lotto3", "--alpha", "1e-308", "--gamma", "5.569061113408053e-136",
    "--xu", "1.7976931348623157e308",
]


@pytest.mark.parametrize("command", ["payoff", "strategy", "verify", "simulate"])
def test_multiplier_underflow_exits_two(capsys, tmp_path, command):
    # lambda_uninformed = 3 gamma lambda_informed underflows to 0: payoff
    # printed it as 0, and the builder divided by it (ZeroDivisionError, exit 1)
    out_path = tmp_path / "s.json"
    extra = ["--out", str(out_path)] if command == "strategy" else []
    code, out, err = run(capsys, command, *_MULTIPLIER_UNDERFLOW, *extra)
    assert code == 2
    assert err.startswith("error:") and "multiplier lambda_uninformed is 0.0" in err
    assert out == "" and not out_path.exists()


# Just above a regime edge the least valued piece of a Lotto marginal has
# length 0 up to rounding; it was built as a segment [0.0, 0.0], which
# PiecewiseCdf refuses, so strategy, verify and simulate exited 2.
def _above_regime_edges():
    rng = random.Random(26)
    for edge in (1.0 / 3.0, 2.0 / 3.0):
        gamma = edge
        for _ in range(6):
            gamma = math.nextafter(gamma, 1.0)
            for _ in range(3):
                alpha = rng.uniform(0.01, 0.99)
                yield alpha, rng.uniform(0.01, alpha), gamma
                yield alpha, alpha, gamma


def test_verify_just_above_regime_edges(capsys):
    for alpha, beta, gamma in _above_regime_edges():
        argv = ["--alpha", repr(alpha), "--beta", repr(beta), "--gamma", repr(gamma)]
        code, out, err = run(capsys, "verify", "--game", "lotto3", *argv)
        assert (code, err) == (0, ""), argv
        assert "passed = true" in out.splitlines(), argv


@pytest.mark.parametrize("command", ["strategy", "verify", "simulate"])
@pytest.mark.parametrize("gamma", ["0.33333333333333337", "0.6666666666666667"])
def test_one_float_above_regime_edge_exits_zero(capsys, tmp_path, command, gamma):
    extra = {"strategy": ["--out", str(tmp_path / "s.json")], "simulate": ["--samples", "1000"]}
    argv = [command, "--game", "lotto3", "--alpha", "0.5", "--gamma", gamma]
    code, _, err = run(capsys, *argv, *extra.get(command, []))
    assert (code, err) == (0, "")


@pytest.mark.parametrize(
    "flags,fault",
    [(["--alpha", "0.5", "--beta", "1e-309", "--gamma", "0.9"], "valuation beta = 1e-309"),
     (["--alpha", "1e-309", "--gamma", "0.5"], "valuation alpha = 1e-309"),
     (["--alpha", "0.5", "--gamma", "0.9", "--xu", "1e-308"], "uninformed budget 1e-308")],
)
def test_non_finite_density_names_its_parameter(capsys, flags, fault):
    # a subnormal valuation makes its piece's density overflow, and the
    # refusal blamed the uninformed budget 1.0
    code, out, err = run(capsys, "verify", "--game", "lotto3", *flags)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {fault} ") and "not finite" in err


# The Blotto lattice is refused past q = 10^5 before any atom is built.
# Without that check the two larger step counts would allocate until the
# machine runs out of memory, so the calls run in a fresh interpreter whose
# address space is capped at 2 GiB: a missing check fails with MemoryError.
_LATTICE_PROBE = """
import contextlib, io, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
from infoblotto.cli import main
report = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        report.append([main(argv), out.getvalue(), err.getvalue()])
print(json.dumps(report))
"""

# (vlow, gamma, q) with vbar = 1: every payoff is finite (the last -6.1e-16)
_PAST_LATTICE_LIMIT = [
    ("0.9999", "0.99999000015", 100001),
    ("0.9999999", "0.99999999", 99999999),
    ("0.9999999999999999", "0.9999999999999993", 1501199875790165),
]


@pytest.mark.parametrize("command", ["strategy", "verify", "simulate"])
def test_lattice_past_limit_exits_two(tmp_path, command):
    out_path = tmp_path / "s.json"
    extra = ["--out", str(out_path)] if command == "strategy" else []
    calls = [
        [command, "--game", "blotto2", "--vbar", "1", "--vlow", vlow, "--gamma", gamma, *extra]
        for vlow, gamma, _ in _PAST_LATTICE_LIMIT
    ]
    report = _fresh_interpreter(_LATTICE_PROBE, calls)
    for (code, out, err), (_, _, q) in zip(report, _PAST_LATTICE_LIMIT):
        assert code == 2 and out == "", (q, out, err)
        assert err.startswith(f"error: q = {q}: ") and "only for odd q up to 100000 " in err
    assert not out_path.exists()


# The payoff closed forms, the strategy constructions and the exact oracle
# checks (all of verify) are scalar Python; numpy is loaded only for array
# work (simulate's Monte Carlo, sweep grids).  pytest's own process already
# holds numpy, so each check runs in a fresh interpreter.
_NUMPY_PROBE = """
import json, sys
import infoblotto, infoblotto.cli
report = [["import", None, "numpy" in sys.modules]]
for argv in json.loads(sys.argv[1]):
    report.append([argv[0], infoblotto.cli.main(argv), "numpy" in sys.modules])
print(json.dumps(report))
"""


# The exact oracle runs in plain floats: building each game's profile, its
# ex-ante payoff, the gap scan and the budget residuals load no numpy.
_EXACT_PROBE = """
import json, sys
from infoblotto import blotto2, games, lotto3, oracle
blotto = blotto2.BlottoParams.from_ratio(1.0, 0.5, 0.7, 10.0)
cases = [(blotto, blotto2.build_equilibrium, oracle.blotto_deviation_gaps,
          oracle.blotto_budget_residuals)]
cases += [(lotto3.LottoParams(0.5, 0.3, gamma, 1.0), lotto3.build_equilibrium,
           oracle.lotto_support_optimality, oracle.lotto_budget_residuals)
          for gamma in json.loads(sys.argv[1])]
report = []
for params, build, scan, residuals in cases:
    profile = build(params)
    games.ex_ante_payoff(profile, params.valuation_matrix, params.prior)
    worst = scan(profile, params).worst()
    res_u, res_i = residuals(profile, params)
    report.append([worst, max(res_u, *res_i), "numpy" in sys.modules])
print(json.dumps(report))
"""


def _child_env():
    # the sources under test first on the path of a child interpreter
    src = os.path.dirname(os.path.dirname(infoblotto.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _fresh_interpreter(script, argument):
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", script, json.dumps(argument)],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return [tuple(step) for step in json.loads(proc.stdout.splitlines()[-1])]


def _numpy_probe(*commands):
    return _fresh_interpreter(_NUMPY_PROBE, commands)


def test_numpy_loaded_only_for_array_work(tmp_path):
    lotto = ["--game", "lotto3", "--alpha", "0.5", "--gamma", "0.5"]
    blotto = ["--game", "blotto2", "--vbar", "1", "--vlow", "0.5", "--gamma", "0.7"]
    lotto_json, blotto_json = str(tmp_path / "lotto.json"), str(tmp_path / "blotto.json")
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"game": "lotto3", "params": {')
    scalar = [
        ["payoff", *lotto],
        ["payoff", *blotto],
        ["strategy", *lotto, "--out", lotto_json],
        ["strategy", *blotto, "--out", blotto_json],
        ["payoff", "--game", "lotto3", "--alpha", "0.5", "--gamma", "nan"],
        ["payoff", *lotto, "--cost", "0.2"],
        ["strategy", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5",
         "--gamma", "0.78", "--out", str(tmp_path / "even.json")],
        ["sweep", "--game", "lotto3", "--axis", "gamma=0.5:0.1:3", "--alpha", "0.5",
         "--out", str(tmp_path / "bad.csv")],
        ["verify", "--strategy", str(malformed)],
        ["verify", "--strategy", lotto_json],
        ["verify", "--strategy", blotto_json],
    ]
    report = _numpy_probe(*scalar)
    assert report == [("import", None, False)] + [
        (argv[0], code, False) for argv, code in zip(scalar, [0, 0, 0, 0, 2, 0, 2, 2, 2, 0, 0])
    ]
    simulate = ["simulate", "--strategy", blotto_json, "--samples", "1000"]
    assert _numpy_probe(simulate) == [("import", None, False), ("simulate", 0, True)]


def test_exact_oracle_needs_no_numpy():
    # one blotto2 point, then lotto3 in the low, mid and high regimes
    report = _fresh_interpreter(_EXACT_PROBE, [0.2, 0.5, 0.9])
    assert len(report) == 4
    for worst, residual, numpy_loaded in report:
        assert worst <= oracle.EPS_DEVIATION
        assert residual <= oracle.EPS_BUDGET
        assert not numpy_loaded


# Each command loads only the modules it runs: ``import infoblotto`` and
# ``import infoblotto.cli`` load no game module, a game's payoff, strategy
# and sweep load that game's module over ``games`` and ``distributions``,
# and only verify and simulate load ``oracle``.  One fresh interpreter per
# command reports the ``infoblotto`` modules and which of dataclasses,
# inspect, json and numpy it loaded; the probe reads its argument with
# ``ast``, so its own json import comes after the report is taken.  No
# command loads dataclasses, and only numpy, for sweep and simulate, loads
# inspect.
_MODULE_PROBE = """
import ast, contextlib, importlib, io, sys
command = ast.literal_eval(sys.argv[1])
code = None
if isinstance(command, str):
    importlib.import_module(command)
else:
    from infoblotto.cli import main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(command)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "infoblotto")
extra = [m for m in ("dataclasses", "inspect", "json", "numpy") if m in sys.modules]
import json
print(json.dumps([[code, loaded, extra]]))
"""

_LOTTO = ["--game", "lotto3", "--alpha", "0.5", "--gamma", "0.5"]
_BLOTTO = ["--game", "blotto2", "--vbar", "1", "--vlow", "0.5", "--gamma", "0.7"]
_GAME_ARGS = {"lotto3": _LOTTO, "blotto2": _BLOTTO}
_SWEEPS = {
    "lotto3": ["sweep", "--game", "lotto3", "--alpha", "0.5", "--axis", "gamma=0.1:0.9:3"],
    "blotto2": ["sweep", "--game", "blotto2", "--vlow", "0.5", "--axis", "gamma=0.6:0.9:3"],
}
_DATA = os.path.join(os.path.dirname(__file__), "data")


def _game_modules(game):
    return sorted(["infoblotto", "infoblotto.cli", "infoblotto.distributions",
                   "infoblotto.games", f"infoblotto.{game}"])


def _checked_modules(game):
    return sorted(_game_modules(game) + ["infoblotto.oracle"])


def _module_cases():
    yield "import-package", "infoblotto", (None, ["infoblotto"], [])
    yield "import-cli", "infoblotto.cli", (None, ["infoblotto", "infoblotto.cli"], [])
    for game, args in _GAME_ARGS.items():
        modules = _game_modules(game)
        yield f"payoff-{game}", ["payoff", *args], (0, modules, [])
        yield (f"strategy-{game}", ["strategy", *args, "--out", "{tmp}/s.json"],
               (0, modules, ["json"]))
        yield (f"sweep-{game}", [*_SWEEPS[game], "--out", "{tmp}/s.csv"],
               (0, modules, ["inspect", "numpy"]))
    yield ("bad-axis", ["sweep", "--game", "lotto3", "--axis", "gamma=0.5:0.1:3", "--alpha",
                        "0.5", "--out", "{tmp}/bad.csv"], (2, ["infoblotto", "infoblotto.cli"], []))
    # verify and simulate add only the oracle to their game's modules
    for game, name in (("blotto2", "blotto2_q3"), ("lotto3", "lotto3_high")):
        yield (f"verify-{name}", ["verify", "--strategy", os.path.join(_DATA, f"{name}.json")],
               (0, _checked_modules(game), ["json"]))
    yield "verify-lotto3", ["verify", *_LOTTO], (0, _checked_modules("lotto3"), [])
    yield ("simulate-blotto2", ["simulate", *_BLOTTO, "--samples", "1000"],
           (0, _checked_modules("blotto2"), ["inspect", "numpy"]))


@pytest.mark.parametrize(
    "command,expected", [case[1:] for case in _module_cases()],
    ids=[case[0] for case in _module_cases()],
)
def test_each_command_loads_only_what_it_runs(tmp_path, command, expected):
    if isinstance(command, list):
        command = [arg.replace("{tmp}", str(tmp_path)) for arg in command]
    code, loaded, extra = _fresh_interpreter(_MODULE_PROBE, command)[0]
    assert (code, loaded, extra) == expected


# Public names resolve on first access, and each loads only its home module
# and what that module imports
_LAZY_PROBE = """
import json, sys
import infoblotto
report = []
for name in json.loads(sys.argv[1]):
    getattr(infoblotto, name)
    report.append([name, sorted(m for m in sys.modules if m.startswith("infoblotto"))])
print(json.dumps(report))
"""


def test_public_names_resolve_lazily():
    for name in infoblotto.__all__:
        value = getattr(infoblotto, name)
        if name in ("blotto2", "lotto3", "oracle"):
            assert value is sys.modules[f"infoblotto.{name}"]
        else:
            assert value.__module__ in ("infoblotto.distributions", "infoblotto.games")
            assert value is getattr(sys.modules[value.__module__], name)
    assert set(infoblotto.__all__) <= set(dir(infoblotto))
    namespace = {}
    exec("from infoblotto import *", namespace)
    assert {name: namespace[name] for name in infoblotto.__all__} == {
        name: getattr(infoblotto, name) for name in infoblotto.__all__
    }
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        infoblotto.no_such_name
    report = _fresh_interpreter(_LAZY_PROBE, ["PiecewiseCdf", "Prior", "lotto3", "oracle"])
    assert report == [
        ("PiecewiseCdf", ["infoblotto", "infoblotto.distributions"]),
        ("Prior", ["infoblotto", "infoblotto.distributions", "infoblotto.games"]),
        ("lotto3", ["infoblotto", "infoblotto.distributions", "infoblotto.games",
                    "infoblotto.lotto3"]),
        ("oracle", ["infoblotto", "infoblotto.distributions", "infoblotto.games",
                    "infoblotto.lotto3", "infoblotto.oracle"]),
    ]


# The perfbench ``cli`` workload runs ``python -m infoblotto.cli``, where
# ``cli`` is ``__main__`` and every function-local import goes through its
# ``__package__``: each run there prints, writes and exits as ``main`` does
# in process on the same argv.
_ENTRY_POINT_RUNS = {
    "payoff-lotto3": [["payoff", *_LOTTO]],
    "payoff-blotto2": [["payoff", *_BLOTTO]],
    "strategy-verify": [["strategy", *_BLOTTO, "--xu", "10", "--out", "{tmp}/s.json"],
                        ["verify", "--strategy", "{tmp}/s.json"]],
    "sweep": [["sweep", "--game", "lotto3", "--axis", "alpha=0.1:0.9:4", "--gamma", "0.5",
               "--columns", "payoff,max_cost", "--out", "{tmp}/s.csv"]],
    "simulate": [["simulate", *_LOTTO, "--samples", "1000"]],
    "refusal": [["payoff", "--game", "lotto3", "--alpha", "0.5", "--gamma", "nan"]],
}


@pytest.mark.parametrize("runs", list(_ENTRY_POINT_RUNS.values()), ids=list(_ENTRY_POINT_RUNS))
def test_module_entry_point_matches_main(capsys, tmp_path, runs):
    written = {}
    for argv in runs:
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        proc = subprocess.run(
            [sys.executable, "-m", "infoblotto.cli", *argv],
            capture_output=True, text=True, env=_child_env(), timeout=120,
        )
        files = {path: path.read_bytes() for path in tmp_path.iterdir()}
        written.update(files)
        assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == files
    if runs[0][0] == "simulate":
        # the default seed of simulate
        assert "seed = 20240801\n" in proc.stdout
    assert len(written) == sum("--out" in argv for argv in runs)
