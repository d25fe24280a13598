"""Command-line front end.

Subcommands: payoff, sweep, strategy, verify, simulate.  Exit codes: 0 on
success (and a passing certificate for ``verify``), 1 on a failing
certificate, 2 on invalid parameters or malformed input.  All numbers are
printed with 12 significant digits and sweeps are byte-identical across
runs for identical flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import blotto2, lotto3, oracle
from .games import Budgets, StrategyProfile


def _fmt(x):
    return format(float(x), ".12g")


# ---------------------------------------------------------------------------
# Parameter assembly
# ---------------------------------------------------------------------------


def _require(args, names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n for n in missing)
        raise ValueError(f"game {args.game} requires {flags}")


def _blotto_params(args):
    _require(args, ["vbar", "vlow", "gamma"])
    return blotto2.BlottoParams.from_ratio(args.vbar, args.vlow, args.gamma, args.xu)


def _lotto_params(args):
    _require(args, ["alpha", "gamma"])
    beta = args.beta if args.beta is not None else args.alpha
    return lotto3.LottoParams(args.alpha, beta, args.gamma, args.xu)


def _build_profile(args):
    if args.game == "blotto2":
        params = _blotto_params(args)
        return params, blotto2.build_equilibrium(params, e=args.e)
    params = _lotto_params(args)
    return params, lotto3.build_equilibrium(params)


def _load_strategy(path):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed strategy file {path}: {exc}") from exc
    try:
        game = data["game"]
        raw = data["params"]
        if game == "blotto2":
            params = blotto2.BlottoParams(
                raw["vbar"],
                raw["vlow"],
                Budgets(raw["budget_informed"], raw["budget_uninformed"]),
            )
        elif game == "lotto3":
            params = lotto3.LottoParams(
                raw["alpha"], raw["beta"], raw["gamma"], raw["budget_uninformed"]
            )
        else:
            raise ValueError(f"unknown game {game!r}")
        profile = StrategyProfile.from_dict(data["profile"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed strategy file {path}: {exc}") from exc
    return game, params, profile


# ---------------------------------------------------------------------------
# payoff
# ---------------------------------------------------------------------------


def cmd_payoff(args):
    if args.game == "blotto2":
        params = _blotto_params(args)
        idx = blotto2.BlottoIndex.from_params(params)
        value = blotto2.informed_payoff(params)
        print("game = blotto2")
        print(f"pi_informed = {_fmt(value)}")
        print(f"q = {idx.q}")
        print(f"d = {_fmt(idx.d)}")
        print(f"r = {_fmt(idx.r)}")
        baseline = blotto2.gross_wagner_payoff(idx.q)
        print(f"baseline = {_fmt(baseline)}")
        print(f"voi = {_fmt(value - baseline)}")
        return 0
    params = _lotto_params(args)
    a, b, g = params.alpha, params.beta, params.gamma
    value = lotto3.informed_payoff(a, b, g)
    lam_i, lam_u = lotto3.multipliers(a, b, g, params.budget_uninformed)
    print("game = lotto3")
    print(f"pi_informed = {_fmt(value)}")
    print(f"regime = {lotto3.regime_of(g)}")
    print(f"lambda_informed = {_fmt(lam_i)}")
    print(f"lambda_uninformed = {_fmt(lam_u)}")
    baseline = lotto3.complete_info_baseline(g)
    print(f"baseline = {_fmt(baseline)}")
    print(f"info_gain = {_fmt(value - baseline)}")
    if a == b:
        print(f"max_cost = {_fmt(lotto3.max_cost(a, g))}")
        if args.cost is not None:
            print(f"voi = {_fmt(lotto3.voi(a, g, args.cost))}")
    elif args.cost is not None:
        raise ValueError("--cost applies only to the symmetric case beta == alpha")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepAxis:
    name: str
    lo: float
    hi: float
    steps: int

    def grid(self):
        return np.linspace(self.lo, self.hi, self.steps)


@dataclass(frozen=True)
class SweepSpec:
    game: str
    axes: tuple[SweepAxis, ...]
    fixed: dict
    columns: tuple[str, ...]


_BLOTTO_AXES = {"vlow", "alpha", "gamma"}
_LOTTO_AXES = {"alpha", "beta", "gamma"}
_BLOTTO_COLUMNS = ("payoff", "baseline", "voi")
_LOTTO_COLUMNS = ("payoff", "baseline", "info_gain", "voi", "max_cost")


def _parse_axis(text):
    try:
        name, spec = text.split("=", 1)
        lo, hi, steps = spec.split(":")
        axis = SweepAxis(name.strip(), float(lo), float(hi), int(steps))
    except ValueError as exc:
        raise ValueError(f"bad axis {text!r}, expected name=lo:hi:steps") from exc
    if axis.steps < 2:
        raise ValueError(f"axis {axis.name}: steps must be >= 2, got {axis.steps}")
    if not axis.lo < axis.hi:
        raise ValueError(f"axis {axis.name}: need lo < hi, got {axis.lo}:{axis.hi}")
    return axis


def _check_axis_domain(spec: SweepSpec):
    for axis in spec.axes:
        if spec.game == "blotto2":
            if axis.name in ("vlow", "alpha"):
                vbar = spec.fixed["vbar"]
                if not (0.0 < axis.lo and axis.hi < vbar):
                    raise ValueError(f"axis {axis.name} must stay inside (0, vbar)")
            elif axis.name == "gamma":
                if not (0.5 < axis.lo and axis.hi < 1.0):
                    raise ValueError("axis gamma must stay inside (1/2, 1)")
        else:
            if axis.name in ("alpha", "beta"):
                if not (0.0 < axis.lo and axis.hi < 1.0):
                    raise ValueError(f"axis {axis.name} must stay inside (0, 1)")
            elif axis.name == "gamma":
                if not (0.0 < axis.lo and axis.hi <= 1.0):
                    raise ValueError("axis gamma must stay inside (0, 1]")


def _blotto_row_values(point, fixed, columns):
    params = blotto2.BlottoParams.from_ratio(
        fixed["vbar"], point["vlow"], point["gamma"]
    )
    payoff = blotto2.informed_payoff(params)
    baseline = blotto2.gross_wagner_payoff(blotto2.BlottoIndex.from_params(params).q)
    out = {"payoff": payoff, "baseline": baseline, "voi": payoff - baseline}
    return [out[c] for c in columns]


def _lotto_row_values(point, fixed, columns):
    alpha, gamma = point["alpha"], point["gamma"]
    beta = point.get("beta", alpha)
    payoff = lotto3.informed_payoff(alpha, beta, gamma)
    baseline = lotto3.complete_info_baseline(gamma)
    out = {"payoff": payoff, "baseline": baseline, "info_gain": payoff - baseline}
    if "voi" in columns:
        if beta != alpha:
            raise ValueError("column voi requires beta == alpha")
        out["voi"] = lotto3.voi(alpha, gamma, fixed.get("cost", 0.0))
    if "max_cost" in columns:
        if beta != alpha:
            raise ValueError("column max_cost requires beta == alpha")
        out["max_cost"] = lotto3.max_cost(alpha, gamma)
    return [out[c] for c in columns]


def sweep_table(spec: SweepSpec):
    """(header, rows) of the grid sweep, row-major over the axes in order."""
    allowed_axes = _BLOTTO_AXES if spec.game == "blotto2" else _LOTTO_AXES
    allowed_cols = _BLOTTO_COLUMNS if spec.game == "blotto2" else _LOTTO_COLUMNS
    for axis in spec.axes:
        if axis.name not in allowed_axes:
            raise ValueError(f"unknown axis {axis.name!r} for game {spec.game}")
    for col in spec.columns:
        if col not in allowed_cols:
            raise ValueError(f"unknown column {col!r} for game {spec.game}")
    if len(spec.axes) > 2:
        raise ValueError("at most two sweep axes are supported")
    _check_axis_domain(spec)

    names = [ax.name for ax in spec.axes]
    if spec.game == "blotto2":
        names = ["vlow" if n == "alpha" else n for n in names]
    header = ",".join(names + list(spec.columns))

    grids = [ax.grid() for ax in spec.axes]
    if not grids:
        points = [()]
    elif len(grids) == 1:
        points = [(v,) for v in grids[0]]
    else:
        points = [(u, v) for u in grids[0] for v in grids[1]]

    row_values = _blotto_row_values if spec.game == "blotto2" else _lotto_row_values
    rows = []
    for coords in points:
        point = dict(spec.fixed)
        point.update(zip(names, coords))
        cells = [point[n] for n in names]
        cells += row_values(point, spec.fixed, spec.columns)
        rows.append(",".join(_fmt(v) for v in cells))
    return header, rows


def cmd_sweep(args):
    axes = tuple(_parse_axis(a) for a in args.axis or ())
    fixed = {}
    if args.game == "blotto2":
        fixed["vbar"] = args.vbar if args.vbar is not None else 1.0
        if args.vlow is not None:
            fixed["vlow"] = args.vlow
        if args.gamma is not None:
            fixed["gamma"] = args.gamma
    else:
        for name in ("alpha", "beta", "gamma"):
            value = getattr(args, name)
            if value is not None:
                fixed[name] = value
        if args.cost is not None:
            fixed["cost"] = args.cost
    columns = tuple(c.strip() for c in args.columns.split(",") if c.strip())
    spec = SweepSpec(game=args.game, axes=axes, fixed=fixed, columns=columns)

    axis_names = {ax.name for ax in axes}
    needed = {"vlow", "gamma"} if args.game == "blotto2" else {"alpha", "gamma"}
    for name in needed:
        alias = name == "vlow" and "alpha" in axis_names
        if name not in axis_names and not alias and name not in fixed:
            raise ValueError(f"parameter {name} needs either an axis or a fixed value")

    header, rows = sweep_table(spec)
    text = "\n".join([header] + rows) + "\n"
    with open(args.out, "w") as handle:
        handle.write(text)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# strategy / verify / simulate
# ---------------------------------------------------------------------------


def _params_record(game, params):
    if game == "blotto2":
        return {
            "vbar": params.vbar,
            "vlow": params.vlow,
            "budget_informed": params.budgets.informed,
            "budget_uninformed": params.budgets.uninformed,
        }
    return {
        "alpha": params.alpha,
        "beta": params.beta,
        "gamma": params.gamma,
        "budget_uninformed": params.budget_uninformed,
    }


def cmd_strategy(args):
    params, profile = _build_profile(args)
    record = {
        "game": args.game,
        "params": _params_record(args.game, params),
        "profile": profile.to_dict(),
    }
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote strategy profile to {args.out}")
    return 0


def _resolve_profile(args):
    if args.strategy is not None:
        game, params, profile = _load_strategy(args.strategy)
        if args.game is not None and args.game != game:
            raise ValueError(f"--game {args.game} conflicts with file game {game}")
        return params, profile
    if args.game is None:
        raise ValueError("either --strategy or --game with parameters is required")
    return _build_profile(args)


def cmd_verify(args):
    params, profile = _resolve_profile(args)
    cert = oracle.certify(profile, params, samples=args.samples, seed=args.seed)
    print(f"game = {cert.game}")
    print(f"claimed_value = {_fmt(cert.claimed_value)}")
    print(f"deviation_gap_uninformed = {_fmt(cert.deviation_gap_uninformed)}")
    for i, gap in enumerate(cert.deviation_gaps_informed):
        print(f"deviation_gap_informed[{i}] = {_fmt(gap)}")
    print(f"budget_residual_uninformed = {_fmt(cert.budget_residual_uninformed)}")
    for i, res in enumerate(cert.budget_residuals_informed):
        print(f"budget_residual_informed[{i}] = {_fmt(res)}")
    print(f"mc_mean = {_fmt(cert.mc_mean)}")
    print(f"mc_std_error = {_fmt(cert.mc_std_error)}")
    print(f"mc_samples = {cert.mc_samples}")
    print(f"passed = {str(cert.passed).lower()}")
    if args.out is not None:
        with open(args.out, "w") as handle:
            json.dump(cert.to_dict(), handle, indent=2)
            handle.write("\n")
    return 0 if cert.passed else 1


def cmd_simulate(args):
    params, profile = _resolve_profile(args)
    mean, std_error = oracle.monte_carlo_value(
        profile, params.valuation_matrix, params.prior, args.samples, args.seed
    )
    if isinstance(params, blotto2.BlottoParams):
        claimed = blotto2.informed_payoff(params)
    else:
        claimed = lotto3.informed_payoff(params.alpha, params.beta, params.gamma)
    print(f"mc_mean = {_fmt(mean)}")
    print(f"mc_std_error = {_fmt(std_error)}")
    print(f"closed_form = {_fmt(claimed)}")
    z = abs(mean - claimed) / std_error if std_error > 0.0 else 0.0
    print(f"z_score = {_fmt(z)}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_game_options(sub, require_game=True):
    sub.add_argument(
        "--game", choices=("blotto2", "lotto3"), required=require_game
    )
    sub.add_argument("--vbar", type=float, default=None, help="major battlefield value")
    sub.add_argument("--vlow", type=float, default=None, help="minor battlefield value")
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--beta", type=float, default=None, help="defaults to alpha")
    sub.add_argument("--gamma", type=float, default=None, help="budget ratio X_I/X_U")
    sub.add_argument("--xu", type=float, default=1.0, help="uninformed budget scale")
    sub.add_argument("--cost", type=float, default=None, help="information cost fraction")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="infoblotto",
        description="Payoffs, equilibrium strategies and certification for "
        "Blotto/Lotto games with a one-sided informed player.",
    )
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("payoff", help="closed-form equilibrium payoff")
    _add_game_options(p)
    p.set_defaults(func=cmd_payoff)

    p = subs.add_parser("sweep", help="grid sweep to CSV")
    _add_game_options(p)
    p.add_argument("--axis", action="append", metavar="name=lo:hi:steps")
    p.add_argument("--columns", default="payoff")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("strategy", help="construct equilibrium strategies")
    _add_game_options(p)
    p.add_argument("--e", type=float, default=None, help="Blotto lattice offset in (r, d)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_strategy)

    p = subs.add_parser("verify", help="certify a profile against the closed form")
    _add_game_options(p, require_game=False)
    p.add_argument("--e", type=float, default=None)
    p.add_argument("--strategy", default=None, help="strategy JSON to verify")
    p.add_argument("--samples", type=int, default=oracle.DEFAULT_MC_SAMPLES)
    p.add_argument("--seed", type=int, default=oracle.DEFAULT_SEED)
    p.add_argument("--out", default=None, help="write certificate JSON here")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("simulate", help="Monte Carlo estimate of the value")
    _add_game_options(p, require_game=False)
    p.add_argument("--e", type=float, default=None)
    p.add_argument("--strategy", default=None)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=oracle.DEFAULT_SEED)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
