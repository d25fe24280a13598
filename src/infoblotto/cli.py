"""Command-line front end.

Subcommands: payoff, sweep, strategy, verify, simulate.  Exit codes: 0 on
success (and a passing certificate for ``verify``), 1 on a failing
certificate, 2 on invalid parameters or malformed input.  ``main`` prints
each record once every value is computed and every file written, and the
help of a bare ``infoblotto`` on stderr, so exit 2 leaves stdout empty.
Numbers are printed with 12 significant digits and sweeps are
byte-identical across runs for identical flags.

Each command imports only what it runs, inside the functions that run it:
the module of its game, ``oracle`` for ``verify`` and ``simulate``, json
where a file is read or written, numpy for array work.  So ``payoff`` loads
``distributions``, ``games`` and its game's module, and a refusal from the
parser or of a malformed ``--axis`` loads no game module.
"""

import argparse
import math
import sys
from collections import namedtuple

# the Monte Carlo seed of ``simulate`` when --seed is not given
DEFAULT_SEED = 20240801


def _fmt(x):
    return format(float(x), ".12g")


def _render(record):
    """The ``key = value`` lines of a record: floats through ``_fmt``,
    booleans in lower case, a tuple as one ``key[i]`` line per item."""
    for key, value in record.items():
        if isinstance(value, tuple):
            yield from _render({f"{key}[{i}]": item for i, item in enumerate(value)})
        elif isinstance(value, bool):
            yield f"{key} = {str(value).lower()}"
        else:
            yield f"{key} = {_fmt(value) if isinstance(value, float) else value}"


def _write(path, text):
    with open(path, "w") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# Parameter assembly
# ---------------------------------------------------------------------------

# the flags each game reads; the other game's flags are refused, and so are
# those a subcommand does not read (sweep reads --cost for its voi column)
_GAME_FLAGS = {
    "blotto2": ("vbar", "vlow", "gamma", "xu", "e"),
    "lotto3": ("alpha", "beta", "gamma", "xu", "cost"),
}
_UNREAD_FLAGS = dict(sweep=("xu",), strategy=("cost",), verify=("cost",), simulate=("cost",))


def _refuse_unread_flags(args):
    every = set().union(*_GAME_FLAGS.values())
    if getattr(args, "strategy", None) is not None:
        # the file fixes every game parameter; only --game may be repeated
        checks = [(every, "cannot be given with --strategy")]
    else:
        other = every - set(_GAME_FLAGS.get(args.game, every))
        checks = [
            (other, f"does not apply to game {args.game}"),
            (_UNREAD_FLAGS.get(args.command, ()), f"does not apply to {args.command}"),
        ]
    for names, reason in checks:
        given = sorted("--" + name for name in names if getattr(args, name, None) is not None)
        if given:
            raise ValueError(f"{', '.join(given)} {reason}")


def _require(args, names):
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n for n in missing)
        raise ValueError(f"game {args.game} requires {flags}")


def _blotto_params(args):
    from . import blotto2
    _require(args, ["vbar", "vlow", "gamma"])
    xu = args.xu if args.xu is not None else 1.0
    return blotto2.BlottoParams.from_ratio(args.vbar, args.vlow, args.gamma, xu)


def _lotto_params(args):
    from . import lotto3
    _require(args, ["alpha", "gamma"])
    beta = args.beta if args.beta is not None else args.alpha
    xu = args.xu if args.xu is not None else 1.0
    return lotto3.LottoParams(args.alpha, beta, args.gamma, xu)


def _build_profile(args):
    if args.game == "blotto2":
        from . import blotto2
        params = _blotto_params(args)
        return params, blotto2.build_equilibrium(params, e=args.e)
    from . import lotto3
    params = _lotto_params(args)
    return params, lotto3.build_equilibrium(params)


def _load_strategy(path):
    """(game, params, profile) of a strategy file.  Its ``params`` record must
    hold exactly the fields of the game's params class, whose constructor
    reads it; ``StrategyProfile.from_dict`` reads the profile."""
    import json
    from .games import StrategyProfile
    try:
        with open(path) as handle:
            data = json.load(handle)
    # a document nested too deeply for the decoder raises RecursionError
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed strategy file {path}: {exc}") from exc
    try:
        game = data["game"]
        if game not in _GAME_FLAGS:
            raise ValueError(f"unknown game {game!r}")
        if game == "blotto2":
            from .blotto2 import BlottoParams as params_class
        else:
            from .lotto3 import LottoParams as params_class
        record, names = data["params"], list(params_class._fields)
        if set(record) != set(names):
            raise TypeError(f"params {sorted(record)}, expected {names}")
        params = params_class(**record)
        profile = StrategyProfile.from_dict(data["profile"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed strategy file {path}: {exc}") from exc
    return game, params, profile


# ---------------------------------------------------------------------------
# payoff
# ---------------------------------------------------------------------------


def cmd_payoff(args):
    if args.game == "blotto2":
        from . import blotto2
        params = _blotto_params(args)
        idx = blotto2.BlottoIndex.from_params(params)
        record = {"game": "blotto2", "pi_informed": blotto2.informed_payoff(params), "q": idx.q,
                  "d": idx.d, "r": idx.r, "baseline": blotto2.gross_wagner_payoff(idx.q),
                  "voi": blotto2.value_of_information(params)}
    else:
        from . import lotto3
        params = _lotto_params(args)
        a, b, g = params.alpha, params.beta, params.gamma
        lam_i, lam_u = lotto3.multipliers(a, b, g, params.budget_uninformed)
        record = {"game": "lotto3", "pi_informed": lotto3.informed_payoff(a, b, g),
                  "regime": lotto3.regime_of(g), "lambda_informed": lam_i,
                  "lambda_uninformed": lam_u, "baseline": lotto3.complete_info_baseline(g),
                  "info_gain": lotto3.info_gain(a, b, g)}
        if a == b:
            record["max_cost"] = lotto3.max_cost(a, g)
            if args.cost is not None:
                record["voi"] = lotto3.voi(a, g, args.cost)
        elif args.cost is not None:
            raise ValueError("--cost applies only to the symmetric case beta == alpha")
    return record, 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


# an axis: its parameter name, lo and hi (floats) and steps (an int); a spec:
# the game, a tuple of axes, a dict of fixed values and a tuple of columns
SweepAxis = namedtuple("SweepAxis", "name lo hi steps")
SweepSpec = namedtuple("SweepSpec", "game axes fixed columns")


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
    if not math.isfinite(axis.hi - axis.lo):
        raise ValueError(f"axis {axis.name}: the span {axis.lo}:{axis.hi} is not finite")
    return axis


def _blotto_columns(point, columns):
    from . import blotto2
    grid = blotto2.informed_payoff_grid(point["vbar"], point["vlow"], point["gamma"])
    return dict(zip(("payoff", "q", "baseline", "voi"), grid))


def _lotto_columns(point, columns):
    import numpy as np
    from . import lotto3
    alpha, gamma = point["alpha"], point["gamma"]
    beta = point.get("beta", alpha)
    out = {"payoff": lotto3.informed_payoff(alpha, beta, gamma)}
    for col in ("voi", "max_cost"):
        if col in columns and np.any(beta != alpha):
            raise ValueError(f"column {col} requires beta == alpha")
    forms = {"baseline": lambda: lotto3.complete_info_baseline(gamma),
             "info_gain": lambda: lotto3.info_gain(alpha, beta, gamma),
             "voi": lambda: lotto3.voi(alpha, gamma, point.get("cost", 0.0)),
             "max_cost": lambda: lotto3.max_cost(alpha, gamma)}
    return dict(out, **{col: form() for col, form in forms.items() if col in columns})


def sweep_table(spec: SweepSpec):
    """(header, rows) of the grid sweep, row-major over the axes in order.

    The grid is built once, and each column is evaluated over all of it:
    by the ``lotto3`` closed forms over arrays, and by the scalar Blotto
    closed form point by point.  Fixed values are checked at every point, and
    every cell is the value of the closed form at its point, bit for bit.  Each
    row is one ``%.12g`` template, which prints every cell as ``_fmt`` does.
    """
    import numpy as np

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

    names = [ax.name for ax in spec.axes]
    if spec.game == "blotto2":
        names = ["vlow" if n == "alpha" else n for n in names]
    given = names + list(spec.fixed)
    for name in names:
        if given.count(name) > 1:
            raise ValueError(f"parameter {name} is given more than once")
    for name in ("vlow", "gamma") if spec.game == "blotto2" else ("alpha", "gamma"):
        if name not in given:
            raise ValueError(f"parameter {name} needs either an axis or a fixed value")
    header = ",".join(names + list(spec.columns))

    size = math.prod(ax.steps for ax in spec.axes)
    try:  # numpy refuses a grid too large to allocate before touching memory
        grids = np.meshgrid(
            *(np.linspace(ax.lo, ax.hi, ax.steps) for ax in spec.axes), indexing="ij"
        )
    except (MemoryError, ValueError):
        axes = " x ".join(f"{ax.name} ({ax.steps} steps)" for ax in spec.axes)
        raise ValueError(f"sweep axes {axes}: {size} points do not fit in memory") from None
    point = dict(spec.fixed, **{n: g.ravel() for n, g in zip(names, grids)})
    columns = (_blotto_columns if spec.game == "blotto2" else _lotto_columns)(
        point, spec.columns
    )
    cells = [point[n] for n in names] + [columns[c] for c in spec.columns]
    template = ",".join(["%.12g"] * len(cells))
    if not cells:
        return header, [template] * size
    values = zip(*(np.broadcast_to(v, size).tolist() for v in cells))
    return header, [template % row for row in values]


def cmd_sweep(args):
    columns = tuple(c.strip() for c in args.columns.split(",") if c.strip())
    if args.cost is not None and "voi" not in columns:
        raise ValueError("--cost applies only to the voi column")
    axes = tuple(_parse_axis(a) for a in args.axis or ())
    fixed = {"vbar": 1.0} if args.game == "blotto2" else {}
    for name in _GAME_FLAGS[args.game]:
        if getattr(args, name, None) is not None:
            fixed[name] = getattr(args, name)
    spec = SweepSpec(game=args.game, axes=axes, fixed=fixed, columns=columns)
    header, rows = sweep_table(spec)
    _write(args.out, "\n".join([header] + rows) + "\n")
    return f"wrote {len(rows)} rows to {args.out}", 0


# ---------------------------------------------------------------------------
# strategy / verify / simulate
# ---------------------------------------------------------------------------


def cmd_strategy(args):
    import json
    params, profile = _build_profile(args)
    record = {"game": args.game, "params": params._asdict(), "profile": profile.to_dict()}
    _write(args.out, json.dumps(record, indent=2) + "\n")
    return f"wrote strategy profile to {args.out}", 0


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
    from . import oracle
    params, profile = _resolve_profile(args)
    record = oracle.certify(profile, params)._asdict()
    if args.out is not None:
        import json
        _write(args.out, json.dumps(record, indent=2) + "\n")
    return record, 0 if record["passed"] else 1


def cmd_simulate(args):
    from . import oracle
    params, profile = _resolve_profile(args)
    mean, std_error = oracle.monte_carlo_value(
        profile, params.valuation_matrix, params.prior, args.samples, args.seed
    )
    claimed = oracle.claimed_value(params)
    # with no spread, any miss is infinite
    miss = abs(mean - claimed)
    z = miss / std_error if std_error > 0.0 else (math.inf if miss else 0.0)
    return {"mc_mean": mean, "mc_std_error": std_error, "closed_form": claimed,
            "z_score": z, "samples": args.samples, "seed": args.seed}, 0


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
    sub.add_argument("--xu", type=float, default=None, help="uninformed budget (1)")
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

    p = subs.add_parser("verify", help="certify a profile exactly against the closed form")
    _add_game_options(p, require_game=False)
    p.add_argument("--e", type=float, default=None)
    p.add_argument("--strategy", default=None, help="strategy JSON to verify")
    p.add_argument("--out", default=None, help="write certificate JSON here")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("simulate", help="Monte Carlo estimate of the value")
    _add_game_options(p, require_game=False)
    p.add_argument("--e", type=float, default=None)
    p.add_argument("--strategy", default=None)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        _refuse_unread_flags(args)
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        record, code = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(record if isinstance(record, str) else "\n".join(_render(record)))
    return code


if __name__ == "__main__":
    sys.exit(main())
