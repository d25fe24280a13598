"""The four closed-loop workloads: one client, each op starts after the
previous one has finished and been checked.

Every workload makes a fixed list of op groups from the seed (a group is
one op, or ``strategy`` then the ``verify`` that reads its file), executes
ops (the timed part) and checks each result (untimed).  ``check`` returns
``None`` or the reason the op failed; an op that raises fails with the
exception text.  Program code is reached through module attributes
(``oracle.certify``, not a name bound at import), so the traced run sees
every call.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import re
import subprocess
import sys

from infoblotto import blotto2, cli, games, lotto3, oracle

import inputs

# |ex_ante - closed form| bound: the README's cross-method agreement
CROSS_METHOD_TOL = 1e-9
# oracle.certify accepts a Monte Carlo mean within 4 standard errors of the
# closed form; the program has no named constant for it
MC_Z_TOL = 4.0
# a measured number; exit codes are part of a failure's kind and stay
_NUMBER = re.compile(r"(?<![\w.])(?<!exit )(?<!expected )[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


class Op:
    __slots__ = ("kind", "key", "props", "payload")

    def __init__(self, kind, key, props, payload):
        self.kind = kind
        self.key = key
        self.props = props
        self.payload = payload


def fmt(x):
    """The CLI's number format: 12 significant digits."""
    return format(float(x), ".12g")


def csv_text(header, rows):
    """Bytes-exact CSV as ``infoblotto sweep`` writes it."""
    return "\n".join([header] + rows) + "\n"


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_csv(text, expected_digest):
    got = digest(text)
    if got != expected_digest:
        return f"csv digest {got[:16]} != recorded {expected_digest[:16]}"
    for line in text.splitlines()[1:]:
        for cell in line.split(","):
            if not math.isfinite(float(cell)):
                return f"non-finite cell {cell!r}"
    return None


def make_params(point):
    game, params = point
    p = dict(params)
    if game == "blotto2":
        return blotto2.BlottoParams.from_ratio(p["vbar"], p["vlow"], p["gamma"], p["xu"])
    return lotto3.LottoParams(p["alpha"], p["beta"], p["gamma"], p["xu"])


def closed_form(params):
    if isinstance(params, blotto2.BlottoParams):
        return blotto2.informed_payoff(params)
    return lotto3.informed_payoff(params.alpha, params.beta, params.gamma)


def build(params):
    if isinstance(params, blotto2.BlottoParams):
        return blotto2.build_equilibrium(params)
    return lotto3.build_equilibrium(params)


def make_sweep_spec(spec):
    _, game, axes, fixed, columns = spec
    return cli.SweepSpec(
        game=game,
        axes=tuple(cli.SweepAxis(*axis) for axis in axes),
        fixed=dict(fixed),
        columns=tuple(columns.split(",")),
    )


def run_exact(point):
    """Everything acceptance criteria 1 and 4 check, without Monte Carlo."""
    params = make_params(point)
    profile = build(params)
    ex_ante = games.ex_ante_payoff(profile, params.valuation_matrix, params.prior)
    if isinstance(params, blotto2.BlottoParams):
        gaps = oracle.blotto_deviation_gaps(profile, params)
        res_u, res_i = oracle.blotto_budget_residuals(profile, params)
    else:
        gaps = oracle.lotto_support_optimality(profile, params)
        res_u, res_i = oracle.lotto_budget_residuals(profile, params)
    return closed_form(params), ex_ante, gaps.worst(), max(res_u, *res_i)


def check_exact(result):
    claimed, ex_ante, gap, residual = result
    problems = []
    if not abs(ex_ante - claimed) <= CROSS_METHOD_TOL:
        problems.append(f"ex_ante {ex_ante!r} != closed form {claimed!r}")
    if not gap <= oracle.EPS_DEVIATION:
        problems.append(f"deviation gap {gap:.3g} > {oracle.EPS_DEVIATION:g}")
    if not residual <= oracle.EPS_BUDGET:
        problems.append(f"budget residual {residual:.3g} > {oracle.EPS_BUDGET:g}")
    return "; ".join(problems) or None


def run_certify(point):
    """What ``infoblotto verify`` runs: default grid, samples and seed."""
    params = make_params(point)
    return closed_form(params), oracle.certify(build(params), params)


def z_score(mean, std_error, claimed):
    if std_error > 0.0:
        return abs(mean - claimed) / std_error
    return 0.0 if mean == claimed else math.inf


def check_certify(result):
    claimed, cert = result
    problems = []
    if not cert.passed:
        gap = max(cert.deviation_gap_uninformed, *cert.deviation_gaps_informed)
        residual = max(cert.budget_residual_uninformed, *cert.budget_residuals_informed)
        z = z_score(cert.mc_mean, cert.mc_std_error, cert.claimed_value)
        if not gap <= oracle.EPS_DEVIATION:
            problems.append(f"deviation gap {gap:.3g} > {oracle.EPS_DEVIATION:g}")
        if not residual <= oracle.EPS_BUDGET:
            problems.append(f"budget residual {residual:.3g} > {oracle.EPS_BUDGET:g}")
        if not z <= MC_Z_TOL:
            problems.append(f"mc z {z:.3g} > {MC_Z_TOL:g}")
        problems.insert(0, "certificate failed")
    if cert.claimed_value != claimed:
        problems.append(f"claimed_value {cert.claimed_value!r} != closed form {claimed!r}")
    return "; ".join(problems) or None


def failure_text(exc):
    return f"{type(exc).__name__}: {exc}"


def failure_signature(reason):
    """``reason`` with its numbers masked: the exception type and message,
    or the checks that failed, without the measured values."""
    return _NUMBER.sub("#", reason)


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


class SurfaceWorkload:
    """Closed-form sweeps through ``cli.sweep_table``."""

    name = "surface"

    def __init__(self, expected):
        self.digests = expected["digests"]

    def op_groups(self, seed):
        """Every spec of the catalogue once; the seed orders them."""
        specs = list(inputs.SURFACE_SPECS)
        random.Random(seed).shuffle(specs)
        return [(Op("sweep", spec[0], {"game": spec[1], "spec": spec[0]}, spec),) for spec in specs]

    def execute(self, op):
        header, rows = cli.sweep_table(make_sweep_spec(op.payload))
        return csv_text(header, rows)

    def check(self, op, text):
        return check_csv(text, self.digests[op.key])

    def points(self, op):
        return inputs.sweep_points(op.payload)

    def close(self):
        pass


class _PointWorkload:
    kind = ""
    blocks = 1  # blocks of twelve points, one point of every cell each

    def __init__(self, expected):
        self.pools = inputs.build_pools()

    def op_groups(self, seed):
        stream = inputs.point_stream(self.pools, random.Random(seed))
        groups = []
        for _ in range(12 * self.blocks):
            point, props = next(stream)
            groups.append((Op(self.kind, inputs.point_key(point), props, point),))
        return groups

    def points(self, op):
        return 1

    def close(self):
        pass


class ExactWorkload(_PointWorkload):
    """Build one equilibrium and run the Monte-Carlo-free oracle checks."""

    name = kind = "exact"
    blocks = 60

    def execute(self, op):
        return run_exact(op.payload)

    def check(self, op, result):
        return check_exact(result)


class CertifyWorkload(_PointWorkload):
    """Build one equilibrium and run the full default ``oracle.certify``."""

    name = kind = "certify"
    blocks = 5

    def execute(self, op):
        return run_certify(op.payload)

    def check(self, op, result):
        return check_certify(result)


# ---------------------------------------------------------------------------
# CLI workload: whole processes of the entry point
# ---------------------------------------------------------------------------

# Point ops of one list, the same for each game: payoff on one point of
# each of its six cells, strategy then verify on three points, simulate
# (about 1 s a process) on one.  The shares are chosen, not measured from
# usage: payoff is the cheapest way to a number, strategy+verify is two
# processes, simulate the slowest.  Equal per game, so that the seed does
# not decide which game the slow and the largest processes run.  Every CLI
# sweep and every contract probe is also in the list once, so each run
# checks every recorded sweep file and the whole exit-code contract.
CLI_POINT_OPS = ((("payoff",), 6), (("strategy", "verify"), 3), (("simulate",), 1))


class CliWorkload:
    """Subcommands of ``python -m infoblotto.cli`` run one after another."""

    name = "cli"

    def __init__(self, expected, root, env, tmp):
        self.digests = expected["digests"]
        self.pools = inputs.cli_pools(inputs.build_pools())
        self.root = root
        self.env = env
        self.tmp = tmp
        # argv after the interpreter that starts the entry point; the traced
        # run swaps in tracechild.py
        self.runner = ["-m", "infoblotto.cli"]
        os.makedirs(tmp, exist_ok=True)
        with open(os.path.join(tmp, "malformed.json"), "w") as handle:
            handle.write('{"game": "lotto3", "params": {')
        self.python = sys.executable

    def close(self):
        for name in os.listdir(self.tmp):
            os.remove(os.path.join(self.tmp, name))
        os.rmdir(self.tmp)

    def op_groups(self, seed):
        rng = random.Random(seed)
        groups = []
        for game in ("blotto2", "lotto3"):
            cells = {cell: pool for cell, pool in self.pools.items() if cell[0] == game}
            stream = inputs.point_stream(cells, rng)
            for kinds, count in CLI_POINT_OPS:
                for _ in range(count):
                    point, props = next(stream)
                    key = inputs.point_key(point)
                    groups.append(tuple(Op(k, key, dict(props, op=k), point) for k in kinds))
        groups += [
            (Op("sweep", spec[0], {"op": "sweep", "game": spec[1]}, spec),)
            for spec in inputs.CLI_SWEEP_SPECS
        ]
        groups += [(Op("probe", probe[0], {"op": "probe"}, probe),) for probe in inputs.CLI_PROBES]
        return groups

    def argv(self, op):
        tmp = self.tmp
        if op.kind == "probe":
            return [a.replace("{tmp}", tmp) for a in op.payload[1]]
        if op.kind == "sweep":
            return ["sweep"] + inputs.sweep_args(op.payload) + ["--out", f"{tmp}/sweep.csv"]
        point_args = inputs.point_args(op.payload)
        strategy_file = os.path.join(tmp, "strategy.json")
        if op.kind == "strategy":
            if os.path.exists(strategy_file):
                os.remove(strategy_file)
            return ["strategy"] + point_args + ["--out", strategy_file]
        if op.kind == "verify" and os.path.exists(strategy_file):
            return ["verify", "--strategy", strategy_file]
        return [op.kind] + point_args

    def execute(self, op):
        argv = self.argv(op)
        proc = subprocess.run(
            [self.python] + self.runner + argv,
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op, result):
        code, out, err = result
        if op.kind == "probe":
            expected = op.payload[2]
            if code != expected:
                tail = (err.strip().splitlines() or out.strip().splitlines() or [""])[-1]
                return f"exit {code}, expected {expected} ({tail[:120]})"
            return None
        if code != 0:
            tail = (err.strip().splitlines() or out.strip().splitlines() or [""])[-1]
            return f"exit {code}, expected 0 ({tail[:120]})"
        if op.kind == "sweep":
            with open(f"{self.tmp}/sweep.csv") as handle:
                return check_csv(handle.read(), self.digests[op.key])
        if op.kind == "strategy":
            return None
        got = dict(
            line.split(" = ", 1) for line in out.splitlines() if " = " in line
        )
        want = self.expected_lines(op)
        for name, value in want.items():
            if got.get(name) != value:
                return f"{name} = {got.get(name)}, want {value}"
        if op.kind == "simulate":
            z = z_score(float(got["mc_mean"]), float(got["mc_std_error"]), float(got["closed_form"]))
            if not z <= MC_Z_TOL:
                return f"mc z {z:.3g} > {MC_Z_TOL:g}"
        return None

    def expected_lines(self, op):
        params = make_params(op.payload)
        claimed = closed_form(params)
        if op.kind == "verify":
            return {"claimed_value": fmt(claimed), "passed": "true"}
        if op.kind == "simulate":
            return {"closed_form": fmt(claimed)}
        if isinstance(params, blotto2.BlottoParams):
            q = blotto2.BlottoIndex.from_params(params).q
            baseline = blotto2.gross_wagner_payoff(q)
            return {
                "pi_informed": fmt(claimed),
                "q": str(q),
                "baseline": fmt(baseline),
                "voi": fmt(claimed - baseline),
            }
        baseline = lotto3.complete_info_baseline(params.gamma)
        lam_i, lam_u = lotto3.multipliers(
            params.alpha, params.beta, params.gamma, params.budget_uninformed
        )
        return {
            "pi_informed": fmt(claimed),
            "regime": lotto3.regime_of(params.gamma),
            "lambda_informed": fmt(lam_i),
            "lambda_uninformed": fmt(lam_u),
            "info_gain": fmt(claimed - baseline),
        }

    def points(self, op):
        return inputs.sweep_points(op.payload) if op.kind == "sweep" else 1


def known_key(op):
    """Key of ``op``'s input in the recorded failures of ``data/expected.json``."""
    return f"{op.kind}|{op.key}"


def is_known(op, reason, known):
    """Whether ``op`` failed as recorded: same input, same kind of failure."""
    recorded = known.get(known_key(op))
    return recorded is not None and failure_signature(recorded) == failure_signature(reason)
