"""Independent verification of constructed equilibria.

Nothing here reuses the closed-form constructions' internals: deviations are
checked as pure allocations against the opponent's marginals, budget
feasibility is recomputed from the marginals, and the game value is
recomputed exactly from the marginals by ``games.ex_ante_payoff``.  Opponent
CDFs are steps plus ramps, so every deviation payoff is piecewise constant
(Blotto) or piecewise linear (Lotto) between the opponent's breakpoints, and
its supremum is found exactly by evaluating a finite list of points: no
grid, no tuning.  Every payoff reads the one point query
``PiecewiseCdf.masses`` in plain Python floats, each caller with its own
tie rule; a Blotto scan takes every type's interim payoff from one
``games.interim_payoffs`` call, so it takes O(q log q) for O(q) lattice
atoms, and ``certify`` prices those payoffs once for the scan and the
value.  The seeded Monte Carlo estimate ``monte_carlo_value`` (``infoblotto
simulate``) is the only part that loads numpy, and no verdict reads it; it
keeps a count per sampled payoff value, not a payoff per sample, so its
memory does not grow with the sample count, and its mean and variance are
exact sums rounded once.

Each distinct quantity is evaluated once, and nothing is kept between
calls.  The Lotto scan and ``games.interim_payoffs`` (which
``ex_ante_payoff`` sums) memo their work in dicts that live for the call,
keyed by the identity of the marginals, which the profile holds for the
call; params objects and marginals build their derived tables once
(``functools.cached_property``).  Only immutability is trusted: no field
of either is assigned after its constructor, so a cached value is what a
fresh evaluation gives.  The Blotto budget check trusts no reflection: it
compares each battlefield-2 atom with X - x of its battlefield-1 atom, so
an atom past the budget is a budget residual.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import games
from .distributions import MASS_TOL
from .games import StrategyProfile, expected_budget, pure_deviation_payoff

EPS_DEVIATION = 1e-6
EPS_BUDGET = 1e-9


class DeviationGaps(namedtuple("DeviationGaps", "uninformed informed")):
    """Best deviation improvement (Blotto) or support slack (Lotto) of the
    uninformed player and of each informed type; ~0 at equilibrium."""

    __slots__ = ()

    def worst(self):
        return max(self.uninformed, *self.informed)


# ---------------------------------------------------------------------------
# Colonel Blotto: pure deviations respect the hard budget, so a deviation is
# one number per player (battlefield 1 gets x, battlefield 2 the rest)
# ---------------------------------------------------------------------------


def _step_candidates(breakpoints, budget):
    """Allocations in [0, budget] that meet every value of a step function
    jumping only at ``breakpoints``: both ends and the midpoint between each
    pair of consecutive breakpoints.  The value at a breakpoint is the mean
    of its one-sided limits, so it never exceeds the best midpoint.
    Breakpoints within ``MASS_TOL * budget`` of each other are one location
    computed two ways, such as (k+1)*d and X_U - (X_I - k*d), and are merged
    so that rounding cannot open a spurious interval between them."""
    pts = sorted({min(max(p, 0.0), budget) for p in (0.0, budget, *breakpoints)})
    pts = pts[:1] + [b for a, b in zip(pts, pts[1:]) if b - a > MASS_TOL * budget]
    # a + b would overflow near the largest float
    return [0.0, budget] + [a + (b - a) / 2.0 for a, b in zip(pts, pts[1:])]


def _split_payoffs(xs, budget, f1, f2):
    """Pure-deviation payoffs on (battlefield 1, battlefield 2) of each
    allocation x in ``xs``, battlefield 2 getting ``budget - x``."""
    pdp = pure_deviation_payoff
    return [(pdp(x, f1), pdp(budget - x, f2)) for x in xs]


def blotto_deviation_gaps(
    profile: StrategyProfile, params: blotto2.BlottoParams, interim=None
) -> DeviationGaps:
    """Best pure-deviation improvement for each player/type against the
    other side of ``profile``; nonnegative up to rounding, ~0 at equilibrium.
    ``interim`` is the profile's ``games.interim_payoffs``, priced here when
    the caller has none (``certify`` prices them once for the scan and the
    value)."""
    if any(f.segments for row in (*profile.informed, profile.uninformed) for f in row):
        raise ValueError("Blotto deviation scan requires atomic marginals")

    values = params.valuation_matrix
    prior = params.prior
    if interim is None:
        # each type's payoff in profile, in one call that checks the dimensions
        interim = games.interim_payoffs(profile, values, prior)
    value_u = -math.fsum(w * v for w, v in zip(prior.weights, interim))
    x_i, x_u = params.budget_informed, params.budget_uninformed

    bps = set()
    for f1, f2 in profile.informed:
        bps.update(loc for loc, _ in f1.atoms)
        bps.update(x_u - loc for loc, _ in f2.atoms)
    xs = _step_candidates(bps, x_u)
    pay_u = [0.0] * len(xs)
    for weight, (v1, v2), (f1, f2) in zip(prior.weights, values.values, profile.informed):
        dev = _split_payoffs(xs, x_u, f1, f2)
        pay_u = [pay + weight * (v1 * d1 + v2 * d2) for pay, (d1, d2) in zip(pay_u, dev)]
    gap_u = max(pay_u) - value_u

    g1, g2 = profile.uninformed
    bps = {loc for loc, _ in g1.atoms}
    bps.update(x_i - loc for loc, _ in g2.atoms)
    dev = _split_payoffs(_step_candidates(bps, x_i), x_i, g1, g2)
    gaps_i = tuple(
        max(v1 * d1 + v2 * d2 for d1, d2 in dev) - value_i
        for value_i, (v1, v2) in zip(interim, values.values)
    )
    return DeviationGaps(uninformed=gap_u, informed=gaps_i)


# ---------------------------------------------------------------------------
# General Lotto: with the budget priced by its multiplier, each battlefield
# is an independent all-pay auction; optimality means the priced payoff is
# maximal exactly on the support of the player's marginal
# ---------------------------------------------------------------------------


def _priced_payoff(x, terms):
    # (left limit, tie-split value, right limit) at x of -x - sum(w P(X >= x)),
    # the priced payoff less its constant sum(w) (see lotto_support_optimality);
    # the right limit is seen from inside a support segment starting at x, the
    # left limit from inside one ending at x
    left = mid = right = -x
    for weight, f in terms:
        _, at, above = f.masses(x)
        left -= weight * (above + at)
        mid -= weight * (above + 0.5 * at)
        right -= weight * above
    return left, mid, right


def _support_slack(own, terms):
    """max(off-support excess over the support value, on-support spread) of
    the priced all-pay payoff for one marginal.

    The payoff is linear between breakpoints and has slope -1 past the last
    one, so its supremum is a one-sided limit at 0 or at a breakpoint; every
    on-support value is read at one of those points, each priced once."""
    opp_bps = sorted({p for _, f in terms for p in f.breakpoints()})
    priced = {x: _priced_payoff(x, terms) for x in {0.0, *opp_bps, *own.breakpoints()}}
    on_vals = [priced[loc][1] for loc, _ in own.atoms]
    for left, right, _ in own.segments:
        on_vals += [priced[left][2], priced[right][0]]
        on_vals += [priced[p][k] for p in opp_bps if left < p < right for k in (0, 2)]
    off_max = max(max(lim_l, lim_r) for lim_l, _, lim_r in priced.values())
    return max(off_max - max(on_vals), max(on_vals) - min(on_vals))


def lotto_support_optimality(
    profile: StrategyProfile, params: lotto3.LottoParams, interim=None
) -> DeviationGaps:
    """All-pay-auction support optimality of every marginal in ``profile``.
    ``interim``, the interim payoffs ``certify`` passes every scan, is not
    read: no Lotto slack depends on them.

    For informed type i on battlefield j the priced payoff is
    ``(2 v_ij p_i / lambda_I) F_U(x) - x``; for the uninformed player it is
    the prior mixture ``sum_i p_i (2 v_ij / lambda_U) F_I(t_i)(x) - x``.
    Each is evaluated less its constant sum of weights, as ``-x - sum w S(x)``
    with S the ``above`` (plus ``at``) of ``PiecewiseCdf.masses``: the
    uninformed weights grow as 1/gamma while F_I is near 1, so the CDF form
    would round every value at ulp(1/gamma).  Both are in budget units, so
    each slack is reported as a fraction of X_U: the game depends on the
    budgets only through gamma.

    Each distinct (marginal, priced opponent terms) pair is scanned once per
    call, keyed by the marginals' identity and the weights' values: a built
    Lotto profile holds 4 distinct marginals in its 12 slots, so 6 scans
    serve its 12 slots.  A scan reads nothing but its marginal and terms,
    so each slot's slack is the one scanning that slot gives.
    """
    from . import lotto3  # loaded with the params; read at each call

    lam_i, lam_u = lotto3.multipliers(
        params.alpha, params.beta, params.gamma, params.budget_uninformed
    )
    vals = params.valuation_matrix.values
    weights = params.prior.weights
    scanned = {}

    def slack(own, terms):
        key = id(own), *((w, id(f)) for w, f in terms)
        if key not in scanned:
            scanned[key] = _support_slack(own, terms)
        return scanned[key]

    slack_u = 0.0
    slacks_i = [0.0] * profile.m
    for j in range(profile.n):
        for i in range(profile.m):
            terms = [(2.0 * vals[i][j] * weights[i] / lam_i, profile.uninformed[j])]
            slacks_i[i] = max(slacks_i[i], slack(profile.informed[i][j], terms))
        terms = [
            (2.0 * vals[i][j] * weights[i] / lam_u, profile.informed[i][j])
            for i in range(profile.m)
        ]
        slack_u = max(slack_u, slack(profile.uninformed[j], terms))
    x_u = params.budget_uninformed
    return DeviationGaps(slack_u / x_u, tuple(slack / x_u for slack in slacks_i))


# ---------------------------------------------------------------------------
# Budget residuals
# ---------------------------------------------------------------------------


def lotto_budget_residuals(profile: StrategyProfile, params: lotto3.LottoParams):
    """(uninformed residual, per-type informed residuals) of the
    expected-budget constraints, as fractions of X_U.  A marginal keeps its
    mean, so a built profile sums 4 means for its 12 slots."""
    x_u = params.budget_uninformed
    x_i = params.gamma * x_u
    res_u = abs(expected_budget(profile.uninformed) - x_u) / x_u
    res_i = tuple(abs(expected_budget(row) - x_i) / x_u for row in profile.informed)
    return res_u, res_i


def _reflection_mismatch(f_first, f_second, budget, unit):
    # budget - x of each atom of f_first, read from the right, against the
    # atoms of f_second; locations in units of ``unit``, masses as they are
    if f_first.segments or f_second.segments or len(f_first.atoms) != len(f_second.atoms):
        return 1.0  # the whole mass is unmatched
    return max(
        max(abs((budget - la) - lb) / unit, abs(ma - mb))
        for (la, ma), (lb, mb) in zip(reversed(f_first.atoms), f_second.atoms)
    )


def blotto_budget_residuals(profile: StrategyProfile, params: blotto2.BlottoParams):
    """Hard-budget check: battlefield 2 must be the exact budget complement
    of battlefield 1 for every player/type.  Location mismatches are
    fractions of X_U; mass mismatches are probabilities.  Each battlefield-2
    atom is compared with X - x of its battlefield-1 atom directly, so no
    reflected marginal is built: a battlefield-1 atom past the budget X is a
    residual like any other, not a malformed marginal.  A segment, or atom
    counts that differ, is no complement: a residual of 1, the whole mass."""
    x_i, x_u = params.budget_informed, params.budget_uninformed
    res_u = _reflection_mismatch(profile.uninformed[0], profile.uninformed[1], x_u, x_u)
    res_i = tuple(
        _reflection_mismatch(row[0], row[1], x_i, x_u) for row in profile.informed
    )
    return res_u, res_i


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


# samples scored at a time: on a 2-vCPU host 2^14 ran about as fast as 2^13
# and 2^15, and a simulate process peaked 3 MB lower than with 2^15
_CHUNK = 1 << 14


def monte_carlo_value(profile, values, prior, samples, seed):
    """Unbiased (mean, standard error) estimate of the informed player's
    ex-ante payoff, in memory that does not grow with ``samples``.  Draws
    are exchangeable, so the state counts are drawn first; then, state by
    state, each sample reads one row of uniforms: battlefield by
    battlefield, one for each of its two marginals that is not one atom,
    informed first, ``_CHUNK`` rows at a time as one ``(size, k)`` block
    from the call's one Philox.  The stream is read front to back, a
    sample to a row, so the chunk size changes no number.  Battlefield j
    is scored ``v * ([x > y] - [x < y])``, the floats ``v * sign(x - y)``
    gave, and a sample's payoff is their sum from 0.0; between atoms-only
    marginals y is never sampled: its uniform is compared with the
    ``PiecewiseCdf.thresholds`` of x's atom.  A payoff takes few values
    (each battlefield scores -v, 0 or v), so each chunk is reduced to a
    count per value, and the mean and variance are exact rational sums over
    those counts, each rounded once.  A sample count numpy cannot draw,
    2^63 or more, is refused with ``ValueError``."""
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    if samples >= 1 << 63:
        # numpy draws the state counts as signed 64-bit integers
        raise ValueError(f"{samples} Monte Carlo samples are more than numpy draws: "
                         "the count must be below 2^63")
    games._check_dimensions(profile, values, prior)
    import numpy as np
    rng = np.random.Generator(np.random.Philox(seed))
    counts = rng.multinomial(samples, prior.weights).tolist()
    tally = {}  # payoff value -> samples that scored it
    for vals, row, count in zip(values.values, profile.informed, counts):
        # each battlefield's columns of the row: a one-atom marginal's
        # quantile is its location, so it reads no uniform (None)
        plan, width = [], 0
        for v, f, g in zip(vals, row, profile.uninformed):
            cols = []
            for h in (f, g):
                reads = bool(h.segments) or len(h.atoms) > 1
                cols.append(width if reads else None)
                width += reads
            atoms_only = not (f.segments or g.segments)
            cuts = g.thresholds([loc for loc, _ in f.atoms]) if atoms_only else None
            plan.append((v, f, g, *cols, cuts))
        for lo in range(0, count, _CHUNK):
            u = rng.random((min(_CHUNK, count - lo), width))
            payoff = np.zeros(len(u))
            for v, f, g, col_f, col_g, cuts in plan:
                # the informed column made contiguous: component passes over
                # it once per component; the uniform 0.0 stands for no read
                a = 0.0 if col_f is None else np.ascontiguousarray(u[:, col_f])
                b = 0.0 if col_g is None else u[:, col_g]
                if cuts is not None:
                    i = 0 if col_f is None else f.component(a)
                    above, below = np.less(b, cuts[0][i]), np.greater_equal(b, cuts[1][i])
                else:
                    x, y = f.ppf(a), g.ppf(b)
                    above, below = np.greater(x, y), np.less(x, y)
                score = above.view(np.int8)
                score -= below.view(np.int8)
                payoff += score * v
            scored, times = np.unique(payoff, return_counts=True)
            for value, n in zip(scored.tolist(), times.tolist()):
                tally[value] = tally.get(value, 0) + n
    return _mean_and_error(tally, samples)


def _mean_and_error(tally, samples):
    # mean and standard error of the payoffs counted in ``tally`` from exact
    # rational sums; the variance of the mean is rounded once in units of
    # 4^e, 2^e above every |payoff|, so that it neither overflows nor
    # underflows where the error itself would not
    from fractions import Fraction
    total = sum(Fraction(value) * n for value, n in tally.items())
    mean = float(total / samples)
    if samples == 1:
        return mean, 0.0
    squares = sum(Fraction(value) ** 2 * n for value, n in tally.items())
    var_of_mean = (samples * squares - total * total) / (samples * samples * (samples - 1))
    e = math.frexp(max(map(abs, tally)))[1]
    return mean, math.ldexp(math.sqrt(var_of_mean * Fraction(4) ** -e), e)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


class Certificate(namedtuple("Certificate", [
    "game", "claimed_value", "eps_deviation", "eps_budget",
    "deviation_gap_uninformed", "deviation_gaps_informed",
    "budget_residual_uninformed", "budget_residuals_informed",
    "value_residual", "passed",
])):
    """Outcome of all oracle checks on one profile.

    ``passed`` is true iff every deviation gap and the value residual
    ``|ex_ante_payoff - claimed_value|`` are at most ``eps_deviation`` and
    every budget residual is at most ``eps_budget``.  Blotto gaps and the
    value residual are in payoff units (absolute: a Blotto value can be as
    small as 1e-300); Lotto slacks and every budget residual are fractions
    of X_U (Blotto reflection masses excepted), so a verdict does not depend
    on the budget scale.  The fields, thresholds first, are what ``verify``
    prints and writes to ``--out``, in this order.
    """

    __slots__ = ()


# each game's scan and budget check, read by name from the module at each call
_CHECKS = {"blotto2": ("blotto_deviation_gaps", "blotto_budget_residuals"),
           "lotto3": ("lotto_support_optimality", "lotto_budget_residuals")}


def certify(profile: StrategyProfile, params) -> Certificate:
    """Run every exact check for ``profile`` against the closed-form value
    implied by ``params`` (``params.claimed_value()``) and assemble a
    Certificate; ``params.game`` picks the checks."""
    claimed = params.claimed_value()
    scan, residuals = (globals()[name] for name in _CHECKS[params.game])
    # priced once for the scan and for the value, the sum ex_ante_payoff takes
    interim = games.interim_payoffs(profile, params.valuation_matrix, params.prior)
    value = math.fsum(w * v for w, v in zip(params.prior.weights, interim))
    gaps = scan(profile, params, interim)
    res_u, res_i = residuals(profile, params)
    value_residual = abs(value - claimed)
    passed = (
        gaps.worst() <= EPS_DEVIATION
        and max(res_u, *res_i) <= EPS_BUDGET
        and value_residual <= EPS_DEVIATION
    )
    return Certificate(
        game=params.game,
        claimed_value=claimed,
        eps_deviation=EPS_DEVIATION,
        eps_budget=EPS_BUDGET,
        deviation_gap_uninformed=gaps.uninformed,
        deviation_gaps_informed=gaps.informed,
        budget_residual_uninformed=res_u,
        budget_residuals_informed=res_i,
        value_residual=value_residual,
        passed=passed,
    )
