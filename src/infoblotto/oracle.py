"""Independent verification of constructed equilibria.

Nothing here reuses the closed-form constructions' internals: deviations are
checked as pure allocations against the opponent's marginals, budget
feasibility is recomputed from the marginals, and the game value is
re-estimated by seeded Monte Carlo.  Opponent CDFs are steps plus ramps, so
every deviation payoff is piecewise constant (Blotto) or piecewise linear
(Lotto) between the opponent's breakpoints, and its supremum is found
exactly by evaluating a finite list of points: no grid, no tuning.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import blotto2, lotto3
from .distributions import MASS_TOL
from .games import StrategyProfile, ex_ante_payoff, expected_budget, interim_payoff

DEFAULT_MC_SAMPLES = 200_000
DEFAULT_SEED = 20240801
EPS_DEVIATION = 1e-6
EPS_BUDGET = 1e-9


def pure_deviation_payoff(x, marginal):
    """E[sgn(x - Y)] for a pure allocation x against marginal Y; ties at
    atoms of Y count zero."""
    return 2.0 * marginal.cdf(x, tie=0.5) - 1.0


@dataclass(frozen=True)
class DeviationGaps:
    """Best deviation improvement (Blotto) or support slack (Lotto) of the
    uninformed player and of each informed type; ~0 at equilibrium."""

    uninformed: float
    informed: tuple[float, ...]

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
    pts = np.unique(np.clip([0.0, budget, *breakpoints], 0.0, budget))
    pts = pts[np.concatenate(([True], np.diff(pts) > MASS_TOL * budget))]
    return np.concatenate(([0.0, budget], (pts[:-1] + pts[1:]) / 2.0))


def blotto_deviation_gaps(
    profile: StrategyProfile, params: blotto2.BlottoParams
) -> DeviationGaps:
    """Best pure-deviation improvement for each player/type against the
    other side of ``profile``; nonnegative up to rounding, ~0 at equilibrium."""
    for row in profile.informed:
        for f in row:
            if f.segments:
                raise ValueError("Blotto deviation scan requires atomic marginals")
    for f in profile.uninformed:
        if f.segments:
            raise ValueError("Blotto deviation scan requires atomic marginals")

    values = params.valuation_matrix
    prior = params.prior
    vals = values.as_array()
    x_i = params.budgets.informed
    x_u = params.budgets.uninformed

    bps = set()
    for i in range(profile.m):
        bps.update(loc for loc, _ in profile.informed[i][0].atoms)
        bps.update(x_u - loc for loc, _ in profile.informed[i][1].atoms)
    xs = _step_candidates(bps, x_u)
    pay_u = np.zeros(xs.shape)
    for i in range(profile.m):
        pay_u += prior.weights[i] * (
            vals[i, 0] * pure_deviation_payoff(xs, profile.informed[i][0])
            + vals[i, 1] * pure_deviation_payoff(x_u - xs, profile.informed[i][1])
        )
    gap_u = float(pay_u.max()) - (-ex_ante_payoff(profile, values, prior))

    gaps_i = []
    bps = {loc for loc, _ in profile.uninformed[0].atoms}
    bps.update(x_i - loc for loc, _ in profile.uninformed[1].atoms)
    xs = _step_candidates(bps, x_i)
    for i in range(profile.m):
        pay_i = vals[i, 0] * pure_deviation_payoff(xs, profile.uninformed[0]) + vals[
            i, 1
        ] * pure_deviation_payoff(x_i - xs, profile.uninformed[1])
        gaps_i.append(float(pay_i.max()) - interim_payoff(profile, values, prior, i))
    return DeviationGaps(uninformed=gap_u, informed=tuple(gaps_i))


# ---------------------------------------------------------------------------
# General Lotto: with the budget priced by its multiplier, each battlefield
# is an independent all-pay auction; optimality means the priced payoff is
# maximal exactly on the support of the player's marginal
# ---------------------------------------------------------------------------


def _priced_payoff(x, terms, tie):
    # tie=1 (right limit) is the value seen from inside a support segment
    # starting at x; tie=0 (left limit) from inside one ending at x
    out = -np.asarray(x, dtype=float)
    for weight, f in terms:
        out = out + weight * f.cdf(x, tie)
    return out


def _support_slack(own, terms):
    """max(off-support excess over the support value, on-support spread) of
    the priced all-pay payoff for one marginal.

    The payoff is linear between breakpoints and has slope -1 past the last
    one, so its supremum is a one-sided limit at 0 or at a breakpoint."""
    opp_bps = sorted({p for _, f in terms for p in f.breakpoints()})
    on_vals = [float(_priced_payoff(loc, terms, 0.5)) for loc, _ in own.atoms]
    for left, right, _ in own.segments:
        on_vals.append(float(_priced_payoff(left, terms, 1.0)))
        on_vals.append(float(_priced_payoff(right, terms, 0.0)))
        for p in opp_bps:
            if left < p < right:
                on_vals.append(float(_priced_payoff(p, terms, 0.0)))
                on_vals.append(float(_priced_payoff(p, terms, 1.0)))
    xs = np.unique([0.0, *opp_bps, *own.breakpoints()])
    off_max = max(float(_priced_payoff(xs, terms, tie).max()) for tie in (0.0, 1.0))
    return max(off_max - max(on_vals), max(on_vals) - min(on_vals))


def lotto_support_optimality(
    profile: StrategyProfile,
    params: lotto3.LottoParams,
    lambdas: tuple[float, float] | None = None,
) -> DeviationGaps:
    """All-pay-auction support optimality of every marginal in ``profile``.

    For informed type i on battlefield j the priced payoff is
    ``(2 v_ij p_i / lambda_I) F_U(x) - x``; for the uninformed player it is
    the prior mixture ``sum_i p_i (2 v_ij / lambda_U) F_I(t_i)(x) - x``.
    """
    if lambdas is None:
        lambdas = lotto3.multipliers(
            params.alpha, params.beta, params.gamma, params.budget_uninformed
        )
    lam_i, lam_u = lambdas
    if lam_i <= 0.0 or lam_u <= 0.0:
        raise ValueError("multipliers must be positive")
    values = params.valuation_matrix
    prior = params.prior
    vals = values.as_array()

    slack_u = 0.0
    slacks_i = [0.0] * profile.m
    for j in range(profile.n):
        for i in range(profile.m):
            terms = [(2.0 * vals[i, j] * prior.weights[i] / lam_i, profile.uninformed[j])]
            slack = _support_slack(profile.informed[i][j], terms)
            slacks_i[i] = max(slacks_i[i], slack)
        terms = [
            (2.0 * vals[i, j] * prior.weights[i] / lam_u, profile.informed[i][j])
            for i in range(profile.m)
        ]
        slack_u = max(slack_u, _support_slack(profile.uninformed[j], terms))
    return DeviationGaps(uninformed=slack_u, informed=tuple(slacks_i))


# ---------------------------------------------------------------------------
# Budget residuals
# ---------------------------------------------------------------------------


def lotto_budget_residuals(profile: StrategyProfile, params: lotto3.LottoParams):
    """(uninformed residual, per-type informed residuals) of the
    expected-budget constraints."""
    res_u = abs(expected_budget(profile.uninformed) - params.budgets.uninformed)
    res_i = tuple(
        abs(expected_budget(row) - params.budgets.informed) for row in profile.informed
    )
    return res_u, res_i


def _reflection_mismatch(f_first, f_second, budget):
    mirrored = f_first.reflect(budget)
    if len(mirrored.atoms) != len(f_second.atoms) or f_second.segments:
        return math.inf
    return max(
        max(abs(la - lb), abs(ma - mb))
        for (la, ma), (lb, mb) in zip(mirrored.atoms, f_second.atoms)
    )


def blotto_budget_residuals(profile: StrategyProfile, params: blotto2.BlottoParams):
    """Hard-budget check: battlefield 2 must be the exact budget complement
    of battlefield 1 for every player/type."""
    x_i = params.budgets.informed
    x_u = params.budgets.uninformed
    res_u = _reflection_mismatch(profile.uninformed[0], profile.uninformed[1], x_u)
    res_i = tuple(
        _reflection_mismatch(row[0], row[1], x_i) for row in profile.informed
    )
    return res_u, res_i


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def monte_carlo_value(profile, values, prior, samples, seed):
    """Unbiased (mean, standard error) estimate of the informed player's
    ex-ante payoff.  Draws are exchangeable, so the state counts are drawn
    first and each state's allocations are then sampled as one block.  Philox
    is counter-based: results are bit-identical for a fixed seed, though a
    seed's numbers differ from the first 0.1.0 release, which drew a state
    per sample."""
    if samples < 1:
        raise ValueError(f"sample count must be >= 1, got {samples}")
    rng = np.random.Generator(np.random.Philox(seed))
    vals = values.as_array()
    payoff = []
    for i, count in enumerate(rng.multinomial(samples, prior.weights)):
        u_inf, u_unin = rng.random((2, values.n, count))
        x_inf = [f.ppf(u) for f, u in zip(profile.informed[i], u_inf)]
        x_unin = [f.ppf(u) for f, u in zip(profile.uninformed, u_unin)]
        payoff.append(vals[i] @ np.sign(np.subtract(x_inf, x_unin)))
    payoff = np.concatenate(payoff)
    mean = float(payoff.mean())
    std_error = float(payoff.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return mean, std_error


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Outcome of all oracle checks on one profile.

    ``passed`` is true iff every deviation gap is at most ``eps_deviation``,
    every budget residual at most ``eps_budget``, and the Monte Carlo mean
    lies within four standard errors of the claimed closed-form value.
    """

    game: str
    claimed_value: float
    deviation_gap_uninformed: float
    deviation_gaps_informed: tuple[float, ...]
    budget_residual_uninformed: float
    budget_residuals_informed: tuple[float, ...]
    mc_mean: float
    mc_std_error: float
    mc_samples: int
    eps_deviation: float
    eps_budget: float
    passed: bool

    def to_dict(self):
        return asdict(self)

    @staticmethod
    def from_dict(data):
        return Certificate(
            **{key: tuple(v) if isinstance(v, list) else v for key, v in data.items()}
        )


def certify(
    profile: StrategyProfile,
    params,
    samples=DEFAULT_MC_SAMPLES,
    seed=DEFAULT_SEED,
    eps_deviation=EPS_DEVIATION,
    eps_budget=EPS_BUDGET,
) -> Certificate:
    """Run every applicable check for ``profile`` against the closed-form
    value implied by ``params`` and assemble a Certificate."""
    if isinstance(params, blotto2.BlottoParams):
        game = "blotto2"
        claimed = blotto2.informed_payoff(params)
        gaps = blotto_deviation_gaps(profile, params)
        res_u, res_i = blotto_budget_residuals(profile, params)
    elif isinstance(params, lotto3.LottoParams):
        game = "lotto3"
        claimed = lotto3.informed_payoff(params.alpha, params.beta, params.gamma)
        gaps = lotto_support_optimality(profile, params)
        res_u, res_i = lotto_budget_residuals(profile, params)
    else:
        raise TypeError(f"unsupported params type: {type(params).__name__}")

    mc_mean, mc_se = monte_carlo_value(
        profile, params.valuation_matrix, params.prior, samples, seed
    )
    passed = (
        gaps.worst() <= eps_deviation
        and max(res_u, *res_i) <= eps_budget
        and abs(mc_mean - claimed) <= 4.0 * mc_se
    )
    return Certificate(
        game=game,
        claimed_value=claimed,
        deviation_gap_uninformed=gaps.uninformed,
        deviation_gaps_informed=gaps.informed,
        budget_residual_uninformed=res_u,
        budget_residuals_informed=res_i,
        mc_mean=mc_mean,
        mc_std_error=mc_se,
        mc_samples=samples,
        eps_deviation=eps_deviation,
        eps_budget=eps_budget,
        passed=passed,
    )
