import dataclasses

import numpy as np
import pytest

from infoblotto import (
    PiecewiseCdf,
    Prior,
    StrategyProfile,
    ValuationMatrix,
    ex_ante_payoff,
    interim_payoff,
)
from infoblotto.blotto2 import BlottoParams, build_equilibrium as build_blotto
from infoblotto.lotto3 import LottoParams, build_equilibrium as build_lotto, multipliers, solve
from infoblotto.oracle import (
    Certificate,
    blotto_deviation_gaps,
    blotto_budget_residuals,
    certify,
    lotto_budget_residuals,
    lotto_support_optimality,
    monte_carlo_value,
    pure_deviation_payoff,
)

BLOTTO = BlottoParams.from_ratio(1.0, 0.5, 0.7, 10.0)


def perturbed_blotto_profile(delta=0.05):
    """Equilibrium profile with the uninformed lattice reweighted; still a
    valid Blotto strategy (battlefield 2 stays the budget complement)."""
    profile = build_blotto(BLOTTO)
    atoms = list(profile.uninformed[0].atoms)
    loc0, mass0 = atoms[0]
    atoms[0] = (loc0, mass0 + delta)
    total = sum(m for _, m in atoms)
    bumped = PiecewiseCdf(atoms=tuple((loc, m / total) for loc, m in atoms))
    return StrategyProfile(
        informed=profile.informed,
        uninformed=(bumped, bumped.reflect(BLOTTO.budgets.uninformed)),
    )


class TestBlottoDeviations:
    def test_equilibrium_gaps_are_tiny(self):
        profile = build_blotto(BLOTTO)
        gaps = blotto_deviation_gaps(profile, BLOTTO)
        assert gaps.worst() <= 1e-9
        assert gaps.uninformed >= -1e-12
        assert all(g >= -1e-12 for g in gaps.informed)

    def test_centered_atom_defense(self):
        # uninformed mass point at X_U/2 against the equilibrium informed
        # strategies: gaps stay nonnegative, and the informed side now has a
        # profitable deviation because the opponent is predictable
        profile = build_blotto(BLOTTO)
        half = PiecewiseCdf.point(BLOTTO.budgets.uninformed / 2.0)
        atom_profile = StrategyProfile(
            informed=profile.informed,
            uninformed=(half, half.reflect(BLOTTO.budgets.uninformed)),
        )
        gaps = blotto_deviation_gaps(atom_profile, BLOTTO)
        assert gaps.uninformed >= -1e-12
        assert all(g >= -1e-12 for g in gaps.informed)
        assert max(gaps.informed) > 0.1

    def test_perturbed_profile_detected(self):
        gaps = blotto_deviation_gaps(perturbed_blotto_profile(), BLOTTO)
        assert gaps.worst() > 1e-3

    def test_requires_atomic_marginals(self):
        params = LottoParams(0.5, 0.5, 0.7)
        with pytest.raises(ValueError):
            blotto_deviation_gaps(build_lotto(params), BLOTTO)

    def test_budget_residuals(self):
        profile = build_blotto(BLOTTO)
        res_u, res_i = blotto_budget_residuals(profile, BLOTTO)
        assert res_u <= 1e-12
        assert max(res_i) <= 1e-12

    def test_budget_residuals_catch_broken_complement(self):
        # e = 1.5 makes the uninformed lattice asymmetric, so reusing the
        # battlefield-1 marginal on battlefield 2 violates the complement
        profile = build_blotto(BLOTTO, e=1.5)
        broken = StrategyProfile(
            informed=profile.informed,
            uninformed=(profile.uninformed[0], profile.uninformed[0]),
        )
        res_u, _ = blotto_budget_residuals(broken, BLOTTO)
        assert res_u > 1e-3


class TestLottoSupportOptimality:
    @pytest.mark.parametrize(
        "alpha,beta,gamma",
        [(0.5, 0.5, 0.2), (0.5, 0.5, 0.5), (0.6, 0.3, 0.5), (0.6, 0.3, 0.8), (0.5, 0.5, 1.0)],
    )
    def test_equilibrium_slacks_are_tiny(self, alpha, beta, gamma):
        params = LottoParams(alpha, beta, gamma)
        slacks = lotto_support_optimality(build_lotto(params), params)
        assert slacks.worst() <= 1e-9

    def test_regime1_minor_battlefield_is_dominated(self):
        # priced payoff of the alpha-valued battlefield in the low regime:
        # nu * F_U(x) - x <= 0 everywhere, so the atom at zero is optimal
        params = LottoParams(0.5, 0.5, 0.2)
        sol = solve(params)
        nu = 2.0 * (0.5 * params.scale) * (1.0 / 3.0) / sol.lambda_informed
        xs = np.linspace(0.0, 1.2 * sol.f_uninformed.support_max(), 2001)
        priced = nu * sol.f_uninformed.cdf(xs) - xs
        assert priced.max() <= 1e-12
        assert priced[0] == 0.0

    def test_perturbed_multipliers_detected(self):
        params = LottoParams(0.5, 0.5, 0.5)
        profile = build_lotto(params)
        lam_i, lam_u = multipliers(0.5, 0.5, 0.5, 1.0)
        slacks = lotto_support_optimality(profile, params, lambdas=(lam_i * 1.2, lam_u))
        assert slacks.worst() > 1e-3

    def test_budget_residuals(self):
        params = LottoParams(0.6, 0.3, 0.8, 2.0)
        res_u, res_i = lotto_budget_residuals(build_lotto(params), params)
        assert res_u <= 1e-9
        assert max(res_i) <= 1e-9


class TestMonteCarlo:
    def test_deterministic_win_has_zero_error(self):
        profile = StrategyProfile(
            informed=((PiecewiseCdf.point(2.0),),),
            uninformed=(PiecewiseCdf.point(1.0),),
        )
        mean, se = monte_carlo_value(
            profile, ValuationMatrix(((1.0,),)), Prior.uniform(1), 10_000, 5
        )
        assert mean == 1.0
        assert se == 0.0

    def test_seed_reproducibility(self):
        params = LottoParams(0.5, 0.5, 0.2)
        profile = build_lotto(params)
        v, p = params.valuation_matrix, params.prior
        first = monte_carlo_value(profile, v, p, 50_000, 99)
        second = monte_carlo_value(profile, v, p, 50_000, 99)
        assert first == second
        different = monte_carlo_value(profile, v, p, 50_000, 100)
        assert different != first

    def test_blotto_estimate_within_four_sigma(self):
        profile = build_blotto(BLOTTO)
        mean, se = monte_carlo_value(
            profile, BLOTTO.valuation_matrix, BLOTTO.prior, 200_000, 31
        )
        assert abs(mean - (-0.2)) <= 4.0 * se

    def test_lotto_estimate_within_four_sigma(self):
        params = LottoParams(0.5, 0.5, 0.2)
        profile = build_lotto(params)
        mean, se = monte_carlo_value(
            profile, params.valuation_matrix, params.prior, 200_000, 17
        )
        assert abs(mean - (-0.7)) <= 4.0 * se

    def test_non_uniform_prior_within_four_sigma(self):
        # state 0 (prior 0.8) wins the battlefield, state 1 (0.2) loses it:
        # the value is 0.8 - 0.2 = 0.6, and uniform state counts would give 0
        profile = StrategyProfile(
            informed=((PiecewiseCdf.point(2.0),), (PiecewiseCdf.point(0.0),)),
            uninformed=(PiecewiseCdf.point(1.0),),
        )
        mean, se = monte_carlo_value(
            profile, ValuationMatrix(((1.0,), (1.0,))), Prior((0.8, 0.2)), 20_000, 7
        )
        assert se > 0.0
        assert abs(mean - 0.6) <= 4.0 * se

    def test_empty_state_block(self):
        # two samples over three states leave at least one block empty
        params = LottoParams(0.5, 0.5, 0.2)
        profile = build_lotto(params)
        mean, se = monte_carlo_value(profile, params.valuation_matrix, params.prior, 2, 3)
        assert np.isfinite(mean) and np.isfinite(se)

    def test_single_sample_has_zero_error(self):
        params = LottoParams(0.5, 0.5, 0.2)
        profile = build_lotto(params)
        _, se = monte_carlo_value(profile, params.valuation_matrix, params.prior, 1, 3)
        assert se == 0.0

    def test_sample_count_validated(self):
        params = LottoParams(0.5, 0.5, 0.2)
        profile = build_lotto(params)
        with pytest.raises(ValueError):
            monte_carlo_value(profile, params.valuation_matrix, params.prior, 0, 1)


class TestCertify:
    def test_blotto_equilibrium_passes(self):
        cert = certify(build_blotto(BLOTTO), BLOTTO, samples=50_000)
        assert cert.passed
        assert cert.game == "blotto2"
        assert cert.claimed_value == pytest.approx(-0.2, abs=1e-12)
        assert cert.deviation_gap_uninformed <= 1e-6

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
    def test_lotto_equilibrium_passes(self, gamma):
        params = LottoParams(0.55, 0.35, gamma)
        cert = certify(build_lotto(params), params, samples=50_000)
        assert cert.passed

    def test_perturbed_profile_fails(self):
        cert = certify(perturbed_blotto_profile(), BLOTTO, samples=50_000)
        assert not cert.passed
        assert max(cert.deviation_gap_uninformed, *cert.deviation_gaps_informed) > 1e-3

    def test_round_trip(self):
        cert = certify(build_blotto(BLOTTO), BLOTTO, samples=10_000)
        again = Certificate.from_dict(cert.to_dict())
        assert again == cert
        # the JSON written by ``verify --out`` lists the fields in order
        fields = [f.name for f in dataclasses.fields(Certificate)]
        assert list(cert.to_dict()) == fields

    def test_pure_deviation_payoff_matches_sign_expectation(self):
        f = PiecewiseCdf(atoms=((1.0, 0.5), (3.0, 0.5)))
        assert pure_deviation_payoff(2.0, f) == pytest.approx(0.0)
        assert pure_deviation_payoff(1.0, f) == pytest.approx(-0.5)
        assert pure_deviation_payoff(4.0, f) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Dense-grid reference: the exact breakpoint enumeration must find at least
# the maximum a 10^4-point grid finds, on equilibria and on profiles that
# are not equilibria.  The reference evaluates payoffs on its own.
# ---------------------------------------------------------------------------

DENSE_POINTS = 10_000


def dense_grid(top):
    return (np.arange(DENSE_POINTS) + 0.5) * (top / DENSE_POINTS)


def ref_cdf(f, x, tie):
    x = np.asarray(x, dtype=float)
    out = sum(m * np.heaviside(x - loc, tie) for loc, m in f.atoms)
    ramps = (rho * np.minimum(np.maximum(x - l, 0.0), r - l) for l, r, rho in f.segments)
    return out + sum(ramps)


def dense_blotto_gaps(profile, params):
    values, prior = params.valuation_matrix, params.prior
    vals = values.as_array()

    def pay(xs, budget, row, bf1, bf2):
        return row[0] * (2.0 * ref_cdf(bf1, xs, 0.5) - 1.0) + row[1] * (
            2.0 * ref_cdf(bf2, budget - xs, 0.5) - 1.0
        )

    x_u, x_i = params.budgets.uninformed, params.budgets.informed
    xs = dense_grid(x_u)
    pay_u = sum(
        prior.weights[i] * pay(xs, x_u, vals[i], *profile.informed[i])
        for i in range(profile.m)
    )
    gap_u = pay_u.max() + ex_ante_payoff(profile, values, prior)
    xs = dense_grid(x_i)
    gaps_i = [
        pay(xs, x_i, vals[i], *profile.uninformed).max()
        - interim_payoff(profile, values, prior, i)
        for i in range(profile.m)
    ]
    return gap_u, gaps_i


def dense_support_slack(own, terms):
    def priced(x, tie):
        return sum(w * ref_cdf(f, x, tie) for w, f in terms) - np.asarray(x, dtype=float)

    opp = {p for _, f in terms for p in f.breakpoints()}
    on = [priced(loc, 0.5) for loc, _ in own.atoms]
    for left, right, _ in own.segments:
        on += [priced(left, 1.0), priced(right, 0.0)]
        on += [priced(p, tie) for p in opp if left < p < right for tie in (0.0, 1.0)]
    top = 1.05 * max([own.support_max()] + [f.support_max() for _, f in terms])
    off = priced(dense_grid(top), 0.5).max()
    return max(off - max(on), max(on) - min(on))


def dense_lotto_slacks(profile, params, lambdas):
    lam_i, lam_u = lambdas
    vals, weights = params.valuation_matrix.as_array(), params.prior.weights
    slack_u, slacks_i = 0.0, [0.0] * profile.m
    for j in range(profile.n):
        for i in range(profile.m):
            terms = [(2.0 * vals[i, j] * weights[i] / lam_i, profile.uninformed[j])]
            slack = dense_support_slack(profile.informed[i][j], terms)
            slacks_i[i] = max(slacks_i[i], slack)
        terms = [
            (2.0 * vals[i, j] * weights[i] / lam_u, profile.informed[i][j])
            for i in range(profile.m)
        ]
        slack_u = max(slack_u, dense_support_slack(profile.uninformed[j], terms))
    return slack_u, slacks_i


def centered_blotto_profile():
    profile = build_blotto(BLOTTO)
    half = PiecewiseCdf.point(BLOTTO.budgets.uninformed / 2.0)
    return StrategyProfile(
        informed=profile.informed,
        uninformed=(half, half.reflect(BLOTTO.budgets.uninformed)),
    )


def centered_lotto_profile(params):
    # every player puts a third of its budget on every battlefield for sure;
    # each priced payoff then peaks at a one-sided limit off the support
    x_i, x_u = params.budgets.informed, params.budgets.uninformed
    informed = tuple((PiecewiseCdf.point(x_i / 3.0),) * 3 for _ in range(3))
    uninformed = (PiecewiseCdf.point(x_u / 3.0),) * 3
    return StrategyProfile(informed=informed, uninformed=uninformed)


class TestExactScanCoversDenseGrid:
    @pytest.mark.parametrize(
        "profile",
        [build_blotto(BLOTTO), perturbed_blotto_profile(), centered_blotto_profile()],
        ids=["equilibrium", "perturbed", "centered-atom"],
    )
    def test_blotto(self, profile):
        exact = blotto_deviation_gaps(profile, BLOTTO)
        ref_u, ref_i = dense_blotto_gaps(profile, BLOTTO)
        assert exact.uninformed >= ref_u - 1e-12
        for gap, ref in zip(exact.informed, ref_i):
            assert gap >= ref - 1e-12

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
    @pytest.mark.parametrize("case", ["equilibrium", "perturbed", "centered-atom"])
    def test_lotto(self, case, gamma):
        params = LottoParams(0.6, 0.3, gamma, 2.0)
        lambdas = multipliers(0.6, 0.3, gamma, 2.0)
        profile = build_lotto(params)
        if case == "perturbed":
            lambdas = (lambdas[0] * 1.2, lambdas[1])
        elif case == "centered-atom":
            profile = centered_lotto_profile(params)
        exact = lotto_support_optimality(profile, params, lambdas=lambdas)
        ref_u, ref_i = dense_lotto_slacks(profile, params, lambdas)
        assert exact.uninformed >= ref_u - 1e-12
        for slack, ref in zip(exact.informed, ref_i):
            assert slack >= ref - 1e-12
