import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infoblotto import (
    OutOfRegimeError,
    PiecewiseCdf,
    ex_ante_payoff,
    expected_budget,
    interim_payoffs,
)
from infoblotto.lotto3 import (
    _payoff_high_branch,
    _payoff_low_branch,
    _payoff_mid_branch,
    LottoParams,
    build_equilibrium,
    complete_info_baseline,
    gamma_e,
    info_gain,
    informed_payoff,
    max_cost,
    multipliers,
    regime_of,
    voi,
    zero_crossing_alpha,
)
from infoblotto.oracle import certify
from tests.test_blotto2 import budgets, near, unit_log_uniform


def interim_equivalence_check(alpha, beta, gamma, budget_uninformed=1.0, tol=1e-9):
    """True when all three informed types earn the same interim payoff in
    the constructed equilibrium (they must, since the valuation rows are
    permutations of one another)."""
    params = LottoParams(alpha, beta, gamma, budget_uninformed)
    profile = build_equilibrium(params)
    values, prior = params.valuation_matrix, params.prior
    payoffs = interim_payoffs(profile, values, prior)
    return max(payoffs) - min(payoffs) <= tol


def ordered_pairs(count):
    grid = np.linspace(0.05, 0.95, count)
    return [(a, b) for a in grid for b in grid if b <= a]


class TestParams:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            LottoParams(0.3, 0.6, 0.5)
        with pytest.raises(ValueError):
            LottoParams(1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            LottoParams(0.5, 0.0, 0.5)

    def test_gamma_domain(self):
        with pytest.raises(OutOfRegimeError):
            LottoParams(0.5, 0.5, 0.0)
        with pytest.raises(OutOfRegimeError):
            LottoParams(0.5, 0.5, 1.2)
        LottoParams(0.5, 0.5, 1.0)  # equal budgets allowed here

    def test_regimes(self):
        assert regime_of(0.2) == "low"
        assert regime_of(1 / 3) == "low"
        assert regime_of(0.5) == "mid"
        assert regime_of(2 / 3) == "mid"
        assert regime_of(0.8) == "high"
        assert regime_of(1.0) == "high"


class TestPayoff:
    def test_low_regime_value(self):
        # 3 * 0.2 / 2 - 1
        assert informed_payoff(0.5, 0.5, 0.2) == pytest.approx(-0.7, abs=1e-15)

    def test_boundary_third_from_both_branches(self):
        g = 1.0 / 3.0
        assert _payoff_low_branch(0.5, 0.5, g) == pytest.approx(-0.5, abs=1e-15)
        assert _payoff_mid_branch(0.5, 0.5, g) == pytest.approx(-0.5, abs=1e-15)

    def test_mid_regime_value(self):
        # c=1/2, bracket (1 - 2/3)(0.75 + 0.5) + 1 = 17/12; payoff -7/24
        assert informed_payoff(0.5, 0.5, 0.5) == pytest.approx(-7 / 24, abs=1e-15)

    def test_high_regime_values(self):
        # frozen from the exact payoff of the constructed equilibrium
        # (test_construction cross-checks through the profile evaluation)
        assert informed_payoff(0.5, 0.5, 1.0) == pytest.approx(1 / 6, abs=1e-15)
        assert informed_payoff(0.6, 0.3, 0.8) == pytest.approx(23 / 285, abs=1e-15)

    def test_regime_continuity_on_grid(self):
        for a, b in ordered_pairs(20):
            third = abs(
                _payoff_low_branch(a, b, 1 / 3) - _payoff_mid_branch(a, b, 1 / 3)
            )
            two_thirds = abs(
                _payoff_mid_branch(a, b, 2 / 3) - _payoff_high_branch(a, b, 2 / 3)
            )
            assert third <= 1e-12
            assert two_thirds <= 1e-12

    def test_mid_equals_high_when_symmetric(self):
        for a in np.linspace(0.05, 0.95, 19):
            for g in np.linspace(0.35, 1.0, 14):
                assert _payoff_mid_branch(a, a, g) == pytest.approx(
                    _payoff_high_branch(a, a, g), abs=1e-12
                )

    def test_beats_uninformed_baseline(self):
        for a, b in ordered_pairs(8):
            for g in np.linspace(0.08, 1.0, 8):
                assert informed_payoff(a, b, g) > complete_info_baseline(g)
                assert info_gain(a, b, g) > 0.0

    def test_monotone_in_each_parameter(self):
        h = 0.02
        for a, b in [(0.5, 0.3), (0.7, 0.7), (0.4, 0.1)]:
            for g in (0.2, 0.5, 0.8, 1.0):
                base = informed_payoff(a, b, g)
                assert informed_payoff(a + h, b, g) < base
                if b + h <= a:
                    assert informed_payoff(a, b + h, g) < base
                if g - h > 0:
                    assert informed_payoff(a, b, g - h) < base

    def test_info_gain_values(self):
        # low regime: gamma * (2 - alpha - beta) / (1 + alpha + beta)
        assert info_gain(0.5, 0.5, 0.2) == pytest.approx(0.1, abs=1e-15)
        assert info_gain(0.5, 0.5, 1.0) == informed_payoff(0.5, 0.5, 1.0)

    def test_baseline_values(self):
        assert complete_info_baseline(1.0) == 0.0
        assert complete_info_baseline(0.4) == pytest.approx(-0.6)
        assert complete_info_baseline(1 / 3) == pytest.approx(-2 / 3)


class TestMultipliers:
    def test_low_regime(self):
        lam_i, lam_u = multipliers(0.5, 0.5, 0.2, 1.0)
        assert lam_i == pytest.approx(0.5, abs=1e-15)
        assert lam_u == pytest.approx(0.3, abs=1e-15)

    def test_mid_regime(self):
        lam_i, lam_u = multipliers(0.5, 0.5, 0.5, 1.0)
        assert lam_i == pytest.approx(13 / 36, abs=1e-15)
        assert lam_u == pytest.approx(13 / 24, abs=1e-15)

    def test_ratio_fixed_by_budget_ratio(self):
        for g in (0.1, 0.4, 0.6, 0.9, 1.0):
            lam_i, lam_u = multipliers(0.6, 0.3, g, 2.5)
            assert lam_u == pytest.approx(3.0 * g * lam_i, rel=1e-14)
            assert lam_i > 0.0

    def test_ratio_identifies_regime(self):
        # lambda_i / lambda_u = 1/(3 gamma): >= 1 low, in [1/2, 1) mid,
        # in [1/3, 1/2) high
        for g, lo, hi in [(0.2, 1.0, np.inf), (0.5, 0.5, 1.0), (0.9, 1 / 3, 0.5)]:
            lam_i, lam_u = multipliers(0.5, 0.4, g, 1.0)
            assert lo <= lam_i / lam_u < hi

    def test_continuity_at_regime_boundaries(self):
        for a, b in [(0.5, 0.5), (0.8, 0.2)]:
            low = multipliers(a, b, 1 / 3, 1.0)[0]
            mid = multipliers(a, b, 1 / 3 + 1e-12, 1.0)[0]
            assert low == pytest.approx(mid, rel=1e-9)
            mid = multipliers(a, b, 2 / 3, 1.0)[0]
            high = multipliers(a, b, 2 / 3 + 1e-12, 1.0)[0]
            assert mid == pytest.approx(high, rel=1e-9)

    def test_budget_feedback(self):
        # multipliers close the informed expected-budget constraint exactly
        for a, b, g in [(0.5, 0.5, 0.2), (0.5, 0.5, 0.5), (0.6, 0.3, 0.8)]:
            params = LottoParams(a, b, g, 1.0)
            profile = build_equilibrium(params)
            spend = expected_budget(profile.informed[0])
            assert spend == pytest.approx(g * 1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "gamma,budget",
        [(0.2, 1e-320), (0.5, 1e-320), (0.9, 1e-310), (1.0, 3e-309)],
    )
    def test_non_finite_refused(self, gamma, budget):
        # at (1.0, 3e-309) lambda_I is finite and only lambda_U = 3 gamma
        # lambda_I overflows
        with pytest.raises(OutOfRegimeError, match="uninformed budget"):
            multipliers(0.5, 0.5, gamma, budget)
        with pytest.raises(OutOfRegimeError, match="uninformed budget"):
            build_equilibrium(LottoParams(0.5, 0.5, gamma, budget))

    def test_underflow_to_zero_refused(self):
        # lambda_I is a subnormal 1/(3 X_U) and lambda_U = 3 gamma lambda_I
        # underflows to 0; the builder divided by it (ZeroDivisionError)
        args = (1e-308, 1e-308, 5.569061113408053e-136, 1.7976931348623157e308)
        with pytest.raises(OutOfRegimeError, match="lambda_uninformed is 0.0"):
            multipliers(*args)
        with pytest.raises(OutOfRegimeError, match="lambda_uninformed is 0.0"):
            build_equilibrium(LottoParams(*args))

    def test_tiny_finite_budget_kept(self):
        lam_i, lam_u = multipliers(0.5, 0.5, 1.0, 1e-300)
        assert lam_i == pytest.approx(0.25 * 10 / 9 * 1e300, rel=1e-14)
        assert lam_u == pytest.approx(3.0 * lam_i, rel=1e-14)

    @pytest.mark.parametrize(
        "alpha,beta,gamma,budget",
        [(0.5, 0.5, 0.5, 1e-308), (0.6, 0.3, 0.9, 1e-308), (0.5, 0.5, 0.5, 1e308),
         (0.6, 0.3, 0.9, 1.7e308)],
    )
    def test_non_finite_marginal_refused(self, alpha, beta, gamma, budget):
        # the multipliers are finite, but a density (tiny budget) or a
        # location (huge budget) of the marginals is not
        multipliers(alpha, beta, gamma, budget)
        with pytest.raises(OutOfRegimeError, match=re.escape(f"uninformed budget {budget!r}")):
            build_equilibrium(LottoParams(alpha, beta, gamma, budget))

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.9])
    def test_small_budget_still_builds(self, gamma):
        profile = build_equilibrium(LottoParams(0.5, 0.5, gamma, 5e-308))
        assert profile.uninformed[0].total_mass() == pytest.approx(1.0, abs=1e-12)


class TestConstruction:
    def test_regime1_structure(self):
        profile = build_equilibrium(LottoParams(0.5, 0.5, 0.2, 1.0))
        assert regime_of(0.2) == "low"
        # F_U uniform on [0, 2/3] with density 3/2
        f_u = profile.uninformed[0]
        assert f_u.atoms == ()
        ((left, right, rho),) = f_u.segments
        assert (left, right, rho) == pytest.approx((0.0, 2 / 3, 1.5))
        # state 0 values battlefield 0 most: atom of 0.4 at zero plus ramp
        # of mass 0.6
        f_diag, f_alpha, f_beta = profile.informed[0]
        ((loc, mass),) = f_diag.atoms
        assert (loc, mass) == pytest.approx((0.0, 0.4))
        ((dl, dr, drho),) = f_diag.segments
        assert (dl, dr) == pytest.approx((0.0, 2 / 3))
        assert drho * (dr - dl) == pytest.approx(0.6)
        # minor battlefields sit at zero
        assert f_alpha.atoms == ((0.0, 1.0),)
        assert f_beta.atoms == ((0.0, 1.0),)

    def test_uninformed_cdf_tops_out_at_one(self):
        for g in (0.2, 0.5, 0.8, 1.0):
            f_u = build_equilibrium(LottoParams(0.6, 0.3, g, 1.0)).uninformed[0]
            top = f_u.breakpoints()[-1]
            below, at, above = f_u.masses(top)
            assert below + at == pytest.approx(1.0, abs=1e-12) and above == 0.0

    def test_budget_feasibility_all_regimes(self):
        for a, b in ordered_pairs(5):
            for g in (0.15, 1 / 3, 0.45, 2 / 3, 0.8, 1.0):
                params = LottoParams(a, b, g, 1.3)
                profile = build_equilibrium(params)
                for i in range(3):
                    spend = expected_budget(profile.informed[i])
                    assert spend == pytest.approx(params.gamma * params.budget_uninformed, abs=1e-9)
                spend_u = expected_budget(profile.uninformed)
                assert spend_u == pytest.approx(params.budget_uninformed, abs=1e-9)

    def test_value_matches_closed_form_all_regimes(self):
        for a, b in ordered_pairs(5):
            for g in (0.15, 0.45, 0.8, 1.0):
                params = LottoParams(a, b, g)
                profile = build_equilibrium(params)
                value = ex_ante_payoff(profile, params.valuation_matrix, params.prior)
                assert value == pytest.approx(informed_payoff(a, b, g), abs=1e-9)

    def test_regime1_value(self):
        params = LottoParams(0.5, 0.5, 0.2)
        profile = build_equilibrium(params)
        value = ex_ante_payoff(profile, params.valuation_matrix, params.prior)
        assert value == pytest.approx(-0.7, abs=1e-12)

    def test_marginals_follow_cyclic_assignment(self):
        # mid regime: the battlefields valued c and 0.6c are contested, each
        # with density 3*lambda_U/(2*value); the one valued 0.3c is not
        params = LottoParams(0.6, 0.3, 0.5)
        profile = build_equilibrium(params)
        _, lam_u = multipliers(0.6, 0.3, 0.5)
        vals = params.valuation_matrix.values
        c = params.scale
        slot_values = (c, 0.6 * c, 0.3 * c)
        for i in range(3):
            for j in range(3):
                shift = (j - i) % 3
                assert vals[i][j] == pytest.approx(slot_values[shift])
                marginal = profile.informed[i][j]
                assert marginal == profile.informed[0][shift]
                if shift == 2:
                    assert marginal == PiecewiseCdf(atoms=((0.0, 1.0),))
                else:
                    ((_, _, rho),) = marginal.segments
                    assert rho * vals[i][j] == pytest.approx(1.5 * lam_u, rel=1e-14)

    def test_interim_payoffs_equal_across_types(self):
        assert interim_equivalence_check(0.5, 0.5, 0.5)
        assert interim_equivalence_check(0.6, 0.3, 0.8)
        assert interim_equivalence_check(0.9, 0.1, 0.25)

    def test_interim_equals_ex_ante(self):
        params = LottoParams(0.7, 0.2, 0.6)
        profile = build_equilibrium(params)
        v, p = params.valuation_matrix, params.prior
        full = ex_ante_payoff(profile, v, p)
        payoffs = interim_payoffs(profile, v, p)
        assert len(payoffs) == 3
        for payoff in payoffs:
            assert payoff == pytest.approx(full, abs=1e-12)


def per_regime_marginals(params):
    """(uninformed, diagonal, alpha, beta) marginals from one hand-written
    segment table per regime, as the package built them before one stacked
    rule replaced the tables; the reference for ``build_equilibrium``.  The
    informed mass at zero is k - lambda_U/lambda_I, formed as k - 3*gamma,
    and an atom is dropped only where that mass is not positive."""
    a, b, g = params.alpha, params.beta, params.gamma
    c = params.scale
    lam_i, lam_u = multipliers(a, b, g, params.budget_uninformed)
    regime = regime_of(g)
    if regime == "low":
        top = 2.0 * c / (3.0 * lam_i)
        s_u = [(0.0, top, 3.0 * lam_i / (2.0 * c))]
        s_d = [(0.0, top, 3.0 * lam_u / (2.0 * c))]
        s_a = s_b = []
        zero_mass = (0.0, 1.0 - 3.0 * g, 1.0, 1.0)
    elif regime == "mid":
        lo = (2.0 * c / 3.0) * (a / lam_i - a / lam_u)
        hi = (2.0 * c / 3.0) * (a / lam_i + (1.0 - a) / lam_u)
        s_u = [(0.0, lo, 3.0 * lam_i / (2.0 * a * c)), (lo, hi, 3.0 * lam_i / (2.0 * c))]
        s_d = [(lo, hi, 3.0 * lam_u / (2.0 * c))]
        s_a = [(0.0, lo, 3.0 * lam_u / (2.0 * a * c))]
        s_b = []
        zero_mass = (0.0, 0.0, 2.0 - 3.0 * g, 1.0)
    else:
        t1 = (2.0 * c / 3.0) * (b / lam_i - 2.0 * b / lam_u)
        t2 = (2.0 * c / 3.0) * (b / lam_i + (a - 2.0 * b) / lam_u)
        t3 = t2 + (2.0 * c / 3.0) / lam_u
        s_u = [
            (0.0, t1, 3.0 * lam_i / (2.0 * b * c)),
            (t1, t2, 3.0 * lam_i / (2.0 * a * c)),
            (t2, t3, 3.0 * lam_i / (2.0 * c)),
        ]
        s_d = [(t2, t3, 3.0 * lam_u / (2.0 * c))]
        s_a = [(t1, t2, 3.0 * lam_u / (2.0 * a * c))]
        s_b = [(0.0, t1, 3.0 * lam_u / (2.0 * b * c))]
        zero_mass = (0.0, 0.0, 0.0, 3.0 - 3.0 * g)
    return [
        PiecewiseCdf(atoms=((0.0, m),) if m > 0.0 else (), segments=segs)
        for m, segs in zip(zero_mass, (s_u, s_d, s_a, s_b))
    ]


def assert_same_marginal(got, want, rel=1e-15):
    assert len(got.atoms) == len(want.atoms)
    assert len(got.segments) == len(want.segments)
    for row, ref in zip(got.atoms + got.segments, want.atoms + want.segments):
        for x, y in zip(row, ref):
            assert abs(x - y) <= rel * abs(y), (got, want)


@st.composite
def lotto_params(draw):
    alpha = draw(st.floats(min_value=1e-3, max_value=0.999))
    beta = alpha * draw(st.sampled_from([1.0]) | st.floats(min_value=1e-3, max_value=1.0))
    gamma = draw(st.sampled_from([1 / 3, 2 / 3, 1.0]) | st.floats(min_value=1e-3, max_value=1.0))
    budget = draw(st.sampled_from([1e-3, 1e3]) | st.floats(min_value=1e-3, max_value=1e3))
    return LottoParams(alpha, beta, gamma, budget)


@settings(max_examples=300, deadline=None)
@given(lotto_params())
def test_stacked_rule_matches_per_regime_tables(params):
    f_u, *by_value = per_regime_marginals(params)
    profile = build_equilibrium(params)
    for i in range(3):
        for j in range(3):
            assert_same_marginal(profile.informed[i][j], by_value[(j - i) % 3])
        assert_same_marginal(profile.uninformed[i], f_u)


@st.composite
def wide_lotto_params(draw):
    """LottoParams over the whole accepted domain: alpha >= beta from 1e-300
    to the largest float below 1, gammas near 1/3, 1/2, 2/3 and 1 and over
    (0, 1], and budgets from 1e-300 to 1e300."""
    alpha, beta = sorted((draw(unit_log_uniform()), draw(unit_log_uniform())), reverse=True)
    gamma = draw(near(1 / 3, 1 / 2, 2 / 3, 1.0) | unit_log_uniform())
    return LottoParams(alpha, beta, min(gamma, 1.0), draw(budgets()))


# every profile the builder refuses is refused with OutOfRegimeError, and
# every one it builds certifies: no InvalidDistributionError, no bare
# ValueError, no other exception
@settings(max_examples=200, deadline=None)
@given(wide_lotto_params())
@example(LottoParams(1e-300, 1e-300, 1.0))  # a density overflows
@example(LottoParams(1.0 - 2.0**-53, 1.0 - 2.0**-53, 0.9, 1e300))
def test_builder_refusals_are_out_of_regime(params):
    try:
        profile = build_equilibrium(params)
    except OutOfRegimeError:
        return
    assert certify(profile, params).passed


# just below gamma = 2/3 and 1/3 the informed atom at zero keeps a true mass
# k - 3*gamma near 1e-13; a drop tolerance of 5e-13 removed it, and these
# profiles then missed their value by 5e-14 to 1.9e-13
_BELOW_EDGES = [(0.9999999767386354, 4.31e-133, 0.6666666666665376)] + [
    (alpha, beta, edge * (1.0 - 1e-13))
    for edge in (2 / 3, 1 / 3)
    for alpha, beta in ((0.5, 0.5), (0.9, 0.1), (0.6, 0.3), (0.99, 0.01))
]


@pytest.mark.parametrize("alpha,beta,gamma", _BELOW_EDGES)
def test_mass_just_below_a_regime_edge_is_kept(alpha, beta, gamma):
    params = LottoParams(alpha, beta, gamma)
    cert = certify(build_equilibrium(params), params)
    assert cert.passed
    assert cert.value_residual <= 1e-15


class TestZeroCrossing:
    def test_threshold_at_half(self):
        assert zero_crossing_alpha(0.5) == pytest.approx(2 / 11, abs=1e-15)

    def test_sign_flip_around_threshold(self):
        assert informed_payoff(0.18, 0.18, 0.5) > 0.0
        assert informed_payoff(0.19, 0.19, 0.5) < 0.0

    def test_limit_from_above_third(self):
        assert 0.0 < zero_crossing_alpha(1 / 3 + 1e-9) < 1e-8

    def test_equal_budgets_always_win(self):
        assert zero_crossing_alpha(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_no_win_region(self):
        with pytest.raises(OutOfRegimeError):
            zero_crossing_alpha(0.3)


class TestValueOfInformation:
    def test_free_information_always_helps(self):
        for a in np.linspace(0.05, 0.95, 10):
            for g in np.linspace(0.1, 1.0, 10):
                assert voi(a, g, 0.0) > 0.0

    def test_cost_enters_through_reduced_budget(self):
        expected = informed_payoff(0.5, 0.5, 0.8) - 0.0
        assert voi(0.5, 1.0, 0.2) == pytest.approx(expected, abs=1e-15)

    def test_zero_at_max_cost(self):
        for a in np.linspace(0.05, 0.95, 12):
            for g in np.linspace(0.1, 1.0, 12):
                assert voi(a, g, max_cost(a, g)) == pytest.approx(0.0, abs=1e-9)

    def test_sign_matches_max_cost_comparison(self):
        for a, g, cost in [(0.2, 0.9, 0.1), (0.8, 0.9, 0.1), (0.4, 0.5, 0.3)]:
            assert (voi(a, g, cost) > 0.0) == (cost < max_cost(a, g))

    def test_cost_domain(self):
        with pytest.raises(ValueError):
            voi(0.5, 0.5, 1.0)
        with pytest.raises(ValueError):
            voi(0.5, 0.5, -0.1)


class TestGridKernels:
    """The closed forms over arrays, as ``sweep`` calls them, against the same
    forms at each point."""

    def test_bit_identical_to_scalar(self):
        # random points: their bit patterns are more varied than a grid's
        rng = np.random.default_rng(0)
        alpha, gamma = rng.uniform(0.001, 0.999, 3000), rng.uniform(0.001, 1.0, 3000)
        beta = 0.7 * alpha
        cases = [
            (informed_payoff(alpha, beta, gamma), informed_payoff),
            (info_gain(alpha, beta, gamma), info_gain),
            (complete_info_baseline(gamma), lambda a, b, g: complete_info_baseline(g)),
            (gamma_e(alpha, gamma), lambda a, b, g: gamma_e(a, g)),
            (max_cost(alpha, gamma), lambda a, b, g: max_cost(a, g)),
            (voi(alpha, gamma, 0.3), lambda a, b, g: voi(a, g, 0.3)),
            # mixed operands, as sweep passes a fixed value next to an axis
            (voi(0.4, gamma, 0.3), lambda a, b, g: voi(0.4, g, 0.3)),
            (max_cost(0.4, gamma), lambda a, b, g: max_cost(0.4, g)),
            (informed_payoff(alpha, beta, 0.5), lambda a, b, g: informed_payoff(a, b, 0.5)),
            (info_gain(alpha, beta, 0.5), lambda a, b, g: info_gain(a, b, 0.5)),
        ]
        for values, scalar in cases:
            expected = [
                scalar(a, b, g) for a, b, g in zip(alpha.tolist(), beta.tolist(), gamma.tolist())
            ]
            assert [v.hex() for v in values.tolist()] == [v.hex() for v in expected]

    def test_numpy_scalar_point_stays_scalar(self):
        # a point given as numpy scalars is a point: np.float64 in and out,
        # never a 0-d array
        a, g, cost = np.float64(0.5), np.float64(0.8), np.float64(0.2)
        values = [informed_payoff(a, a, g), gamma_e(a, g), max_cost(a, g), voi(a, g, cost),
                  info_gain(a, a, g)]
        expected = [informed_payoff(0.5, 0.5, 0.8), gamma_e(0.5, 0.8), max_cost(0.5, 0.8),
                    voi(0.5, 0.8, 0.2), info_gain(0.5, 0.5, 0.8)]
        assert [type(v) for v in values] == [np.float64] * 5
        assert [v.hex() for v in values] == [v.hex() for v in expected]

    def test_branch_not_taken_has_no_warning(self):
        # at gamma = 1e-310 the mid and high branches overflow; the value
        # comes from the low branch
        assert informed_payoff(0.5, 0.5, np.array([1e-310, 0.5]))[0] == -1.0
        # at alpha = 0 the root that is not taken is 0 / 0
        assert gamma_e(0.0, np.array([1.0]))[0] == gamma_e(0.0, 1.0)

    # each case refuses its last value; ``at`` makes its operands an array
    # or that value alone
    @pytest.mark.parametrize(
        "call,error",
        [
            (lambda at: informed_payoff(at(0.5, 1.0), 0.4, 0.5), ValueError),
            (lambda at: informed_payoff(0.5, at(0.3, 0.6), 0.5), ValueError),
            (lambda at: informed_payoff(0.5, 0.5, at(0.5, 1.2)), OutOfRegimeError),
            (lambda at: informed_payoff(0.5, 0.5, at(np.nan)), OutOfRegimeError),
            (lambda at: gamma_e(at(0.5, -0.1), 0.5), ValueError),
            (lambda at: max_cost(0.5, at(0.5, 0.0)), OutOfRegimeError),
            (lambda at: voi(0.5, 0.5, at(0.3, 1.0)), ValueError),
            (lambda at: voi(0.5, at(0.5, 1.5), 0.5), OutOfRegimeError),
            (lambda at: voi(0.5, at(0.5, 5e-324), 0.6), ValueError),
            # gamma is checked before the reduced ratio (1 - cost) * gamma
            (lambda at: voi(0.5, at(0.5, np.nan), 0.5), OutOfRegimeError),
            (lambda at: info_gain(0.5, at(0.3, 0.6), 0.5), ValueError),
            (lambda at: info_gain(0.5, 0.5, at(0.5, 0.0)), OutOfRegimeError),
        ],
    )
    def test_domain_refused(self, call, error):
        # the array is refused with the error, and the message, of its first
        # offending point
        with pytest.raises(error) as over_array:
            call(lambda *values: np.array(values))
        with pytest.raises(error) as at_point:
            call(lambda *values: values[-1])
        assert over_array.type is at_point.type is error
        assert str(over_array.value) == str(at_point.value)

    @pytest.mark.parametrize(
        "call,error,message",
        [
            (lambda: informed_payoff(1.5, 0.5, 0.5), ValueError,
             "need 1 > alpha >= beta > 0, got alpha=1.5, beta=0.5"),
            (lambda: informed_payoff(0.5, 0.6, 0.5), ValueError,
             "need 1 > alpha >= beta > 0, got alpha=0.5, beta=0.6"),
            (lambda: informed_payoff(0.5, 0.5, 1.2), OutOfRegimeError,
             "budget ratio 1.2 outside (0, 1]"),
            (lambda: informed_payoff(0.5, 0.5, np.nan), OutOfRegimeError,
             "budget ratio nan outside (0, 1]"),
            (lambda: gamma_e(-0.1, 0.5), ValueError, "alpha -0.1 outside [0, 1)"),
            (lambda: max_cost(0.5, 0.0), OutOfRegimeError, "budget ratio 0.0 outside (0, 1]"),
            (lambda: voi(0.5, 0.5, 1.0), ValueError, "information cost 1.0 outside [0, 1)"),
            (lambda: voi(0.5, 1.5, 0.5), OutOfRegimeError, "budget ratio 1.5 outside (0, 1]"),
            (lambda: voi(0.5, 5e-324, 0.6), ValueError, "reduced budget ratio must be positive"),
            (lambda: voi(0.5, np.nan, 0.5), OutOfRegimeError, "budget ratio nan outside (0, 1]"),
        ],
    )
    def test_point_refusal_message(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
            call()
        assert refused.type is error


class TestMaxCost:
    def test_anchor_at_alpha_zero(self):
        assert max_cost(0.0, 1.0) == pytest.approx(2 / 3, abs=1e-12)
        assert max_cost(1e-12, 1.0) == pytest.approx(2 / 3, abs=1e-9)

    def test_decreasing_in_alpha_at_full_budget(self):
        values = [max_cost(a, 1.0) for a in np.linspace(0.01, 0.99, 25)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v < 1.0 for v in values)

    def test_gamma_e_root_property(self):
        # the equalizing ratio solves informed_payoff(a, a, x) = gamma - 1
        # (both the quadratic branch and the low-budget linear branch)
        for a in np.linspace(0.02, 0.98, 15):
            for g in np.linspace(0.05, 1.0, 15):
                ge = gamma_e(a, g)
                assert 0.0 < ge <= g + 1e-15
                assert informed_payoff(a, a, ge) == pytest.approx(g - 1.0, abs=1e-9)

    def test_gamma_e_against_bisection(self):
        # independent root find on the dispatched payoff
        def bisect(a, g):
            lo, hi = 1e-9, g
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if informed_payoff(a, a, mid) - (g - 1.0) > 0.0:
                    hi = mid
                else:
                    lo = mid
            return 0.5 * (lo + hi)

        for a, g in [(0.1, 1.0), (0.5, 1.0), (0.5, 0.6), (0.9, 0.8), (0.3, 0.35)]:
            assert gamma_e(a, g) == pytest.approx(bisect(a, g), abs=1e-9)
