import numpy as np
import pytest

from infoblotto import Budgets, OutOfRegimeError, UnsupportedCaseError, ex_ante_payoff
from infoblotto.blotto2 import (
    BlottoIndex,
    BlottoParams,
    build_equilibrium,
    equilibrium_normalizers,
    gross_wagner_payoff,
    informed_payoff,
    uninformed_guarantee_condition,
    value_of_information,
)


def params(vlow=0.5, gamma=0.7, x_u=10.0, vbar=1.0):
    return BlottoParams.from_ratio(vbar, vlow, gamma, x_u)


class TestIndex:
    def test_spec_geometry(self):
        idx = BlottoIndex.from_params(params())
        assert idx.d == pytest.approx(3.0)
        assert idx.q == 3
        assert idx.r == pytest.approx(1.0)
        assert idx.is_odd

    def test_even_q(self):
        idx = BlottoIndex.from_params(params(gamma=0.6, x_u=1.0))
        assert idx.q == 2
        assert not idx.is_odd

    def test_exact_integer_ratio(self):
        # gamma = 0.8 makes X_U / d exactly 5
        idx = BlottoIndex.from_params(params(gamma=0.8, x_u=1.0))
        assert idx.q == 5
        assert idx.r == pytest.approx(0.0, abs=1e-12)

    def test_equal_budgets_rejected(self):
        with pytest.raises(ValueError):
            BlottoParams(1.0, 0.5, Budgets(2.0, 1.0))


class TestInformedPayoff:
    def test_q3_half_ratio(self):
        # c = 2, q = 3: -(2*(1 + 2) - 1)^-1 = -1/5
        assert informed_payoff(params()) == pytest.approx(-0.2, abs=1e-15)

    def test_q2_even_branch(self):
        # c = 2, q = 2: -(0.5/1.5) * 1 = -1/3
        assert informed_payoff(params(gamma=0.6)) == pytest.approx(-1 / 3, abs=1e-15)

    def test_q3_ratio_ten(self):
        # c = 10, q = 3: -(2*(1 + 10) - 1)^-1 = -1/21; the constructed
        # equilibrium below certifies this value independently
        assert informed_payoff(params(vlow=0.1)) == pytest.approx(-1 / 21, abs=1e-15)

    def test_homogeneous_limit_recovers_baseline(self):
        close = params(vlow=1.0 - 1e-8)
        assert informed_payoff(close) == pytest.approx(-1 / 3, abs=1e-6)
        close_even = params(vlow=1.0 - 1e-8, gamma=0.6)
        assert informed_payoff(close_even) == pytest.approx(-1 / 2, abs=1e-6)

    def test_always_negative_and_monotone_in_vlow(self):
        # payoff approaches -1/q from above as the values homogenize, so it
        # falls as vlow rises (information matters less for similar values)
        values = [informed_payoff(params(vlow=v)) for v in np.linspace(0.05, 0.95, 30)]
        assert all(-1.0 < x < 0.0 for x in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_regime_errors(self):
        with pytest.raises(OutOfRegimeError, match="secure"):
            informed_payoff(params(gamma=0.4))
        with pytest.raises(OutOfRegimeError):
            informed_payoff(params(gamma=0.5))

    @pytest.mark.parametrize(
        "vbar,vlow,gamma",
        [
            (1.0, 0.5, 0.9999998),  # q about 5e6: 2.0**1024 overflows
            (1e6, 1.0, 0.9999),  # even q = 10000, c = 1e6: 1e6**52 overflows
            (1.0, 0.5, 0.99951159),  # q = 2047: every power finite, the sum not
            (1.0, 0.5, 0.99951112),  # q = 2045: the sum finite, twice it not
        ],
    )
    def test_series_overflow_refused(self, vbar, vlow, gamma):
        p = params(vbar=vbar, vlow=vlow, gamma=gamma, x_u=1.0)
        calls = [informed_payoff]
        if BlottoIndex.from_params(p).is_odd:
            calls += [equilibrium_normalizers, build_equilibrium]
        for call in calls:
            with pytest.raises(OutOfRegimeError, match="not a finite float"):
                call(p)


class TestGrossWagner:
    @pytest.mark.parametrize("q,expected", [(2, -0.5), (3, -1 / 3), (10, -0.1)])
    def test_values(self, q, expected):
        assert gross_wagner_payoff(q) == pytest.approx(expected)

    def test_invalid(self):
        with pytest.raises(ValueError):
            gross_wagner_payoff(0)


class TestValueOfInformation:
    def test_half_ratio(self):
        # -1/5 - (-1/3) = 2/15
        assert value_of_information(params()) == pytest.approx(2 / 15, abs=1e-15)

    def test_ratio_ten(self):
        # -1/21 - (-1/3) = 2/7
        assert value_of_information(params(vlow=0.1)) == pytest.approx(2 / 7, abs=1e-15)

    def test_vanishes_for_homogeneous_values(self):
        assert 0.0 < value_of_information(params(vlow=1.0 - 1e-8)) < 1e-6

    def test_strictly_positive_on_grid(self):
        for vlow in np.linspace(0.03, 0.97, 25):
            for gamma in np.linspace(0.52, 0.97, 25):
                assert value_of_information(params(vlow=vlow, gamma=gamma, x_u=1.0)) > 0.0


class TestGuaranteeCondition:
    def test_two_battlefields_always(self):
        assert uninformed_guarantee_condition(2, 0.4)
        assert uninformed_guarantee_condition(2, 0.99)

    def test_odd_uses_n_plus_one(self):
        assert not uninformed_guarantee_condition(3, 0.6)
        assert uninformed_guarantee_condition(3, 0.49)

    def test_even_threshold(self):
        assert uninformed_guarantee_condition(4, 0.49)
        assert not uninformed_guarantee_condition(4, 0.5)

    def test_domain(self):
        with pytest.raises(ValueError):
            uninformed_guarantee_condition(0, 0.5)
        with pytest.raises(ValueError):
            uninformed_guarantee_condition(3, 1.5)


class TestConstruction:
    def test_uninformed_lattice_spec_example(self):
        profile = build_equilibrium(params(), e=2.0)
        # atoms {2, 5, 8} with weights {2, 1, 2}/5
        np.testing.assert_allclose(
            profile.uninformed[0].atoms, [(2.0, 0.4), (5.0, 0.2), (8.0, 0.4)], atol=1e-12
        )
        # battlefield 2 is the budget complement, here symmetric
        np.testing.assert_allclose(
            profile.uninformed[1].atoms, [(2.0, 0.4), (5.0, 0.2), (8.0, 0.4)], atol=1e-12
        )

    def test_informed_low_type_spec_example(self):
        profile = build_equilibrium(params(), e=2.0)
        # atoms {0, 3} with weights {1, 2/3} / (5/3)
        np.testing.assert_allclose(
            profile.informed[1][0].atoms, [(0.0, 0.6), (3.0, 0.4)], atol=1e-12
        )
        np.testing.assert_allclose(
            profile.informed[0][0].atoms, [(3.0, 0.4), (6.0, 0.6)], atol=1e-12
        )

    def test_high_type_support_interval(self):
        p = params()
        idx = BlottoIndex.from_params(p)
        e = 2.0
        profile = build_equilibrium(p, e=e)
        half = (idx.q - 1) // 2
        lo = e + (half - 1) * idx.d
        for loc, _ in profile.informed[0][0].atoms:
            assert lo < loc <= p.budgets.informed

    def test_budget_complement_structure(self):
        p = params()
        profile = build_equilibrium(p)
        for row, budget in [
            (profile.informed[0], p.budgets.informed),
            (profile.informed[1], p.budgets.informed),
            ((profile.uninformed), p.budgets.uninformed),
        ]:
            mirrored = row[0].reflect(budget)
            np.testing.assert_allclose(mirrored.atoms, row[1].atoms, atol=1e-12)

    def test_profile_value_matches_closed_form(self):
        p = params()
        profile = build_equilibrium(p)
        value = ex_ante_payoff(profile, p.valuation_matrix, p.prior)
        assert value == pytest.approx(informed_payoff(p), abs=1e-9)

    def test_value_independent_of_offset(self):
        p = params()
        v1 = ex_ante_payoff(build_equilibrium(p, e=1.25), p.valuation_matrix, p.prior)
        v2 = ex_ante_payoff(build_equilibrium(p, e=2.75), p.valuation_matrix, p.prior)
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_normalizer_identity(self):
        # vlow*(1+c)/s_a and vlow/s_b are the same number (the raw game value)
        for vlow in (0.1, 0.3, 0.5, 0.8):
            for gamma in (0.68, 0.7, 0.72, 0.85):
                p = params(vlow=vlow, gamma=gamma, x_u=1.0)
                idx = BlottoIndex.from_params(p)
                if not idx.is_odd:
                    continue
                s_a, s_b = equilibrium_normalizers(p)
                c = p.value_ratio
                assert p.vlow * (1 + c) / s_a == pytest.approx(p.vlow / s_b, abs=1e-12)
                # normalized game value is -1/s_a for odd q
                assert informed_payoff(p) == pytest.approx(-1.0 / s_a, abs=1e-12)

    def test_zero_remainder_case(self):
        # gamma = 0.8 gives q = 5, r = 0; the construction must still certify
        p = params(gamma=0.8, x_u=1.0)
        profile = build_equilibrium(p)
        value = ex_ante_payoff(profile, p.valuation_matrix, p.prior)
        assert value == pytest.approx(informed_payoff(p), abs=1e-9)

    def test_even_q_unsupported(self):
        with pytest.raises(UnsupportedCaseError, match="even"):
            build_equilibrium(params(gamma=0.6))

    def test_offset_domain_checked(self):
        with pytest.raises(ValueError):
            build_equilibrium(params(), e=0.5)  # below r = 1
        with pytest.raises(ValueError):
            build_equilibrium(params(), e=3.0)  # at d
