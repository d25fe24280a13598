import math
import random
import sys
from decimal import MAX_EMAX, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from infoblotto import OutOfRegimeError, ex_ante_payoff
from infoblotto.blotto2 import (
    _MAX_LATTICE,
    BlottoIndex,
    BlottoParams,
    _denominator,
    _geometric_sum,
    _step_count,
    _weights,
    build_equilibrium,
    closed_forms,
    gross_wagner_payoff,
    informed_payoff,
    value_of_information,
)
from infoblotto.distributions import MASS_TOL
from infoblotto.oracle import certify


def params(vlow=0.5, gamma=0.7, x_u=10.0, vbar=1.0):
    return BlottoParams.from_ratio(vbar, vlow, gamma, x_u)


def grid(vbar, vlow, gamma):
    """The closed forms of a sweep, X_U = 1, by name."""
    return closed_forms({"vbar": vbar, "vlow": vlow, "gamma": gamma})


class TestIndex:
    def test_spec_geometry(self):
        idx = BlottoIndex.from_params(params())
        assert idx.d == pytest.approx(3.0)
        assert idx.q == 3
        assert idx.r == pytest.approx(1.0)

    def test_even_q(self):
        idx = BlottoIndex.from_params(params(gamma=0.6, x_u=1.0))
        assert idx.q == 2

    def test_exact_integer_ratio(self):
        # gamma = 0.8 makes X_U / d exactly 5
        idx = BlottoIndex.from_params(params(gamma=0.8, x_u=1.0))
        assert idx.q == 5
        assert idx.r == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("x_u", [1.0, 10.0, 100.0])
    def test_slack_only_absorbs_the_rounding_of_gamma(self, x_u):
        # 2.9999999994 is 6e-10 short of 3, far more than gamma's rounding
        # moves it; the float 2/3 is 4e-16 short and 0.96 lands just below 25
        for gamma, q in ((0.6666666666, 2), (2 / 3, 3), (0.96, 25)):
            assert BlottoIndex.from_params(params(gamma=gamma, x_u=x_u)).q == q
        steps = grid(2.0, 1.0, np.array([0.6666666666, 2 / 3, 0.96]))["q"]
        assert list(steps) == [2, 3, 25]

    def test_equal_budgets_rejected(self):
        with pytest.raises(ValueError, match="0 < X_I <= X_U"):
            BlottoParams(1.0, 0.5, 2.0, 1.0)
        # equal budgets are valid params, but have no gap d = X_U - X_I
        with pytest.raises(OutOfRegimeError, match="requires X_I < X_U"):
            BlottoIndex.from_params(BlottoParams(1.0, 0.5, 1.0, 1.0))

    def test_fields_are_the_file_record(self):
        p = params(gamma=0.7, x_u=10.0)
        record = p._asdict()
        assert list(record) == ["vbar", "vlow", "budget_informed", "budget_uninformed"]
        assert list(record) == list(BlottoParams._fields)
        assert BlottoParams(**record) == p
        assert (p.budget_uninformed, p.gamma) == (10.0, p.budget_informed / 10.0)

    def test_step_count_of_decimal_gammas(self):
        # gamma = 1 - 1/n typed in decimal, for every terminating 1/n
        # (n = 2^a 5^b) up to 2^26, where gamma's rounding moves the ratio
        # by less than a quarter step: a 1e-9 cap lost a step above n ~ 1500
        ns = sorted(2**a * 5**b for a in range(27) for b in range(12) if 2 < 2**a * 5**b <= 2**26)
        assert len(ns) == 164
        for n in ns:
            with localcontext() as ctx:
                ctx.prec = 60
                gamma = float(1 - Decimal(1) / n)
            assert _step_count(1.0 / (1.0 - gamma)) == n, gamma
            assert BlottoIndex.from_params(params(gamma=gamma, x_u=1.0)).q == n, gamma

    def test_step_count_of_random_decimal_gammas(self):
        # seeded decimal gammas of 2 to 9 digits in (1/2, 1), against the
        # floor of 1/(1 - gamma) as typed, in exact rationals
        rng = random.Random(20)
        for _ in range(20_000):
            digits = rng.randint(2, 9)
            text = f"0.{rng.randrange(5 * 10 ** (digits - 1) + 1, 10**digits):0{digits}d}"
            exact = 1 / (1 - Fraction(text))
            if exact > 2**26:
                continue
            gamma = float(text)
            assert _step_count(1.0 / (1.0 - gamma)) == math.floor(exact), text


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

    @pytest.mark.parametrize("vbar,vlow", [(1.0, 0.5), (1.0, 0.999999), (1e300, 1e-10)])
    def test_q2_is_the_weight_for_any_ratio(self, vbar, vlow):
        # S_1 = 1 exactly, also where c = vbar/vlow is past the float range
        p = params(vbar=vbar, vlow=vlow, gamma=0.6, x_u=1.0)
        assert informed_payoff(p) == -(vlow / (vbar + vlow))

    def test_underflowing_even_payoff_refused(self):
        # -(1/c)/(1 + c) at c = 1e200 and q = 4 is below the subnormals;
        # the odd q = 3 next to it is -1/(1 + 2c), still a normal float
        with pytest.raises(OutOfRegimeError, match="underflows to 0"):
            informed_payoff(params(vbar=1e200, vlow=1.0, gamma=0.76))
        assert informed_payoff(params(vbar=1e200, vlow=1.0, gamma=0.7)) < 0.0

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
        if BlottoIndex.from_params(p).q % 2:
            calls += [build_equilibrium]
        for call in calls:
            with pytest.raises(OutOfRegimeError, match="not a finite float"):
                call(p)


def _geometric_reference(c, h):
    # S_h = (c**h - 1)/(c - 1) at the same float c, in 80 digits
    with localcontext() as ctx:
        ctx.prec, ctx.Emax = 80, MAX_EMAX
        c = Decimal(c)
        return (c**h - 1) / (c - 1)


def _geometric_cases():
    # h up to 10^6, and around the h where c**h crosses 2 and leaves the
    # float range (the two switches of _geometric_sum)
    for c in (1.0 + 2.0**-52, 1.0 + 1e-12, 1.0000001, 1.3, 20 / 13, 2.0, 20.0):
        hs = {1, 2, 3, 5, 17, 400, 10**4, 10**6}
        for crossing in (math.log(2.0), 1024 * math.log(2.0)):
            at = int(crossing / math.log(c))
            hs |= {max(at + k, 1) for k in range(-2, 3)}
        for h in sorted(hs):
            if _geometric_reference(c, h) < sys.float_info.max:
                yield c, h


class TestSeries:
    @pytest.mark.parametrize("c,h", list(_geometric_cases()))
    def test_matches_decimal_reference(self, c, h):
        expected = _geometric_reference(c, h)
        assert abs(Decimal(_geometric_sum(c, h)) - expected) <= Decimal("1e-15") * expected

    def test_overflow_names_the_stop(self):
        # q = 2199: S_1100 at c = 2
        with pytest.raises(OutOfRegimeError, match="k < 1100"):
            _denominator(2.0, 2199)
        # the ratio in full: 1.0000001 would print as 1 at 6 digits
        with pytest.raises(OutOfRegimeError, match=r"1\.0000001\*\*k, k < 7100000000"):
            _denominator(1.0000001, 14_200_000_000)

    def test_high_q_payoff_accurate(self):
        # even q = 5e7: S_{2.5e7} at c = 1 + 1e-8, against the 80-digit
        # reference; a term-by-term loop was 1.3e-13 off
        p = params(vbar=1.0, vlow=0.99999999, gamma=0.99999998, x_u=1.0)
        assert BlottoIndex.from_params(p).q == 50_000_000
        weight = Decimal(p.vlow) / (Decimal(p.vbar) + Decimal(p.vlow))
        expected = weight / _geometric_reference(p.value_ratio, 25_000_000)
        assert abs(Decimal(-informed_payoff(p)) - expected) <= Decimal("1e-15") * expected

    def test_centre_atom_is_minus_the_payoff(self):
        # the uninformed centre atom has weight c**0 over the same
        # denominator as the payoff
        for vlow in (0.05, 0.3, 0.5, 0.77, 0.999999):
            # q = 3, 5 (r = 0), 5, 7, 11 and 101
            for gamma in (0.7, 0.8, 0.81, 0.86, 0.91, 0.9901):
                p = params(vlow=vlow, gamma=gamma, x_u=1.0)
                idx = BlottoIndex.from_params(p)
                assert idx.q % 2
                atoms = build_equilibrium(p).uninformed[0].atoms
                assert atoms[idx.q // 2][1].hex() == (-informed_payoff(p)).hex()


class TestLargestFloatValuations:
    def test_weights_where_the_sum_overflows(self):
        assert _weights(1.7e308, 1.5e308) == (0.53125, 0.46875)
        p = params(vbar=1.7e308, vlow=1.5e308, gamma=0.6)
        assert p.valuation_matrix.values == ((0.53125, 0.46875), (0.46875, 0.53125))
        assert informed_payoff(p) == -0.46875
        assert grid(1.7e308, 1.5e308, 0.6)["payoff"] == -0.46875

    @pytest.mark.parametrize(
        # q = 3, 33; and q = 5, where the sum is finite but vlow * c**2 is not
        "vbar,vlow,gamma", [(1.7e308, 1.5e308, 0.7), (1.7e308, 1.5e308, 0.97), (1e308, 1e307, 0.8)]
    )
    def test_profile_attains_the_payoff(self, vbar, vlow, gamma):
        p = params(vbar=vbar, vlow=vlow, gamma=gamma)
        value = ex_ante_payoff(build_equilibrium(p), p.valuation_matrix, p.prior)
        assert value == pytest.approx(informed_payoff(p), rel=1e-12)


class TestGrid:
    def test_bit_identical_to_scalar(self):
        vlow, gamma = np.meshgrid(
            np.linspace(0.3, 1.9, 17), np.linspace(0.51, 0.99, 40), indexing="ij"
        )
        forms = grid(2.0, vlow, gamma)
        assert list(forms) == ["payoff", "q", "d", "r", "baseline", "voi"]
        assert all(len(column) == vlow.size for column in forms.values())
        for v, g, *values in zip(vlow.flat, gamma.flat, *forms.values()):
            p = params(vbar=2.0, vlow=float(v), gamma=float(g), x_u=1.0)
            value, steps, d, r, baseline, voi = values
            assert value.hex() == informed_payoff(p).hex()
            assert (d, steps, r) == BlottoIndex.from_params(p)
            assert baseline.hex() == gross_wagner_payoff(steps).hex()
            assert voi.hex() == value_of_information(p).hex()
            assert closed_forms({"vbar": 2.0, "vlow": float(v), "gamma": float(g)}) == dict(
                zip(forms, values))

    @pytest.mark.parametrize(
        "vbar,vlow,gamma",
        [(1.0, 0.5, 0.9999998), (1e6, 1.0, 0.9999), (1.0, 0.5, 0.99951159),
         (1.0, 0.5, 0.99951112)],
    )
    def test_series_overflow_refused(self, vbar, vlow, gamma):
        # one point that overflows among points that do not
        with pytest.raises(OutOfRegimeError, match="not a finite float"):
            grid(vbar, vlow, np.array([0.6, gamma, 0.7]))

    def test_underflow_refused(self):
        # one even-q point whose payoff underflows among points that do not
        gamma = np.array([0.6, 0.7, 0.76])
        assert max(grid(1e200, 1.0, gamma[:2])["payoff"]) < 0.0
        with pytest.raises(OutOfRegimeError, match="underflows to 0"):
            grid(1e200, 1.0, gamma)

    @pytest.mark.parametrize(
        "vbar,vlow,gamma,error",
        [
            (1.0, np.array([0.5, 1.0]), 0.7, ValueError),
            (1.0, np.array([0.0, 0.5]), 0.7, ValueError),
            (np.inf, 0.5, 0.7, ValueError),
            (1.0, 0.5, np.array([0.5, 0.7]), OutOfRegimeError),
            (1.0, 0.5, np.array([0.7, 1.0]), OutOfRegimeError),
            (1.0, 0.5, np.array([np.nan]), OutOfRegimeError),
        ],
    )
    def test_domain_refused(self, vbar, vlow, gamma, error):
        with pytest.raises(error):
            grid(vbar, vlow, gamma)


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


class TestConstruction:
    def test_repeated_builds_hold_no_memory(self):
        # tuple() of a generator resizes a guessed length, moving a block into
        # CPython's tuple free list of each lattice length: about 11k blocks
        # over these builds.  Exact-length tuples leave at most the pair free
        # list filling (under 2000 blocks).
        points = [params(vlow=0.5, gamma=1.0 - 1.0 / (q + 0.5)) for q in range(3, 20, 2)]
        for p in points:
            build_equilibrium(p)
        before = sys.getallocatedblocks()
        for _ in range(300):
            for p in points:
                build_equilibrium(p)
        assert sys.getallocatedblocks() - before < 3000

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
            assert lo < loc <= p.budget_informed

    def test_budget_complement_structure(self):
        p = params()
        profile = build_equilibrium(p)
        for row, budget in [
            (profile.informed[0], p.budget_informed),
            (profile.informed[1], p.budget_informed),
            ((profile.uninformed), p.budget_uninformed),
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
        # the central uninformed atom has mass 1/s_a, minus the game value for
        # odd q, and the type-2 atom at 0 has mass 1/s_b = (1+c)/s_a, since
        # vlow*(1+c)/s_a and vlow/s_b are the same number (the raw game value)
        for vlow in (0.1, 0.3, 0.5, 0.8):
            for gamma in (0.68, 0.7, 0.72, 0.85):
                p = params(vlow=vlow, gamma=gamma, x_u=1.0)
                idx = BlottoIndex.from_params(p)
                if idx.q % 2 == 0:
                    continue
                profile = build_equilibrium(p)
                _, central = profile.uninformed[0].atoms[(idx.q - 1) // 2]
                assert central == pytest.approx(-informed_payoff(p), abs=1e-12)
                loc, mass = profile.informed[1][0].atoms[0]
                assert loc == 0.0
                assert mass == pytest.approx((1 + p.value_ratio) * central, abs=1e-12)

    def test_zero_remainder_case(self):
        # gamma = 0.8 gives q = 5, r = 0; the construction must still certify
        p = params(gamma=0.8, x_u=1.0)
        profile = build_equilibrium(p)
        value = ex_ante_payoff(profile, p.valuation_matrix, p.prior)
        assert value == pytest.approx(informed_payoff(p), abs=1e-9)

    def test_even_q_unsupported(self):
        # gamma = 0.6 at X_U = 10: d = 4, q = 2; refused before any atom,
        # with the step count named
        with pytest.raises(OutOfRegimeError, match=r"^q = 2: .* only for odd q up to 100000 "):
            build_equilibrium(params(gamma=0.6))

    def test_lattice_limit(self):
        # q = 99999 is the largest odd step count under 10^5 and builds; the
        # next, q = 100001, built in 0.75 s at 129 MB and is refused, before
        # any atom, with the step count and the limit named
        p = params(vlow=0.9999, gamma=0.99998999995, x_u=1.0)
        assert len(build_equilibrium(p).uninformed[0].atoms) == 99999
        with pytest.raises(OutOfRegimeError, match=r"^q = 100001: .* only for odd q up to 100000 "):
            build_equilibrium(params(vlow=0.9999, gamma=0.99999000015, x_u=1.0))

    def test_offset_domain_checked(self):
        with pytest.raises(ValueError):
            build_equilibrium(params(), e=0.5)  # below r = 1
        with pytest.raises(ValueError):
            build_equilibrium(params(), e=3.0)  # at d

    @pytest.mark.parametrize("x_u", [1.0, 10.0, 1e6])
    def test_offset_within_merge_tolerance_refused(self, x_u):
        # within MASS_TOL * X_U of r or d rounding can put the lattice on the
        # informed atoms, and such profiles failed their certificates; just
        # outside, the profile passes
        p = params(x_u=x_u)
        idx = BlottoIndex.from_params(p)
        tol = MASS_TOL * x_u
        near = (idx.r + 0.5 * tol, math.nextafter(idx.r, math.inf),
                idx.d - 0.5 * tol, math.nextafter(idx.d, 0.0))
        for e in near:
            with pytest.raises(ValueError, match="offset"):
                build_equilibrium(p, e=e)
        for e in (idx.r + 2.0 * tol, idx.d - 2.0 * tol):
            assert certify(build_equilibrium(p, e=e), p).passed


# the largest float below 1; every value ratio in (0, 1) is drawn up to it
_BELOW_ONE = 1.0 - 2.0**-53


def unit_log_uniform():
    """Floats from 1e-300 to the largest float below 1, log-uniform, with
    both ends and the floats just below 1 drawn as themselves."""
    return (st.sampled_from([1e-300, _BELOW_ONE, 1.0 - 2.0**-52, 1.0 - 2.0**-40])
            | st.floats(-300.0, 0.0).map(lambda t: min(10.0**t, _BELOW_ONE)))


def near(*anchors):
    """Floats at a relative distance of 0, or of 1e-17 to 1e-6 log-uniform,
    from one of the anchors: within rounding of it, and past rounding."""
    rel = st.sampled_from([0.0]) | st.builds(
        lambda sign, t: sign * 10.0**t, st.sampled_from([-1.0, 1.0]), st.floats(-17.0, -6.0)
    )
    return st.builds(lambda anchor, r: anchor * (1.0 + r), st.sampled_from(anchors), rel)


def budgets():
    return st.sampled_from([1e-300, 1e300]) | st.floats(-300.0, 300.0).map(lambda t: 10.0**t)


@st.composite
def blotto_params(draw):
    """BlottoParams that ``from_ratio`` accepts, at a q of at most 400 or
    past ``_MAX_LATTICE``, so that a build and its certificate take
    milliseconds: gammas near 1/3, 1/2, 2/3, 3/4 (X_U/d near 4) and 1 (q in
    the millions and past), and over (1/2, 1 - 1/400)."""
    vlow = draw(unit_log_uniform())
    gamma = draw(near(1 / 3, 1 / 2, 2 / 3, 3 / 4, 1.0 - 1e-6, _BELOW_ONE)
                 | st.floats(0.5, 1.0 - 1.0 / 400.0))
    p = BlottoParams.from_ratio(1.0, vlow, min(gamma, _BELOW_ONE), draw(budgets()))
    if p.gamma < 1.0:
        assume(not 400 < BlottoIndex.from_params(p).q <= _MAX_LATTICE)
    return p


# every lattice the builder does not build is refused with OutOfRegimeError,
# and every one it builds certifies: no InvalidDistributionError, no bare
# ValueError, no other exception
@settings(max_examples=200, deadline=None)
@given(blotto_params())
@example(params(gamma=0.78))  # q = 4
@example(params(vlow=0.9999, gamma=0.99999000015, x_u=1.0))  # q = 100001
@example(params(gamma=0.7499999999999, x_u=1.0))  # q = 3, d - r = 4e-13
def test_builder_refusals_are_out_of_regime(p):
    try:
        profile = build_equilibrium(p)
    except OutOfRegimeError:
        return
    assert certify(profile, p).passed
