import json
import math
import os
import random
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoblotto import (
    PiecewiseCdf,
    Prior,
    StrategyProfile,
    ValuationMatrix,
    ex_ante_payoff,
    interim_payoffs,
)
from infoblotto import cli, distributions, games, lotto3, oracle
from infoblotto.blotto2 import BlottoIndex, BlottoParams, build_equilibrium as build_blotto
from infoblotto.blotto2 import informed_payoff as informed_payoff_blotto
from infoblotto.lotto3 import LottoParams, build_equilibrium as build_lotto, multipliers
from infoblotto.lotto3 import informed_payoff as informed_payoff_lotto
from infoblotto.oracle import (
    Certificate,
    blotto_deviation_gaps,
    blotto_budget_residuals,
    certify,
    claimed_value,
    lotto_budget_residuals,
    lotto_support_optimality,
    monte_carlo_value,
    pure_deviation_payoff,
)
from tests.test_distributions import cdf_of
from tests.test_games import exact_battlefield_payoff

BLOTTO = BlottoParams.from_ratio(1.0, 0.5, 0.7, 10.0)


def shifted(f, index, delta):
    """``f`` with ``delta`` added to the mass of atom ``index``, renormalised."""
    index %= len(f.atoms)
    atoms = [(loc, mass + delta * (k == index)) for k, (loc, mass) in enumerate(f.atoms)]
    total = math.fsum(mass for _, mass in atoms)
    return PiecewiseCdf(atoms=tuple((loc, mass / total) for loc, mass in atoms))


def shifted_uninformed(params, delta=0.05):
    """Equilibrium profile with uninformed atom 0 reweighted; still a valid
    Blotto strategy (battlefield 2 stays the budget complement)."""
    profile = build_blotto(params)
    g = shifted(profile.uninformed[0], 0, delta)
    return StrategyProfile(
        informed=profile.informed, uninformed=(g, g.reflect(params.budget_uninformed))
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
        half = PiecewiseCdf.point(BLOTTO.budget_uninformed / 2.0)
        atom_profile = StrategyProfile(
            informed=profile.informed,
            uninformed=(half, half.reflect(BLOTTO.budget_uninformed)),
        )
        gaps = blotto_deviation_gaps(atom_profile, BLOTTO)
        assert gaps.uninformed >= -1e-12
        assert all(g >= -1e-12 for g in gaps.informed)
        assert max(gaps.informed) > 0.1

    def test_perturbed_profile_detected(self):
        gaps = blotto_deviation_gaps(shifted_uninformed(BLOTTO), BLOTTO)
        assert gaps.worst() > 1e-3

    def test_requires_atomic_marginals(self):
        params = LottoParams(0.5, 0.5, 0.7)
        with pytest.raises(ValueError):
            blotto_deviation_gaps(build_lotto(params), BLOTTO)

    def test_each_marginal_pair_priced_once(self, monkeypatch):
        # the Blotto scan at q = 3 takes its interim payoffs from one call,
        # which prices its 4 (informed, uninformed) pairs; a built Lotto
        # profile holds 3 distinct pairs in its 9 slots
        calls = {"interim_payoffs": 0, "battlefield_payoff": 0}
        for name in calls:
            original = getattr(games, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(games, name, counted)
        assert BlottoIndex.from_params(BLOTTO).q == 3
        blotto_deviation_gaps(build_blotto(BLOTTO), BLOTTO)
        assert calls == {"interim_payoffs": 1, "battlefield_payoff": 4}
        params = LottoParams(0.6, 0.3, 0.8)
        calls.update(interim_payoffs=0, battlefield_payoff=0)
        ex_ante_payoff(build_lotto(params), params.valuation_matrix, params.prior)
        assert calls == {"interim_payoffs": 1, "battlefield_payoff": 3}

    def test_large_q_profile(self):
        # q = 1999: the profile payoffs and the scan take O(q log q)
        params = BlottoParams.from_ratio(1.0, 0.99, 1.0 - 1.0 / 1999.5)
        assert BlottoIndex.from_params(params).q == 1999
        profile = build_blotto(params)
        assert blotto_deviation_gaps(profile, params).worst() <= 1e-12
        value = ex_ante_payoff(profile, params.valuation_matrix, params.prior)
        assert abs(value - informed_payoff_blotto(params)) <= 1e-9

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

    def test_budget_residuals_of_other_shapes_are_infinite(self):
        # atoms are paired from the two ends, so another atom count (zip
        # would pair a prefix) or a segment on either side is no complement
        profile = build_blotto(BLOTTO)
        g1, g2 = profile.uninformed
        fewer = PiecewiseCdf(atoms=tuple((loc, mass / (1.0 - g2.atoms[-1][1]))
                                         for loc, mass in g2.atoms[:-1]))
        x_u = BLOTTO.budget_uninformed
        ramp = PiecewiseCdf.uniform(0.0, x_u)
        # g1's atoms at half their mass, and a ramp past the budget
        half_ramp = PiecewiseCdf(atoms=tuple((loc, mass / 2.0) for loc, mass in g1.atoms),
                                 segments=((x_u, 2.0 * x_u, 0.5 / x_u),))
        for pair in [(g1, fewer), (fewer.reflect(x_u), g2),
                     (ramp, ramp), (g1, ramp), (ramp, g2), (half_ramp, g2)]:
            broken = StrategyProfile(informed=profile.informed, uninformed=pair)
            assert blotto_budget_residuals(broken, BLOTTO)[0] == math.inf


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
        lam_i, _ = multipliers(0.5, 0.5, 0.2)
        f_u = build_lotto(params).uninformed[0]
        nu = 2.0 * (0.5 * params.scale) * (1.0 / 3.0) / lam_i
        xs = np.linspace(0.0, 1.2 * f_u.breakpoints()[-1], 2001)
        priced = nu * cdf_of(f_u, xs) - xs
        assert priced.max() <= 1e-12
        assert priced[0] == 0.0

    def test_perturbed_multipliers_detected(self, monkeypatch):
        params = LottoParams(0.5, 0.5, 0.5)
        profile = build_lotto(params)
        lam_i, lam_u = multipliers(0.5, 0.5, 0.5, 1.0)
        # the scan reads lotto3.multipliers at call time
        monkeypatch.setattr(lotto3, "multipliers", lambda *args: (lam_i * 1.2, lam_u))
        slacks = lotto_support_optimality(profile, params)
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

    # float.hex of (mean, se) at 50k samples unless a (params, samples) pair
    # pins another count: a change that moves the Monte Carlo stream, or one
    # bit of an estimate, fails here.  Every value was re-pinned, with no
    # seed, count or params changed, when the draws came to be read in
    # stream order (each battlefield's samples in turn, one uniform per
    # marginal that is not one atom) instead of positioned in a
    # (2, n, count_i) block per state; every estimate stayed within
    # 1.5 standard errors of the closed form.  The last three span several
    # chunks in every state, and 3 * 2**16 + 1 samples split into counts
    # that end mid-chunk
    @pytest.mark.parametrize(
        "params,seed,mean,se",
        [
            (  # blotto2 q = 3
                BlottoParams.from_ratio(1.0, 0.5, 0.7), 11,
                "-0x1.9c9a8e448a2c0p-3", "0x1.a013f20f48005p-9",
            ),
            (  # blotto2 q = 33
                BlottoParams.from_ratio(1.0, 0.8, 1.0 - 1.0 / 33.5), 12,
                "-0x1.84d8d09f788f1p-8", "0x1.a0b9a8ad39199p-9",
            ),
            (  # lotto3 low regime
                LottoParams(0.5, 0.5, 0.2), 13,
                "-0x1.6540cc78e9f6bp-1", "0x1.0d30896b64feap-9",
            ),
            (  # lotto3 high regime
                LottoParams(0.6, 0.3, 0.8), 14,
                "0x1.5809c2ec13816p-4", "0x1.35146e4ac45aep-9",
            ),
            (  # lotto3 mid regime
                LottoParams(0.6, 0.3, 0.5), 15,
                "-0x1.f1af80b8e168cp-3", "0x1.33fb652dbec0ep-9",
            ),
            (  # blotto2 q = 33 with geometric masses down to 20^-16
                BlottoParams.from_ratio(1.0, 0.05, 1.0 - 1.0 / 33.5), 16,
                "0x1.f1531a1bec4b1p-11", "0x1.1777a77607b46p-8",
            ),
            (  # lotto3 low regime: one-atom informed marginals draw nothing
                (LottoParams(0.5, 0.5, 0.2), 200_000), 21,
                "-0x1.65e3fbbd7b203p-1", "0x1.0cdf4412f1a4fp-10",
            ),
            (  # blotto2 q = 33: atoms only, scored by thresholds
                (BlottoParams.from_ratio(1.0, 0.8, 1.0 - 1.0 / 33.5), 200_000), 22,
                "-0x1.c32dcfbd71cdap-10", "0x1.a004a725120dcp-10",
            ),
            (  # lotto3 high regime, state counts 65775, 65223 and 65611
                (LottoParams(0.6, 0.3, 0.8), 3 * 2**16 + 1), 23,
                "0x1.4dad51e5aa508p-4", "0x1.38a034ac86bd9p-10",
            ),
        ],
        ids=[
            "blotto2-q3", "blotto2-q33", "lotto3-low", "lotto3-high", "lotto3-mid",
            "blotto2-q33-geometric", "lotto3-low-200k", "blotto2-q33-200k",
            "lotto3-high-chunks",
        ],
    )
    def test_stream_is_pinned(self, params, seed, mean, se):
        params, samples = params if isinstance(params, tuple) else (params, 50_000)
        build = build_blotto if isinstance(params, BlottoParams) else build_lotto
        got = monte_carlo_value(
            build(params), params.valuation_matrix, params.prior, samples, seed
        )
        assert (got[0].hex(), got[1].hex()) == (mean, se)

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


def sign_scored_monte_carlo(profile, values, prior, samples, seed):
    # the x - y, np.sign, * v scoring that monte_carlo_value must reproduce
    # bit for bit, on the same uniforms in the same order, each battlefield's
    # drawn in one piece: a (count, k) block, k the marginals of the pair
    # that are not one atom (a one-atom marginal's quantile is its location)
    rng = np.random.Generator(np.random.Philox(seed))
    vals = np.asarray(values.values)
    payoff = np.zeros(samples)
    start = 0
    for i, count in enumerate(rng.multinomial(samples, prior.weights)):
        block = payoff[start : start + count]
        start += count
        for v, f, g in zip(vals[i], profile.informed[i], profile.uninformed):
            reads = [bool(h.segments) or len(h.atoms) > 1 for h in (f, g)]
            u = rng.random((count, sum(reads)))
            a = u[:, 0] if reads[0] else np.zeros(count)
            b = u[:, -1] if reads[1] else np.zeros(count)
            x = f.ppf(a)
            x -= g.ppf(b)
            np.sign(x, out=x)
            x *= v
            block += x
    std_error = float(payoff.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return float(payoff.mean()), std_error


# -0.0 and 0.0 compare equal, so a marginal holds at most one of them
_TIE_LOCATIONS = (-0.0, 0.0, 0.5, 1.0, 1.5, 2.0)


@st.composite
def tied_marginals(draw, ramps=True):
    # atoms on locations every marginal shares, so the two players tie with
    # positive probability, and sometimes a ramp above them
    if draw(st.integers(0, 19)) == 0:
        # more than 255 atoms, on a lattice through the shared locations:
        # the component index is bisected, not counted in a uint8
        size = draw(st.integers(256, 300))
        ratio = draw(st.floats(0.95, 1.05))
        total = math.fsum(ratio**k for k in range(size))
        return PiecewiseCdf(atoms=tuple((0.25 * k, ratio**k / total) for k in range(size)))
    locs = draw(st.lists(st.sampled_from(_TIE_LOCATIONS), min_size=1, max_size=5, unique=True))
    ramp = ramps and draw(st.booleans())
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(locs) + ramp,
                            max_size=len(locs) + ramp))
    total = math.fsum(weights)
    masses = [w / total for w in weights]
    atoms = tuple(zip(sorted(locs), masses))
    segments = ((2.0, 3.0, masses[-1]),) if ramp else ()
    return PiecewiseCdf(atoms=atoms, segments=segments)


@st.composite
def tied_games(draw, ramps=True):
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    profile = StrategyProfile(
        informed=[[draw(tied_marginals(ramps)) for _ in range(n)] for _ in range(m)],
        uninformed=[draw(tied_marginals(ramps)) for _ in range(n)],
    )
    values = ValuationMatrix(
        tuple(tuple(draw(st.floats(0.1, 3.0)) for _ in range(n)) for _ in range(m))
    )
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=m, max_size=m))
    prior = Prior(tuple(w / math.fsum(weights) for w in weights))
    return profile, values, prior


# atoms-only games, as every Blotto profile is, take the threshold path
# that never samples the uninformed allocation
@settings(max_examples=60, deadline=None)
@given(
    st.one_of(tied_games(), tied_games(ramps=False)),
    st.integers(1, 3000),
    st.integers(0, 2**32 - 1),
)
def test_comparison_scoring_equals_sign(game, samples, seed):
    got = monte_carlo_value(*game, samples, seed)
    want = sign_scored_monte_carlo(*game, samples, seed)
    assert (got[0].hex(), got[1].hex()) == (want[0].hex(), want[1].hex())


def sample_payoff_sd(profile, values, prior):
    """Exact standard deviation of one Monte Carlo sample's payoff.  Given
    state i the battlefields score independent signs s_j, with mean
    ``battlefield_payoff`` and E[s_j^2] = 1 - P(tie), where ties come only
    from atoms the two marginals share."""
    second_moment = 0.0
    for weight, vals, row in zip(prior.weights, values.values, profile.informed):
        mean_i = var_i = 0.0
        for v, f, g in zip(vals, row, profile.uninformed):
            b = games.battlefield_payoff(f, g)
            g_mass = dict(g.atoms)
            tie = math.fsum(m * g_mass.get(loc, 0.0) for loc, m in f.atoms)
            mean_i += v * b
            var_i += v * v * (1.0 - tie - b * b)
        second_moment += weight * (var_i + mean_i**2)
    return math.sqrt(max(second_moment - ex_ante_payoff(profile, values, prior) ** 2, 0.0))


# Monte Carlo as a second opinion on the exact payoff, which every verdict
# trusts: a battlefield_payoff that scores tied atoms as wins passes every
# certificate in this suite and fails this test.  Agreement is judged by
# Bernstein's inequality with the exact variance, so a correct pair fails at
# most MC_FALSE_ALARM of the time whatever the payoff's distribution: at
# most 5e-5 over MC_EXAMPLES examples.  On typical games the bound is about
# 5.4 sigma/sqrt(n); its range term keeps it valid for rare outcomes and
# covers the rounding of a constant payoff.
MC_SAMPLES = 100_000
MC_EXAMPLES = 50
MC_FALSE_ALARM = 1e-6


def assert_monte_carlo_agrees(game, seed):
    exact = ex_ante_payoff(*game)
    mean, _ = monte_carlo_value(*game, MC_SAMPLES, seed)
    profile, values, prior = game
    # |sample - exact| <= spread: each sample and the exact value lie in
    # [-V, V], V the largest total value of a state
    spread = 2.0 * max(math.fsum(row) for row in values.values)
    sigma = sample_payoff_sd(*game)
    log_term = math.log(2.0 / MC_FALSE_ALARM)
    range_term = spread * log_term / (3.0 * MC_SAMPLES)
    bound = range_term + math.sqrt(range_term**2 + 2.0 * sigma**2 * log_term / MC_SAMPLES)
    assert abs(mean - exact) <= bound, (mean, exact, sigma)


@settings(max_examples=MC_EXAMPLES, deadline=None)
@given(tied_games(), st.integers(0, 2**32 - 1))
def test_monte_carlo_agrees_with_exact_payoff(game, seed):
    assert_monte_carlo_agrees(game, seed)


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize(
    "params", [BlottoParams.from_ratio(1.0, 0.8, 0.91), LottoParams(0.6, 0.3, 0.8)]
)
def test_chunk_boundaries_equal_block_draws(params, extra):
    # one state, so its count is the sample count: a whole number of chunks,
    # one short of it, and one past it
    build = build_blotto if isinstance(params, BlottoParams) else build_lotto
    profile = build(params)
    game = (
        StrategyProfile(informed=profile.informed[:1], uninformed=profile.uninformed),
        ValuationMatrix(params.valuation_matrix.values[:1]),
        Prior((1.0,)),
    )
    samples = 2 * oracle._CHUNK + extra
    got = monte_carlo_value(*game, samples, 3)
    want = sign_scored_monte_carlo(*game, samples, 3)
    assert (got[0].hex(), got[1].hex()) == (want[0].hex(), want[1].hex())


class TestCertify:
    def test_blotto_equilibrium_passes(self):
        cert = certify(build_blotto(BLOTTO), BLOTTO)
        assert cert.passed
        assert cert.game == "blotto2"
        assert cert.claimed_value == pytest.approx(-0.2, abs=1e-12)
        assert cert.deviation_gap_uninformed <= 1e-6
        assert cert.value_residual <= 1e-15

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 0.8])
    def test_lotto_equilibrium_passes(self, gamma):
        params = LottoParams(0.55, 0.35, gamma)
        cert = certify(build_lotto(params), params)
        assert cert.passed
        assert cert.value_residual <= 1e-15

    def test_perturbed_profile_fails(self):
        cert = certify(shifted_uninformed(BLOTTO), BLOTTO)
        assert not cert.passed
        assert max(cert.deviation_gap_uninformed, *cert.deviation_gaps_informed) > 1e-3

    def test_round_trip(self):
        cert = certify(build_blotto(BLOTTO), BLOTTO)
        # the JSON written by ``verify --out`` lists the fields in order
        fields = list(Certificate._fields)
        assert fields[:4] == ["game", "claimed_value", "eps_deviation", "eps_budget"]
        assert list(cert._asdict()) == fields
        again = json.loads(json.dumps(cert._asdict()))
        assert list(again) == fields
        assert again == {k: list(v) if isinstance(v, tuple) else v
                         for k, v in cert._asdict().items()}

    def test_claimed_value_is_the_closed_form(self):
        lotto = LottoParams(0.55, 0.35, 0.5)
        assert claimed_value(BLOTTO) == informed_payoff_blotto(BLOTTO)
        assert claimed_value(lotto) == informed_payoff_lotto(0.55, 0.35, 0.5)
        with pytest.raises(TypeError, match="unsupported params type"):
            claimed_value(BLOTTO.valuation_matrix)
        with pytest.raises(TypeError, match="unsupported params type"):
            certify(build_blotto(BLOTTO), BLOTTO.valuation_matrix)

    def test_pure_deviation_payoff_matches_sign_expectation(self):
        f = PiecewiseCdf(atoms=((1.0, 0.5), (3.0, 0.5)))
        assert pure_deviation_payoff(2.0, f) == pytest.approx(0.0)
        assert pure_deviation_payoff(1.0, f) == pytest.approx(-0.5)
        assert pure_deviation_payoff(4.0, f) == pytest.approx(1.0)


BLOTTO_Q9 = BlottoParams.from_ratio(1.0, 0.5, 1.0 - 1.0 / 9.5)
LOTTO_MID = LottoParams(0.6, 0.3, 0.5)


def shifted_type_1_top(delta):
    # the top atom of informed type 1 (the high type) of q = 9
    profile = build_blotto(BLOTTO_Q9)
    f = shifted(profile.informed[0][0], -1, delta)
    return StrategyProfile(
        informed=((f, f.reflect(BLOTTO_Q9.budget_informed)), profile.informed[1]),
        uninformed=profile.uninformed,
    )


def moved_uninformed_mass():
    # 0.05 from uninformed atom 1 to atom 0 at X_U = 10, as in
    # test_cli's test_verify_perturbed_strategy_exits_one
    atoms = [list(atom) for atom in build_blotto(BLOTTO).uninformed[0].atoms]
    atoms[0][1] += 0.05
    atoms[1][1] -= 0.05
    g = PiecewiseCdf(atoms=tuple(map(tuple, atoms)))
    return StrategyProfile(
        informed=build_blotto(BLOTTO).informed,
        uninformed=(g, g.reflect(BLOTTO.budget_uninformed)),
    )


def failed_checks(cert):
    """The names of the checks ``cert`` fails, against its own thresholds."""
    gap = max(cert.deviation_gap_uninformed, *cert.deviation_gaps_informed)
    residual = max(cert.budget_residual_uninformed, *cert.budget_residuals_informed)
    checks = {
        "deviation": gap > cert.eps_deviation,
        "budget": residual > cert.eps_budget,
        "value": cert.value_residual > cert.eps_deviation,
    }
    return {name for name, failed in checks.items() if failed}


# (profile, params it is certified against, the checks that fail).  The
# Monte Carlo verdict this replaced, |mean - claimed| <= 4 standard errors at
# 200k samples, read |z| <= 2 on every row and caught none of them.
PERTURBATIONS = {
    "q9-uninformed-atom0-1e-2": (
        lambda: shifted_uninformed(BLOTTO_Q9, 1e-2), BLOTTO_Q9, {"deviation"}
    ),
    "q9-uninformed-atom0-1e-3": (
        lambda: shifted_uninformed(BLOTTO_Q9, 1e-3), BLOTTO_Q9, {"deviation"}
    ),
    "q9-type1-top-atom-1e-2": (lambda: shifted_type_1_top(1e-2), BLOTTO_Q9, {"deviation"}),
    "q9-type1-top-atom-1e-3": (lambda: shifted_type_1_top(1e-3), BLOTTO_Q9, {"deviation"}),
    "blotto2-vlow-0.001-off": (
        lambda: build_blotto(BLOTTO),
        BlottoParams.from_ratio(1.0, 0.501, 0.7, 10.0),
        {"deviation"},
    ),
    "blotto2-gamma-0.001-off": (
        lambda: build_blotto(BLOTTO),
        BlottoParams.from_ratio(1.0, 0.5, 0.701, 10.0),
        {"deviation", "budget"},
    ),
    "lotto3-alpha-0.001-off": (
        lambda: build_lotto(LOTTO_MID), LottoParams(0.601, 0.3, 0.5), {"deviation"}
    ),
    "lotto3-gamma-0.001-off": (
        lambda: build_lotto(LOTTO_MID),
        LottoParams(0.6, 0.3, 0.501),
        {"deviation", "budget", "value"},
    ),
    "blotto2-uninformed-mass-move": (moved_uninformed_mass, BLOTTO, {"deviation"}),
}


@pytest.mark.parametrize("case", list(PERTURBATIONS))
def test_perturbation_fails_named_check(case):
    make_profile, params, failing = PERTURBATIONS[case]
    cert = certify(make_profile(), params)
    assert not cert.passed
    assert failed_checks(cert) == failing


# blotto2_q3.json with its uninformed lattice moved onto the informed atoms
# (offset e = 0, which the builder refuses), written by hand: on 7 of the
# profile's informed-uninformed pairs of atoms the two sit at one location,
# so the certificate prices ties, and it fails by its deviation gaps and its
# value residual
TIES = os.path.join(os.path.dirname(__file__), "data", "blotto2_q3_ties.json")


def read_strategy_file(path):
    with open(path) as handle:
        data = json.load(handle)
    return BlottoParams(**data["params"]), StrategyProfile.from_dict(data["profile"])


def tie_heavy_certificate_check():
    """The certificate that ``verify --out`` writes of ``TIES`` is the pinned
    one byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        cert = os.path.join(tmp, "certificate.json")
        cli.main(["verify", "--strategy", TIES, "--out", cert])
        with open(cert, "rb") as written:
            text = written.read()
    with open(TIES.replace(".json", "_certificate.json"), "rb") as pinned:
        assert text == pinned.read()


def test_tie_heavy_blotto_certificate(capsys):
    tie_heavy_certificate_check()
    assert cli.main(["verify", "--strategy", TIES]) == 1
    capsys.readouterr()
    params, profile = read_strategy_file(TIES)
    g1, g2 = profile.uninformed
    shared = [x for row in profile.informed for f, g in zip(row, profile.uninformed)
              for x, _ in f.atoms if x in dict(g.atoms)]
    assert len(shared) == 7
    # every pinned number against the exact reference, in rationals of the
    # file's floats.  Every location is a whole number, so the half-integers
    # of [0, X] meet every value of a pure deviation's step-function payoff
    pay = exact_battlefield_payoff
    values = [[Fraction(v) for v in row] for row in params.valuation_matrix.values]
    weights = [Fraction(w) for w in params.prior.weights]
    interim = [v1 * pay(f1, g1) + v2 * pay(f2, g2)
               for (v1, v2), (f1, f2) in zip(values, profile.informed)]
    value = sum(w * pay_i for w, pay_i in zip(weights, interim))

    def best(budget, payoff):
        point = PiecewiseCdf.point
        return max(payoff(point(k / 2), point(budget - k / 2)) for k in range(int(2 * budget) + 1))

    x_i, x_u = params.budget_informed, params.budget_uninformed
    gap_u = value + best(x_u, lambda x1, x2: sum(
        w * (v1 * pay(x1, f1) + v2 * pay(x2, f2))
        for w, (v1, v2), (f1, f2) in zip(weights, values, profile.informed)))
    gaps_i = [best(x_i, lambda x1, x2: v1 * pay(x1, g1) + v2 * pay(x2, g2)) - pay_i
              for (v1, v2), pay_i in zip(values, interim)]
    with open(TIES.replace(".json", "_certificate.json")) as handle:
        pinned = json.load(handle)
    exact = [gap_u, *gaps_i, abs(value - Fraction(pinned["claimed_value"]))]
    got = [pinned["deviation_gap_uninformed"], *pinned["deviation_gaps_informed"],
           pinned["value_residual"]]
    assert all(abs(Fraction(g) - e) <= 1e-15 for g, e in zip(got, exact)), (got, exact)
    # battlefield 2 is battlefield 1 reflected exactly about each budget
    for (f1, f2), budget in [(profile.uninformed, x_u), *((row, x_i) for row in profile.informed)]:
        assert [(budget - x, m) for x, m in reversed(f1.atoms)] == list(f2.atoms)
    assert pinned["budget_residual_uninformed"] == 0.0
    assert pinned["budget_residuals_informed"] == [0.0, 0.0]
    assert (pinned["claimed_value"], pinned["passed"]) == (informed_payoff_blotto(params), False)


# ---------------------------------------------------------------------------
# Each distinct quantity once.  certify's Lotto scan and ex_ante_payoff memo
# their work by the identity of the marginals, which a built profile shares
# across slots.  A profile read back from its record holds equal values in
# distinct objects, so there every slot is worked out on its own: the two
# certificates must agree bit for bit, field for field.
# ---------------------------------------------------------------------------


def read_back(profile):
    return StrategyProfile.from_dict(profile.to_dict())


def slot_by_slot_payoff(profile, values, prior):
    """ex_ante_payoff with no memo: every slot priced, in the same order."""
    return math.fsum(
        w * math.fsum(v * games.battlefield_payoff(f, g)
                      for v, f, g in zip(vals, row, profile.uninformed))
        for w, vals, row in zip(prior.weights, values.values, profile.informed)
    )


def assert_each_slot_worked_out(params, profile):
    again = read_back(profile)
    assert again == profile
    assert repr(certify(again, params)) == repr(certify(profile, params))
    values, prior = params.valuation_matrix, params.prior
    want = slot_by_slot_payoff(profile, values, prior).hex()
    assert ex_ante_payoff(profile, values, prior).hex() == want
    assert ex_ante_payoff(again, values, prior).hex() == want


READ_BACK_CASES = {
    "lotto3-low": LottoParams(0.6, 0.3, 0.2),
    "lotto3-mid": LottoParams(0.6, 0.3, 0.5),
    "lotto3-high": LottoParams(0.6, 0.3, 0.8, 10.0),
    "lotto3-gamma-1": LottoParams(0.5, 0.5, 1.0),
    "blotto2-q3": BlottoParams.from_ratio(1.0, 0.5, 0.7, 10.0),
    "blotto2-q11": BlottoParams.from_ratio(1.0, 0.5, 0.91),
    "blotto2-q33": BlottoParams.from_ratio(1.0, 0.9, 0.97, 100.0),
}


def test_shared_marginal_priced_against_each_opponent():
    # one informed object against two different uninformed marginals: the
    # memo must key each pair, not the informed marginal alone
    f = PiecewiseCdf(atoms=((1.0, 0.5), (2.0, 0.5)))
    g, h = PiecewiseCdf.point(1.5), PiecewiseCdf.point(0.5)
    profile = StrategyProfile(informed=((f, f),), uninformed=(g, h))
    values, prior = ValuationMatrix(((1.0, 1.0),)), Prior((1.0,))
    pay = games.ex_ante_payoff(profile, values, prior)
    assert pay == slot_by_slot_payoff(profile, values, prior) == 1.0


@pytest.mark.parametrize("case", list(READ_BACK_CASES))
def test_read_back_profile_certifies_identically(case):
    params = READ_BACK_CASES[case]
    build = build_blotto if isinstance(params, BlottoParams) else build_lotto
    assert_each_slot_worked_out(params, build(params))


@st.composite
def built_equilibria(draw):
    """(params, profile) of either game over its buildable domain: Blotto at
    an odd q up to 49 with gamma inside its step, Lotto in every regime."""
    xu = draw(st.sampled_from([1e-3, 1.0, 10.0, 1e3]))
    if draw(st.booleans()):
        q = draw(st.integers(1, 24)) * 2 + 1
        gamma = 1.0 - 1.0 / (q + draw(st.floats(0.05, 0.95)))
        params = BlottoParams.from_ratio(1.0, draw(st.floats(0.05, 0.95)), gamma, xu)
        return params, build_blotto(params)
    alpha, beta = sorted((draw(st.floats(0.01, 0.99)) for _ in range(2)), reverse=True)
    params = LottoParams(alpha, beta, draw(st.floats(0.01, 1.0)), xu)
    return params, build_lotto(params)


@settings(max_examples=60, deadline=None)
@given(built_equilibria())
def test_read_back_profile_certifies_identically_everywhere(point):
    assert_each_slot_worked_out(*point)


@st.composite
def shared_marginal_games(draw):
    """A 3x3 Lotto game whose slots hold a few marginal objects, each in
    several slots: against several opponents and at several weights."""
    pool = [draw(tied_marginals()) for _ in range(draw(st.integers(1, 3)))]
    pick = st.sampled_from(pool)
    profile = StrategyProfile(
        informed=[[draw(pick) for _ in range(3)] for _ in range(3)],
        uninformed=[draw(pick) for _ in range(3)],
    )
    alpha, beta = sorted((draw(st.floats(0.01, 0.99)) for _ in range(2)), reverse=True)
    return profile, LottoParams(alpha, beta, draw(st.floats(0.01, 1.0)))


@settings(max_examples=100, deadline=None)
@given(shared_marginal_games())
def test_memos_key_the_whole_slot(game):
    # the read-back copy shares no object between slots
    profile, params = game
    again = read_back(profile)
    assert repr(lotto_support_optimality(profile, params)) == repr(
        lotto_support_optimality(again, params)
    )
    values, prior = params.valuation_matrix, params.prior
    want = slot_by_slot_payoff(profile, values, prior).hex()
    assert ex_ante_payoff(profile, values, prior).hex() == want


def test_one_wrong_lotto_slot_is_seen():
    # a memo keyed too coarsely (by battlefield, by value index) would read
    # a shared slot's slack for the one slot that differs
    params = LottoParams(0.6, 0.3, 0.8)
    profile = build_lotto(params)
    odd = PiecewiseCdf.uniform(0.0, 2.0 * profile.uninformed[0].breakpoints()[-1])
    for i, j in [(0, 0), (1, 2), (2, 1)]:
        informed = [list(row) for row in profile.informed]
        informed[i][j] = odd
        cert = certify(StrategyProfile(informed, profile.uninformed), params)
        assert cert.deviation_gaps_informed[i] > 1e-3, (i, j)
        others = [gap for k, gap in enumerate(cert.deviation_gaps_informed) if k != i]
        assert max(others) <= oracle.EPS_DEVIATION, (i, j)


def test_lotto_certify_works_out_each_distinct_pair_once(monkeypatch):
    # 4 distinct marginals in 12 slots: 3 distinct (informed, uninformed)
    # pairs priced instead of 9, and 6 support scans instead of 12, which
    # query 48 points; 1 more query prices the one pair with an atom.  The
    # slot-by-slot checks made 9 payoffs and 75 queries
    params = LottoParams(0.6, 0.3, 0.8)
    profile = build_lotto(params)
    calls = {"battlefield_payoff": 0, "masses": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    monkeypatch.setattr(games, "battlefield_payoff",
                        counted("battlefield_payoff", games.battlefield_payoff))
    monkeypatch.setattr(PiecewiseCdf, "masses", counted("masses", PiecewiseCdf.masses))
    assert certify(profile, params).passed
    assert calls == {"battlefield_payoff": 3, "masses": 49}
    # the params build their matrix and prior once
    assert params.valuation_matrix is params.valuation_matrix
    assert params.prior is params.prior


def test_lotto_budget_residuals_sum_each_distinct_mean_once(monkeypatch):
    # 4 distinct marginals in 12 slots: each marginal sums its mean once
    # and keeps it; the slot-by-slot residuals summed 12 means
    params = LottoParams(0.6, 0.3, 0.8)
    profile = build_lotto(params)
    sums = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def fsum(self, terms):
            sums.append(terms)
            return math.fsum(terms)

    monkeypatch.setattr(distributions, "math", CountingMath())
    slots = [*profile.uninformed, *(f for row in profile.informed for f in row)]
    assert len(slots) == 12 and len({id(f) for f in slots}) == 4
    lotto_budget_residuals(profile, params)
    assert len(sums) == 4
    lotto_budget_residuals(profile, params)
    assert len(sums) == 4


@pytest.mark.parametrize("case", list(READ_BACK_CASES))
def test_kept_means_give_the_residuals_bit_for_bit(case):
    # a read-back profile sums each slot's mean on its own object
    params = READ_BACK_CASES[case]
    build = build_blotto if isinstance(params, BlottoParams) else build_lotto
    profile = build(params)
    again = read_back(profile)
    rows = [profile.uninformed, *profile.informed]
    rows_again = [again.uninformed, *again.informed]
    for row, row_again in zip(rows, rows_again):
        assert games.expected_budget(row).hex() == games.expected_budget(row_again).hex()
    if isinstance(params, LottoParams):
        res_u, res_i = lotto_budget_residuals(profile, params)
        again_u, again_i = lotto_budget_residuals(again, params)
        assert [r.hex() for r in (res_u, *res_i)] == [r.hex() for r in (again_u, *again_i)]


@pytest.mark.parametrize("gamma", [0.7, 0.91, 0.97])
def test_blotto_certify_builds_no_marginal(monkeypatch, gamma):
    # the complement check compares atoms directly; it reflected and
    # validated one lattice per row (3 marginals)
    params = BlottoParams.from_ratio(1.0, 0.5, gamma)
    profile = build_blotto(params)
    built = []
    monkeypatch.setattr(PiecewiseCdf, "_validate", lambda self: built.append(self))
    assert certify(profile, params).passed
    assert built == []


# alpha, beta in (0, 1) and gamma in (1e-300, 1e-8): a Monte Carlo verdict
# scored the same sum in every sample there, one ulp off the claimed value
# with a standard error of 0, and failed correct profiles.  The second eight
# have gamma in (1e-17, 1e-11), where the uninformed priced payoff, formed
# as sum(w * cdf) - x with weights of order 1/gamma, rounded every value at
# ulp(1/gamma) and failed two of them (support spreads 0.125 and 9.8e-4)
_TINY_RNG = random.Random(20240801)


def _tiny_gamma_points(lo, hi):
    return [
        (*sorted((_TINY_RNG.uniform(1e-9, 1.0), _TINY_RNG.uniform(1e-9, 1.0)), reverse=True),
         10.0 ** _TINY_RNG.uniform(lo, hi))
        for _ in range(8)
    ]


TINY_GAMMA_POINTS = _tiny_gamma_points(-300.0, -8.0) + _tiny_gamma_points(-17.0, -11.0)


@pytest.mark.parametrize("alpha,beta,gamma", TINY_GAMMA_POINTS)
def test_lotto_certifies_at_tiny_gamma(alpha, beta, gamma):
    params = LottoParams(alpha, beta, gamma)
    cert = certify(build_lotto(params), params)
    assert cert.passed, cert


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
    vals = np.asarray(values.values)

    def pay(xs, budget, row, bf1, bf2):
        return row[0] * (2.0 * ref_cdf(bf1, xs, 0.5) - 1.0) + row[1] * (
            2.0 * ref_cdf(bf2, budget - xs, 0.5) - 1.0
        )

    x_u, x_i = params.budget_uninformed, params.budget_informed
    xs = dense_grid(x_u)
    pay_u = sum(
        prior.weights[i] * pay(xs, x_u, vals[i], *profile.informed[i])
        for i in range(profile.m)
    )
    gap_u = pay_u.max() + ex_ante_payoff(profile, values, prior)
    xs = dense_grid(x_i)
    gaps_i = [
        pay(xs, x_i, vals[i], *profile.uninformed).max() - interim
        for i, interim in enumerate(interim_payoffs(profile, values, prior))
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
    top = 1.05 * max([own.breakpoints()[-1]] + [f.breakpoints()[-1] for _, f in terms])
    off = priced(dense_grid(top), 0.5).max()
    return max(off - max(on), max(on) - min(on))


def dense_lotto_slacks(profile, params, lambdas):
    lam_i, lam_u = lambdas
    vals, weights = np.asarray(params.valuation_matrix.values), params.prior.weights
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
    # as fractions of X_U, like the oracle's
    x_u = params.budget_uninformed
    return slack_u / x_u, [slack / x_u for slack in slacks_i]


def centered_blotto_profile():
    profile = build_blotto(BLOTTO)
    half = PiecewiseCdf.point(BLOTTO.budget_uninformed / 2.0)
    return StrategyProfile(
        informed=profile.informed,
        uninformed=(half, half.reflect(BLOTTO.budget_uninformed)),
    )


def centered_lotto_profile(params):
    # every player puts a third of its budget on every battlefield for sure;
    # each priced payoff then peaks at a one-sided limit off the support
    x_u = params.budget_uninformed
    x_i = params.gamma * x_u
    informed = tuple((PiecewiseCdf.point(x_i / 3.0),) * 3 for _ in range(3))
    uninformed = (PiecewiseCdf.point(x_u / 3.0),) * 3
    return StrategyProfile(informed=informed, uninformed=uninformed)


class TestExactScanCoversDenseGrid:
    @pytest.mark.parametrize(
        "profile",
        [build_blotto(BLOTTO), shifted_uninformed(BLOTTO), centered_blotto_profile()],
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
    def test_lotto(self, case, gamma, monkeypatch):
        params = LottoParams(0.6, 0.3, gamma, 2.0)
        lambdas = multipliers(0.6, 0.3, gamma, 2.0)
        profile = build_lotto(params)
        if case == "perturbed":
            lambdas = (lambdas[0] * 1.2, lambdas[1])
            monkeypatch.setattr(lotto3, "multipliers", lambda *args: lambdas)
        elif case == "centered-atom":
            profile = centered_lotto_profile(params)
        exact = lotto_support_optimality(profile, params)
        ref_u, ref_i = dense_lotto_slacks(profile, params, lambdas)
        assert exact.uninformed >= ref_u - 1e-12
        for slack, ref in zip(exact.informed, ref_i):
            assert slack >= ref - 1e-12


# ---------------------------------------------------------------------------
# Budget scale: every payoff depends on the budgets only through gamma, so
# the exact checks give the same numbers, up to rounding, at every X_U.
# Each case is (equilibrium params, wrong params) as functions of X_U: the
# profile built for the first is checked against the second.
# ---------------------------------------------------------------------------

SCALE_CASES = {
    "lotto3-low": (lambda xu: LottoParams(0.5, 0.5, 0.2, xu),
                   lambda xu: LottoParams(0.5, 0.5, 0.25, xu)),
    "lotto3-mid": (lambda xu: LottoParams(0.6, 0.3, 0.5, xu),
                   lambda xu: LottoParams(0.6, 0.3, 0.55, xu)),
    "lotto3-high": (lambda xu: LottoParams(0.5, 0.5, 0.85, xu),
                    lambda xu: LottoParams(0.5, 0.5, 0.9, xu)),
    "blotto2-q3": (lambda xu: BlottoParams.from_ratio(1.0, 0.5, 0.7, xu),
                   lambda xu: BlottoParams.from_ratio(1.0, 0.55, 0.7, xu)),
    "blotto2-q33": (lambda xu: BlottoParams.from_ratio(1.0, 0.9, 0.97, xu),
                    lambda xu: BlottoParams.from_ratio(1.0, 0.91, 0.97, xu)),
}


def exact_checks(profile, params):
    """(worst deviation gap, worst budget residual, value residual
    ``|ex_ante_payoff - claimed_value|``) of ``profile``."""
    if isinstance(params, BlottoParams):
        gaps = blotto_deviation_gaps(profile, params)
        res_u, res_i = blotto_budget_residuals(profile, params)
    else:
        gaps = lotto_support_optimality(profile, params)
        res_u, res_i = lotto_budget_residuals(profile, params)
    value = ex_ante_payoff(profile, params.valuation_matrix, params.prior)
    return gaps.worst(), max(res_u, *res_i), abs(value - claimed_value(params))


@pytest.mark.parametrize("case", list(SCALE_CASES))
def test_exact_checks_do_not_depend_on_budget_scale(case):
    right, wrong = SCALE_CASES[case]
    build = build_blotto if case.startswith("blotto2") else build_lotto
    unit_gap, unit_res, unit_value = exact_checks(build(right(1.0)), wrong(1.0))
    assert unit_gap > 1e-3
    for k in (-300, -150, -9, 0, 9, 150, 300):
        xu = 10.0**k
        profile = build(right(xu))
        gap, res, value = exact_checks(profile, right(xu))
        assert gap <= oracle.EPS_DEVIATION and res <= oracle.EPS_BUDGET, xu
        assert value <= oracle.EPS_DEVIATION, xu
        gap, res, value = exact_checks(profile, wrong(xu))
        assert gap == pytest.approx(unit_gap, rel=1e-12, abs=0.0), xu
        assert res == pytest.approx(unit_res, rel=1e-12, abs=0.0), xu
        assert value == pytest.approx(unit_value, rel=1e-12, abs=0.0), xu
