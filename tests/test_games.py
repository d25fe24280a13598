import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import infoblotto
from infoblotto import (
    InvalidDistributionError,
    PiecewiseCdf,
    Prior,
    StrategyProfile,
    ValuationMatrix,
    battlefield_payoff,
    ex_ante_payoff,
    expected_budget,
    interim_payoffs,
)
from infoblotto import games
from infoblotto.blotto2 import BlottoIndex, BlottoParams
from infoblotto.lotto3 import LottoParams
from infoblotto.games import _clamp_integral, pure_deviation_payoff
from tests.test_distributions import piecewise_cdfs


class TestTypes:
    def test_symmetric_pair_normalization(self):
        v = BlottoParams(1.0, 0.5, 0.7, 1.0).valuation_matrix
        assert v.values == ((2 / 3, 1 / 3), (1 / 3, 2 / 3))

    def test_cyclic_rows_sum_to_one(self):
        v = LottoParams(0.6, 0.3, 0.5).valuation_matrix
        for row in v.values:
            assert sum(row) == pytest.approx(1.0, abs=1e-12)
        # rows are cyclic shifts of (1, alpha, beta) / (1 + alpha + beta)
        c = 1.0 / 1.9
        assert v.values[1] == pytest.approx((0.3 * c, c, 0.6 * c))
        assert v.values[2] == pytest.approx((0.6 * c, 0.3 * c, c))

    def test_cyclic_ordering_enforced(self):
        with pytest.raises(ValueError, match=re.escape("need 1 > alpha >= beta > 0")):
            LottoParams(0.3, 0.6, 0.5)

    def test_nonpositive_value_rejected(self):
        with pytest.raises(ValueError):
            ValuationMatrix(((1.0, 0.0),))

    def test_prior(self):
        assert Prior.uniform(3).weights == pytest.approx((1 / 3,) * 3)
        # each params class holds one uniform prior over its states
        for params in (BlottoParams(1.0, 0.5, 0.7, 1.0), LottoParams(0.6, 0.3, 0.5)):
            m = params.valuation_matrix.m
            assert params.prior is type(params).prior
            assert params.prior == Prior.uniform(m) and params.prior.weights == (1 / m,) * m
        with pytest.raises(ValueError):
            Prior((0.5, 0.4))
        with pytest.raises(ValueError):
            Prior((1.5, -0.5))

    def test_budgets(self):
        p = BlottoParams(1.0, 0.5, 7, 10)
        assert (p.budget_informed, p.budget_uninformed) == (7.0, 10.0)
        assert type(p.budget_informed) is type(p.budget_uninformed) is float
        assert p.gamma == pytest.approx(0.7)
        assert BlottoParams(1.0, 0.5, 1.0, 1.0).gamma == 1.0  # equality is allowed
        order = "budgets must satisfy 0 < X_I <= X_U, got {}, {}"
        with pytest.raises(ValueError, match=re.escape(order.format(2.0, 1.0))):
            BlottoParams(1.0, 0.5, 2.0, 1.0)
        with pytest.raises(ValueError, match=re.escape(order.format(0.0, 1.0))):
            BlottoParams(1.0, 0.5, 0.0, 1.0)
        # the budgets are checked before the values
        with pytest.raises(ValueError, match=re.escape(order.format(2.0, 1.0))):
            BlottoParams(0.5, 1.0, 2.0, 1.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ValuationMatrix(((1.0, bad),))
        with pytest.raises(ValueError, match="finite"):
            Prior((bad, 0.5))
        for x_i, x_u in [(0.5, bad), (bad, 1.0)]:
            message = f"budgets must be finite, got {(x_i, x_u)}"
            with pytest.raises(ValueError, match=re.escape(message)):
                BlottoParams(1.0, 0.5, x_i, x_u)

    @pytest.mark.parametrize("build, error", [
        (lambda: ValuationMatrix(5), ValueError),
        (lambda: ValuationMatrix([[1, None]]), ValueError),
        (lambda: Prior(5), ValueError),
        (lambda: Prior([None]), ValueError),
        (lambda: PiecewiseCdf(atoms=5), InvalidDistributionError),
        (lambda: PiecewiseCdf(atoms=[5]), InvalidDistributionError),
        (lambda: PiecewiseCdf(atoms=[(None, 1.0)]), InvalidDistributionError),
        (lambda: BlottoParams(None, 0.5, 0.7, 1.0), ValueError),
        (lambda: LottoParams(0.6, None, 0.5), ValueError),
    ], ids=["matrix-number", "matrix-none", "prior-number", "prior-none", "atoms-number",
            "atom-number", "atom-none", "blotto-none", "lotto-none"])
    def test_malformed_input_refused(self, build, error):
        # each raised a bare TypeError from its float conversion
        with pytest.raises(error, match="expected numbers"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: ValuationMatrix([[10**400]]),
        lambda: Prior([10**400]),
        lambda: PiecewiseCdf(atoms=[(10**400, 1.0)]),
        lambda: BlottoParams(10**400, 0.5, 0.7, 1.0),
        lambda: LottoParams(10**400, 0.3, 0.5),
    ], ids=["matrix", "prior", "atom", "blotto", "lotto"])
    def test_integer_too_large_for_a_float_refused(self, build):
        # each raised a bare OverflowError from its float conversion
        with pytest.raises(ValueError, match="expected numbers: int too large"):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: ValuationMatrix([]), "nonempty"),
        (lambda: ValuationMatrix([[]]), "nonempty"),
        (lambda: ValuationMatrix([[1.0, 2.0], [1.0]]), "unequal lengths"),
        (lambda: StrategyProfile(informed=(), uninformed=(PiecewiseCdf.point(1.0),)),
         "both players"),
        (lambda: StrategyProfile(informed=((PiecewiseCdf.point(1.0),),), uninformed=()),
         "both players"),
    ], ids=["matrix-no-rows", "matrix-empty-row", "matrix-ragged", "profile-no-informed",
            "profile-no-uninformed"])
    def test_empty_or_ragged_refused(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_profile_shape_checked(self):
        f = PiecewiseCdf.point(1.0)
        with pytest.raises(ValueError):
            StrategyProfile(informed=((f,),), uninformed=(f, f))

    def test_profile_slots_are_marginals(self):
        # a flat row raised TypeError from tuple(row), a number was let in
        f = PiecewiseCdf.point(1.0)
        with pytest.raises(ValueError, match="sequences of marginals"):
            StrategyProfile(informed=(f, f), uninformed=(f, f))
        with pytest.raises(ValueError, match="sequences of marginals"):
            StrategyProfile(informed=((f, f),), uninformed=f)
        for informed, uninformed in [(((f, 1.0),), (f, f)), (((f, f),), (f, 0.5))]:
            with pytest.raises(ValueError, match="is not a PiecewiseCdf"):
                StrategyProfile(informed=informed, uninformed=uninformed)

    def test_params_of_two_games_never_equal(self):
        blotto, lotto = BlottoParams(0.5, 0.4, 0.3, 1.0), LottoParams(0.5, 0.4, 0.3, 1.0)
        # the same four values, in order, of two different games
        assert list(blotto._asdict().values()) == list(lotto._asdict().values())
        assert blotto != lotto and lotto != blotto and len({blotto, lotto}) == 2
        assert blotto == BlottoParams(0.5, 0.4, 0.3, 1) and lotto == LottoParams(0.5, 0.4, 0.3)
        assert hash(blotto) == hash(BlottoParams(0.5, 0.4, 0.3, 1))
        assert repr(lotto) == "LottoParams(alpha=0.5, beta=0.4, gamma=0.3, budget_uninformed=1.0)"

    def test_fields_are_set_once(self):
        # cached tables (valuation_matrix, prior, ...) are read from the
        # fields, so no field, and no table, is assigned after construction
        f = PiecewiseCdf.point(1.0)
        blotto = BlottoParams(1.0, 0.5, 0.7, 1.0)
        records = [f, ValuationMatrix(((1.0,),)), Prior((1.0,)), blotto,
                   LottoParams(0.5, 0.4, 0.3), StrategyProfile(((f,),), (f,)),
                   BlottoIndex.from_params(blotto)]
        for record in records:
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, getattr(record, name))
                with pytest.raises(AttributeError):
                    delattr(record, name)
        matrix = blotto.valuation_matrix
        with pytest.raises(AttributeError):
            blotto.valuation_matrix = ValuationMatrix(((1.0, 1.0), (1.0, 1.0)))
        assert blotto.valuation_matrix is matrix


def test_every_public_name_resolves():
    missing = [name for name in infoblotto.__all__ if not hasattr(infoblotto, name)]
    assert infoblotto.__all__ and missing == []


class TestBattlefieldPayoff:
    def test_deterministic_win(self):
        assert battlefield_payoff(PiecewiseCdf.point(5.0), PiecewiseCdf.point(3.0)) == 1.0

    def test_tie_is_zero(self):
        assert battlefield_payoff(PiecewiseCdf.point(4.0), PiecewiseCdf.point(4.0)) == 0.0

    def test_identical_uniforms(self):
        u = PiecewiseCdf.uniform(0.0, 1.0)
        assert battlefield_payoff(u, u) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_02_vs_uniform_01(self):
        # P(a > b) = 3/4 and P(a < b) = 1/4 by direct double integration,
        # so E[sgn] = 1/2; cross-checked by Monte Carlo below
        a = PiecewiseCdf.uniform(0.0, 2.0)
        b = PiecewiseCdf.uniform(0.0, 1.0)
        exact = battlefield_payoff(a, b)
        assert exact == pytest.approx(0.5, abs=1e-15)

        rng = np.random.Generator(np.random.Philox(123))
        n = 1_000_000
        draws = np.sign(a.ppf(rng.random(n)) - b.ppf(rng.random(n)))
        assert abs(draws.mean() - exact) <= 4.0 * draws.std(ddof=1) / np.sqrt(n)

    def test_atom_against_segment(self):
        seg = PiecewiseCdf.uniform(0.0, 1.0)
        assert battlefield_payoff(PiecewiseCdf.point(1.0), seg) == pytest.approx(1.0)
        assert battlefield_payoff(PiecewiseCdf.point(0.0), seg) == pytest.approx(-1.0)
        # atom at the middle: wins mass below, loses mass above
        assert battlefield_payoff(PiecewiseCdf.point(0.75), seg) == pytest.approx(0.5)

    def test_mixture_against_itself(self):
        f = PiecewiseCdf(atoms=((0.5, 0.5),), segments=((1.0, 2.0, 0.5),))
        assert battlefield_payoff(f, f) == pytest.approx(0.0, abs=1e-15)

    def test_far_apart_segments_win_exactly(self):
        # a difference of squares of locations lost about 1e-12 here
        near = PiecewiseCdf(segments=((0.0, 0.01, 100.0),))
        far = PiecewiseCdf(segments=((3.59, 3.74, 6.666666666666651),))
        assert battlefield_payoff(far, near) == 1.0
        assert battlefield_payoff(near, far) == -1.0


def exact_clamp_integral(la, ra, lb, rb):
    la, ra, lb, rb = map(Fraction, (la, ra, lb, rb))

    def g(x):
        # a Fraction zero: int 0 / 2 is a float, and a float minuend rounds
        # the difference to a float (to 0.0 at widths near 1e-300)
        lo, hi = max(x - lb, Fraction(0)), max(x - rb, Fraction(0))
        return (lo * lo - hi * hi) / 2

    return g(ra) - g(la)


intervals = st.tuples(st.floats(0.0, 100.0), st.floats(1e-6, 10.0)).map(
    lambda t: (t[0], t[0] + t[1])
)


@settings(max_examples=200, deadline=None)
@given(intervals, intervals, st.floats(1e-3, 1e3), st.sampled_from([1e-200, 1.0, 1e200]))
def test_clamp_integral_relative_to_widths(a, b, rho, unit):
    # rho times the integral, to within 1e-15 of rho times the two widths, at
    # budget units whose squares overflow or underflow (the result itself,
    # down to 1e-3 * 1e-6 * 1e-6 units, stays a normal float)
    a, b, rho = (a[0] * unit, a[1] * unit), (b[0] * unit, b[1] * unit), rho / unit
    exact = Fraction(rho) * exact_clamp_integral(*a, *b)
    scale = rho * (a[1] - a[0]) * (b[1] - b[0])
    assert abs(Fraction(_clamp_integral(*a, *b, rho)) - exact) <= 1e-15 * scale


def pairwise_battlefield_payoff(f_a, f_b):
    """Reference: the sign expectation summed over every pair of components,
    with its own copy of the tie rule (coinciding atoms count zero)."""
    total = 0.0
    for xa, ma in f_a.atoms:
        for xb, mb in f_b.atoms:
            if xa > xb:
                total += ma * mb
            elif xa < xb:
                total -= ma * mb
        for lb, rb, rho in f_b.segments:
            w = min(max(xa, lb), rb)
            total += ma * rho * (2.0 * w - lb - rb)
    for la, ra, rho_a in f_a.segments:
        for xb, mb in f_b.atoms:
            w = min(max(xb, la), ra)
            total -= mb * rho_a * (2.0 * w - la - ra)
        for lb, rb, rho_b in f_b.segments:
            below = _clamp_integral(la, ra, lb, rb, rho_b)
            total += rho_a * (2.0 * below - rho_b * (rb - lb) * (ra - la))
    return total


@settings(max_examples=200, deadline=None)
@given(piecewise_cdfs(), piecewise_cdfs())
def test_payoff_equals_pairwise_reference(f, g):
    assert abs(battlefield_payoff(f, g) - pairwise_battlefield_payoff(f, g)) <= 1e-13
    assert abs(battlefield_payoff(f, f) - pairwise_battlefield_payoff(f, f)) <= 1e-13


@settings(max_examples=100, deadline=None)
@given(
    piecewise_cdfs().filter(lambda f: not f.segments),
    st.lists(st.floats(-1.0, 11.0, allow_nan=False), max_size=4),
)
def test_pure_deviation_payoff_is_exact_sign_expectation(f, points):
    # E[sgn(x - Y)] over the atoms in exact arithmetic, at every atom (a tie)
    # and at random points
    for x in [*f.breakpoints(), *points]:
        exact = sum(Fraction(m) * ((x > loc) - (x < loc)) for loc, m in f.atoms)
        assert abs(Fraction(pure_deviation_payoff(x, f)) - exact) <= 4 * math.ulp(1.0)


@settings(max_examples=40, deadline=None)
@given(piecewise_cdfs(), piecewise_cdfs())
def test_payoff_antisymmetry(f, g):
    assert battlefield_payoff(f, g) == pytest.approx(-battlefield_payoff(g, f), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(piecewise_cdfs())
def test_payoff_self_zero(f):
    assert battlefield_payoff(f, f) == pytest.approx(0.0, abs=1e-12)


class TestProfilePayoffs:
    def _identical_profile(self):
        f = PiecewiseCdf(atoms=((1.0, 0.5),), segments=((2.0, 3.0, 0.5),))
        return StrategyProfile(informed=((f, f), (f, f)), uninformed=(f, f))

    def test_identical_strategies_are_worth_zero(self):
        profile = self._identical_profile()
        v = BlottoParams(1.0, 0.25, 0.7, 1.0).valuation_matrix
        assert ex_ante_payoff(profile, v, Prior.uniform(2)) == pytest.approx(0.0, abs=1e-12)

    def test_single_state_deterministic_win(self):
        profile = StrategyProfile(
            informed=((PiecewiseCdf.point(2.0),),),
            uninformed=(PiecewiseCdf.point(1.0),),
        )
        v = ValuationMatrix(((1.0,),))
        assert ex_ante_payoff(profile, v, Prior.uniform(1)) == 1.0
        assert interim_payoffs(profile, v, Prior.uniform(1)) == (1.0,)

    def test_interim_equals_ex_ante_for_single_state(self):
        f = PiecewiseCdf.uniform(0.0, 1.0)
        g = PiecewiseCdf.uniform(0.0, 2.0)
        profile = StrategyProfile(informed=((g,),), uninformed=(f,))
        v = ValuationMatrix(((1.0,),))
        p = Prior.uniform(1)
        assert interim_payoffs(profile, v, p) == (ex_ante_payoff(profile, v, p),)

    def test_deterministic_win_on_all_battlefields(self):
        win = PiecewiseCdf.point(3.0)
        lose = PiecewiseCdf.point(1.0)
        profile = StrategyProfile(
            informed=((win, win, win),) * 3, uninformed=(lose, lose, lose)
        )
        v = LottoParams(0.5, 0.5, 0.5).valuation_matrix
        assert interim_payoffs(profile, v, Prior.uniform(3)) == pytest.approx((1.0,) * 3)

    def test_dimension_mismatch(self):
        profile = self._identical_profile()
        cyclic = LottoParams(0.5, 0.5, 0.5).valuation_matrix
        pair = BlottoParams(1.0, 0.5, 0.7, 1.0).valuation_matrix
        wide = ValuationMatrix(((1.0, 1.0, 1.0), (1.0, 1.0, 1.0)))
        # 3 states in the values, 2 in the profile; 3 in the prior; 3 battlefields
        for values, prior in [(cyclic, Prior.uniform(3)), (pair, Prior.uniform(3)),
                              (wide, Prior.uniform(2))]:
            for payoff in (ex_ante_payoff, interim_payoffs):
                with pytest.raises(ValueError, match="counts disagree"):
                    payoff(profile, values, prior)


class TestExpectedBudget:
    def test_atoms_at_zero(self):
        zeros = [PiecewiseCdf.point(0.0)] * 3
        assert expected_budget(zeros) == 0.0

    def test_uniform_segments(self):
        # three uniforms on [0, 2/3]: total mean is 1
        f = PiecewiseCdf.uniform(0.0, 2.0 / 3.0)
        assert expected_budget([f, f, f]) == pytest.approx(1.0, abs=1e-12)

    def test_additive_and_scales_linearly(self):
        f = PiecewiseCdf(atoms=((1.0, 0.5),), segments=((2.0, 4.0, 0.25),))
        g = PiecewiseCdf.point(2.0)
        base = expected_budget([f, g])
        assert base == pytest.approx(f.mean() + g.mean())
        s = 3.0
        scaled = [
            PiecewiseCdf(
                atoms=tuple((s * loc, m) for loc, m in h.atoms),
                segments=tuple((s * l, s * r, rho / s) for l, r, rho in h.segments),
            )
            for h in (f, g)
        ]
        assert expected_budget(scaled) == pytest.approx(s * base, rel=1e-12)


def rounded_once(terms):
    """The exact sum of the float terms, rounded to a float once."""
    return float(sum(map(Fraction, terms)))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(piecewise_cdfs(), min_size=12, max_size=12),
    st.floats(0.01, 0.99),
    st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
)
def test_sums_round_once(cdfs, alpha, weights):
    # math.fsum gives these on every interpreter; sum() compensates only
    # from Python 3.12 on.  Three terms or more: two are rounded once anyway
    for f in cdfs:
        assert f.total_mass() == rounded_once(
            [m for _, m in f.atoms] + [rho * (r - l) for l, r, rho in f.segments]
        )
        assert f.mean() == rounded_once(
            [loc * m for loc, m in f.atoms]
            + [rho * (r - l) * (0.5 * l + 0.5 * r) for l, r, rho in f.segments]
        )
    assert expected_budget(cdfs) == rounded_once([f.mean() for f in cdfs])

    informed = (cdfs[0:3], cdfs[3:6], cdfs[6:9])
    profile = StrategyProfile(informed=informed, uninformed=cdfs[9:12])
    values = LottoParams(alpha, alpha / 2.0, 0.5).valuation_matrix
    prior = Prior(tuple(w / sum(weights) for w in weights))
    interim = interim_payoffs(profile, values, prior)
    for i, row in enumerate(values.values):
        terms = [v * battlefield_payoff(f, g) for v, f, g in zip(row, informed[i], cdfs[9:])]
        assert interim[i] == rounded_once(terms)
    assert ex_ante_payoff(profile, values, prior) == rounded_once(
        [w * v for w, v in zip(prior.weights, interim)]
    )


def exact_battlefield_payoff(f_a, f_b):
    """E[sgn(x_a - x_b)], ties worth zero, in exact rationals of the two
    marginals' float fields.  Between atoms it is sum m_a m_b sgn(x_a - x_b);
    a segment is integrated exactly against the other side's piecewise-linear
    CDF, by the midpoint rule on each piece between its breakpoints."""
    atoms_a, atoms_b = ([tuple(map(Fraction, a)) for a in f.atoms] for f in (f_a, f_b))
    segs_a, segs_b = ([tuple(map(Fraction, s)) for s in f.segments] for f in (f_a, f_b))

    def below_less_above(segs, x):
        # P(X < x) - P(X > x) over the segments alone, which have no atom at x
        return sum((rho * (2 * min(max(x, l), r) - l - r) for l, r, rho in segs), Fraction(0))

    total = sum(
        (ma * mb * ((xa > xb) - (xa < xb)) for xa, ma in atoms_a for xb, mb in atoms_b),
        Fraction(0),
    )
    total += sum(ma * below_less_above(segs_b, xa) for xa, ma in atoms_a)
    total -= sum(mb * below_less_above(segs_a, xb) for xb, mb in atoms_b)
    for la, ra, rho_a in segs_a:
        cuts = sorted({la, ra, *(p for l, r, _ in segs_b for p in (l, r) if la < p < ra)})
        for p, q in zip(cuts, cuts[1:]):
            total += rho_a * (q - p) * below_less_above(segs_b, (p + q) / 2)
    return total


# a grid shared by every drawn marginal, so that atoms of two marginals
# coincide, and sit on each other's segment ends, often
TIE_GRID = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)


@st.composite
def grid_marginals(draw):
    """A marginal with an atom at some points of ``TIE_GRID`` and a segment
    between some consecutive points, of integer-weighted masses."""
    points = sorted(draw(st.lists(st.sampled_from(TIE_GRID), min_size=1, max_size=4,
                                  unique=True)))
    atoms = [p for p in points if draw(st.booleans())]
    segments = [(l, r) for l, r in zip(points, points[1:]) if draw(st.booleans())]
    if not atoms and not segments:
        atoms = points[:1]
    weights = draw(st.lists(st.integers(1, 5), min_size=len(atoms) + len(segments),
                            max_size=len(atoms) + len(segments)))
    masses = [w / sum(weights) for w in weights]
    return PiecewiseCdf(
        atoms=tuple(zip(atoms, masses)),
        segments=tuple((l, r, m / (r - l)) for (l, r), m in zip(segments, masses[len(atoms):])),
    )


@st.composite
def tied_games(draw):
    """(profile, values, prior) with 1-3 states and battlefields, whose slots
    are drawn from a pool of 3 grid marginals, so one object fills several
    slots and faces several opponents."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pool = draw(st.lists(grid_marginals(), min_size=3, max_size=3))
    slot = st.sampled_from(pool)
    informed = [[draw(slot) for _ in range(n)] for _ in range(m)]
    uninformed = [draw(slot) for _ in range(n)]
    value = st.sampled_from((0.25, 1 / 3, 0.5, 1.0, 2.0))
    values = ValuationMatrix([[draw(value) for _ in range(n)] for _ in range(m)])
    weights = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    prior = Prior([w / sum(weights) for w in weights])
    return StrategyProfile(informed=informed, uninformed=uninformed), values, prior


def assert_matches_exact_reference(game):
    """``battlefield_payoff`` of every slot, ``interim_payoffs`` and
    ``ex_ante_payoff`` of ``game`` to within 4 ulps of 1 per unit of
    valuation and weight of the exact reference."""
    profile, values, prior = game
    ulps = 4 * Fraction(math.ulp(1.0))
    exact = []
    for row, marginals in zip(values.values, profile.informed):
        terms = []
        for v, f, g in zip(row, marginals, profile.uninformed):
            pay = exact_battlefield_payoff(f, g)
            assert abs(Fraction(games.battlefield_payoff(f, g)) - pay) <= ulps
            terms.append(Fraction(v) * pay)
        exact.append(sum(terms))
    for got, want, row in zip(games.interim_payoffs(profile, values, prior), exact,
                              values.values):
        assert abs(Fraction(got) - want) <= ulps * sum(map(Fraction, row))
    want = sum(Fraction(w) * e for w, e in zip(prior.weights, exact))
    scale = sum(Fraction(w) * sum(map(Fraction, row))
                for w, row in zip(prior.weights, values.values))
    assert abs(Fraction(games.ex_ante_payoff(profile, values, prior)) - want) <= ulps * scale


# atoms shared at 1 and 2, one at the end of a segment, each marginal on
# both sides of the profile
_F = PiecewiseCdf(atoms=((1.0, 0.25), (2.0, 0.25)), segments=((2.0, 3.0, 0.5),))
_G = PiecewiseCdf(atoms=((1.0, 0.25), (2.0, 0.75)))
TIE_EXAMPLE = (
    StrategyProfile(informed=((_F, _G),), uninformed=(_G, _F)),
    ValuationMatrix(((1.0, 0.5),)),
    Prior((1.0,)),
)


@settings(max_examples=60, deadline=None)
@given(tied_games())
@example(TIE_EXAMPLE)
def test_payoffs_match_exact_reference(game):
    assert_matches_exact_reference(game)
