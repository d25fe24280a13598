"""Which check catches which mistake.  Each row is a hand-written mutant of
the package, patched in with ``monkeypatch``, and the check or test that
catches it: the check must pass on the package as it is and fail with the
mutant in place.  A check that stops catching its mutant fails here."""

import math

import pytest

from infoblotto import PiecewiseCdf, Prior, StrategyProfile, ValuationMatrix
from infoblotto import blotto2, games, lotto3, oracle
from infoblotto.blotto2 import BlottoParams
from infoblotto.distributions import _as_float_rows
from infoblotto.games import _require_finite, expected_budget
from infoblotto.lotto3 import LottoParams
from tests import test_games, test_oracle

BLOTTO = BlottoParams.from_ratio(1.0, 0.5, 0.7, 10.0)
LOTTO = LottoParams(0.6, 0.3, 0.5)

# one battlefield with atoms the two players share and a ramp: a payoff
# that scores ties wrongly, or a sampler that draws the ramp wrongly, moves
# the exact payoff or the Monte Carlo estimate away from the other
_F = PiecewiseCdf(atoms=((1.0, 0.25), (2.0, 0.25)), segments=((2.0, 3.0, 0.5),))
_G = PiecewiseCdf(atoms=((1.0, 0.25), (2.0, 0.75)))
TIED = (
    StrategyProfile(informed=((_F,),), uninformed=(_G,)),
    ValuationMatrix(((1.0,),)),
    Prior((1.0,)),
)


def certificate_check(params, name):
    """The certificate of the package's own equilibrium for ``params``
    passes its ``name`` check: "deviation", "budget" or "value"."""
    game = blotto2 if isinstance(params, BlottoParams) else lotto3
    cert = oracle.certify(game.build_equilibrium(params), params)
    assert name not in test_oracle.failed_checks(cert)


def monte_carlo_check():
    """tests/test_oracle.py::test_monte_carlo_agrees_with_exact_payoff on
    the tied game above, at one seed."""
    test_oracle.assert_monte_carlo_agrees(TIED, seed=1)


def exact_reference_check():
    """tests/test_games.py::test_payoffs_match_exact_reference on its
    explicit example, whose two marginals tie at two atoms."""
    test_games.assert_matches_exact_reference(test_games.TIE_EXAMPLE)


# ---------------------------------------------------------------------------
# Mutants
# ---------------------------------------------------------------------------


def blotto_types_swapped(monkeypatch):
    # each informed type plays the other type's marginals
    build = blotto2.build_equilibrium

    def mutant(params, **kwargs):
        profile = build(params, **kwargs)
        return StrategyProfile(informed=profile.informed[::-1], uninformed=profile.uninformed)

    monkeypatch.setattr(blotto2, "build_equilibrium", mutant)


def lotto_types_rotated(monkeypatch):
    # informed type i plays type i + 1's marginals
    build = lotto3.build_equilibrium

    def mutant(params):
        profile = build(params)
        informed = profile.informed[1:] + profile.informed[:1]
        return StrategyProfile(informed=informed, uninformed=profile.uninformed)

    monkeypatch.setattr(lotto3, "build_equilibrium", mutant)


def masses_tie_below(monkeypatch):
    # the atom at x counted in P(X < x)
    masses = PiecewiseCdf.masses

    def mutant(self, x):
        below, at, above = masses(self, x)
        return below + at, 0.0, above

    monkeypatch.setattr(PiecewiseCdf, "masses", mutant)


def masses_tie_above(monkeypatch):
    # the atom at x counted in P(X > x)
    masses = PiecewiseCdf.masses

    def mutant(self, x):
        below, at, above = masses(self, x)
        return below, 0.0, above + at

    monkeypatch.setattr(PiecewiseCdf, "masses", mutant)


def ppf_squared(monkeypatch):
    # quantiles read at u * u: draws pile up at the low end
    ppf = PiecewiseCdf.ppf
    monkeypatch.setattr(PiecewiseCdf, "ppf", lambda self, u: ppf(self, u * u))


def payoff_negated(monkeypatch):
    # the battlefield payoff of the uninformed player, not the informed one
    payoff = games.battlefield_payoff
    monkeypatch.setattr(games, "battlefield_payoff", lambda f_a, f_b: -payoff(f_a, f_b))


def payoff_tie_as_win(monkeypatch):
    # a tie at shared atoms scored +1 instead of 0
    payoff = games.battlefield_payoff

    def mutant(f_a, f_b):
        at_b = dict(f_b.atoms)
        return payoff(f_a, f_b) + math.fsum(m * at_b.get(x, 0.0) for x, m in f_a.atoms)

    monkeypatch.setattr(games, "battlefield_payoff", mutant)


def memo_keyed_by_informed(monkeypatch):
    # interim_payoffs' memo keyed by the informed marginal alone
    def mutant(profile, values, prior):
        priced = {}
        payoffs = []
        for row, marginals in zip(values.values, profile.informed):
            terms = []
            for v, f, g in zip(row, marginals, profile.uninformed):
                if id(f) not in priced:
                    priced[id(f)] = games.battlefield_payoff(f, g)
                terms.append(v * priced[id(f)])
            payoffs.append(math.fsum(terms))
        return tuple(payoffs)

    monkeypatch.setattr(games, "interim_payoffs", mutant)


def lotto_residual_reads_xu(monkeypatch):
    # lotto_budget_residuals reads X_I as X_U
    def mutant(profile, params):
        x_i = x_u = params.budget_uninformed
        res_u = abs(expected_budget(profile.uninformed) - x_u) / x_u
        return res_u, tuple(abs(expected_budget(row) - x_i) / x_u for row in profile.informed)

    monkeypatch.setattr(oracle, "lotto_budget_residuals", mutant)


def blotto_params_accept_informed_above(monkeypatch):
    # the budget check lost its upper half: 0 < X_I, with X_I > X_U let in
    def mutant(self, vbar, vlow, budget_informed, budget_uninformed):
        ((vbar, vlow, x_i, x_u),) = _as_float_rows(
            ((vbar, vlow, budget_informed, budget_uninformed),), error=ValueError
        )
        _require_finite("budgets", x_i, x_u)
        if not 0.0 < x_i:
            raise ValueError(f"budgets must satisfy 0 < X_I <= X_U, got {x_i}, {x_u}")
        object.__setattr__(self, "budget_informed", x_i)
        object.__setattr__(self, "budget_uninformed", x_u)
        object.__setattr__(self, "vbar", vbar)
        object.__setattr__(self, "vlow", vlow)
        blotto2._require_values(vbar, vlow)

    monkeypatch.setattr(BlottoParams, "__init__", mutant)


TIE_FILE_TEST = "tests/test_oracle.py::test_tie_heavy_blotto_certificate"

# mutant -> (its patch, {what catches it: the check itself}); every check
# must catch it
MUTANTS = {
    "blotto2.build_equilibrium types swapped": (
        blotto_types_swapped,
        {"oracle.certify: deviation": lambda: certificate_check(BLOTTO, "deviation")},
    ),
    "lotto3.build_equilibrium types rotated": (
        lotto_types_rotated,
        {"oracle.certify: deviation": lambda: certificate_check(LOTTO, "deviation")},
    ),
    # every certificate of the package's equilibria passes under this one;
    # the tie-heavy file's certificate moves
    "PiecewiseCdf.masses tie below": (
        masses_tie_below,
        {"tests/test_games.py::test_payoffs_match_exact_reference": exact_reference_check,
         TIE_FILE_TEST: test_oracle.tie_heavy_certificate_check},
    ),
    "PiecewiseCdf.masses tie above": (
        masses_tie_above,
        {"oracle.certify: deviation": lambda: certificate_check(LOTTO, "deviation")},
    ),
    "PiecewiseCdf.ppf at u squared": (
        ppf_squared,
        {"tests/test_oracle.py::test_monte_carlo_agrees_with_exact_payoff": monte_carlo_check},
    ),
    "games.battlefield_payoff negated": (
        payoff_negated,
        {"oracle.certify: value": lambda: certificate_check(BLOTTO, "value")},
    ),
    # passes every certificate of the package's equilibria: the exact
    # reference, the tie-heavy file's certificate, and Monte Carlo, which
    # scores its sampled ties without battlefield_payoff, see it
    "games.battlefield_payoff tie as win": (
        payoff_tie_as_win,
        {"tests/test_games.py::test_payoffs_match_exact_reference": exact_reference_check,
         TIE_FILE_TEST: test_oracle.tie_heavy_certificate_check},
    ),
    # equivalent on every built profile, whose marginals each face one
    # opponent marginal
    "games.interim_payoffs memo keyed by informed marginal": (
        memo_keyed_by_informed,
        {"tests/test_oracle.py::test_shared_marginal_priced_against_each_opponent":
         test_oracle.test_shared_marginal_priced_against_each_opponent},
    ),
    "oracle.lotto_budget_residuals X_I read as X_U": (
        lotto_residual_reads_xu,
        {"oracle.certify: budget": lambda: certificate_check(LOTTO, "budget")},
    ),
    "BlottoParams accepts X_I > X_U": (
        blotto_params_accept_informed_above,
        {"tests/test_games.py::TestTypes::test_budgets":
         lambda: test_games.TestTypes().test_budgets()},
    ),
}


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutant_is_caught(mutant, monkeypatch):
    patch, checks = MUTANTS[mutant]
    for check in checks.values():
        check()
    patch(monkeypatch)
    for check in checks.values():
        with pytest.raises((AssertionError, pytest.fail.Exception)):
            check()
