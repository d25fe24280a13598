"""Three-battlefield General Lotto with cyclic valuations and an informed,
budget-poor player.

Rows of the valuation matrix are cyclic shifts of (1, alpha, beta), each
normalized by c = 1/(1+alpha+beta); the three states are equally likely.
The informed player's equilibrium payoff splits into three budget regimes,

    gamma in (0, 1/3]:   3*gamma*c - 1
    gamma in (1/3, 2/3]: c*[(1 - 1/(3g))*(3g*a + 1 - a) + 1] - 1
    gamma in (2/3, 1]:   c*[2 - 1/(3g) + a*(2 - 1/g) + 3bg*(1 - 2/(3g))^2] - 1

and in regime k = 1, 2, 3 (low, mid, high) the informed player contests its
k most valued battlefields.  One rule builds the marginals of all three:
uniform pieces stacked from zero, one per contested value, parametrized by
Lagrange multipliers on the expected-budget constraints (lambda_U =
3*gamma*lambda_I throughout; see ``build_equilibrium``).
The marginals decompose the game into independent per-battlefield all-pay
auctions, which is what the oracle module certifies; the payoff branches
above are exactly the values those marginals realize, agree at the regime
boundaries, and the mid and high branches coincide when beta = alpha.
The payoff, gain and value-of-information forms evaluate at a point or at
every point of broadcast arrays, by the same IEEE operations.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from itertools import accumulate

from .distributions import PiecewiseCdf, _as_float_rows, _Frozen
from .games import (
    OutOfRegimeError,
    Prior,
    StrategyProfile,
    ValuationMatrix,
    _require_finite,
)

# atoms whose closed-form mass vanishes at a regime boundary are dropped
_ATOM_DROP_TOL = 5e-13


def _square(x):
    # x * x, not x**2: the C pow() behind ** rounds differently on some
    # inputs, and numpy squares arrays as x * x
    return x * x


def _pick(cond, then, other):
    """``then()`` where ``cond`` holds and ``other()`` elsewhere.  Over an
    array both branches are evaluated at every point, and the one not taken
    may overflow or divide by zero."""
    if getattr(cond, "ndim", 0) == 0:
        return then() if cond else other()
    import numpy as np

    with np.errstate(all="ignore"):
        return np.where(cond, then(), other())


def _check(ok, error, message, *values):
    """Raise ``error`` unless ``ok`` holds, at every point of an array; the
    message is ``message.format(*values)`` at the first point that fails."""
    if getattr(ok, "ndim", 0):
        if ok.all():
            return
        import numpy as np

        first = np.unravel_index(np.argmin(ok), ok.shape)
        values = [np.broadcast_to(v, ok.shape)[first] for v in values]
    elif ok:
        return
    raise error(message.format(*values))


def _sqrt(x):
    if getattr(x, "ndim", 0):
        import numpy as np

        return np.sqrt(x)
    return math.sqrt(x)


def _validate_shape(alpha, beta):
    ok = (1.0 > alpha) & (alpha >= beta) & (beta > 0.0)
    _check(ok, ValueError, "need 1 > alpha >= beta > 0, got alpha={}, beta={}", alpha, beta)


def _validate_gamma(gamma):
    ok = (0.0 < gamma) & (gamma <= 1.0)
    _check(ok, OutOfRegimeError, "budget ratio {} outside (0, 1]", gamma)


class LottoParams(_Frozen):
    """Instance of the cyclic three-battlefield game.  The fields are a
    strategy file's ``params`` record, in order."""

    _fields = ("alpha", "beta", "gamma", "budget_uninformed")
    prior = Prior.uniform(3)

    def __init__(self, alpha, beta, gamma, budget_uninformed=1.0):
        (fields,) = _as_float_rows(((alpha, beta, gamma, budget_uninformed),), error=ValueError)
        for name, value in zip(self._fields, fields):
            object.__setattr__(self, name, value)
        _require_finite("parameters", *fields)
        _validate_shape(self.alpha, self.beta)
        _validate_gamma(self.gamma)
        if self.budget_uninformed <= 0.0:
            raise ValueError(f"budget must be positive, got {self.budget_uninformed}")

    @property
    def scale(self):
        """Row normalization constant c = 1/(1+alpha+beta)."""
        return 1.0 / (1.0 + self.alpha + self.beta)

    # built once per (immutable) instance, as every check reads it: row i is
    # (1, alpha, beta) shifted i places to the right, times the scale c
    @cached_property
    def valuation_matrix(self):
        c = self.scale
        base = (c, c * self.alpha, c * self.beta)
        return ValuationMatrix(tuple(base[-i:] + base[:-i] for i in range(3)))


def regime_of(gamma) -> str:
    _validate_gamma(gamma)
    if gamma <= 1.0 / 3.0:
        return "low"
    if gamma <= 2.0 / 3.0:
        return "mid"
    return "high"


# ---------------------------------------------------------------------------
# Closed-form payoffs
# ---------------------------------------------------------------------------


def payoff_low_branch(alpha, beta, gamma):
    """Closed form valid on gamma in (0, 1/3]."""
    return 3.0 * gamma / (1.0 + alpha + beta) - 1.0


def payoff_mid_branch(alpha, beta, gamma):
    """Closed form valid on gamma in (1/3, 2/3]."""
    c = 1.0 / (1.0 + alpha + beta)
    bracket = (1.0 - 1.0 / (3.0 * gamma)) * (3.0 * gamma * alpha + 1.0 - alpha) + 1.0
    return c * bracket - 1.0


def payoff_high_branch(alpha, beta, gamma):
    """Closed form valid on gamma in (2/3, 1]."""
    c = 1.0 / (1.0 + alpha + beta)
    bracket = (
        2.0
        - 1.0 / (3.0 * gamma)
        + alpha * (2.0 - 1.0 / gamma)
        + 3.0 * beta * gamma * _square(1.0 - 2.0 / (3.0 * gamma))
    )
    return c * bracket - 1.0


def informed_payoff(alpha, beta, gamma):
    """Equilibrium ex-ante payoff to the informed player, at a point or at
    every point of broadcast arrays."""
    _validate_shape(alpha, beta)
    _validate_gamma(gamma)
    low, mid, high = (
        partial(branch, alpha, beta, gamma)
        for branch in (payoff_low_branch, payoff_mid_branch, payoff_high_branch)
    )
    return _pick(gamma <= 1.0 / 3.0, low, lambda: _pick(gamma <= 2.0 / 3.0, mid, high))


def complete_info_baseline(gamma):
    """Equilibrium payoff gamma - 1 of the budget-poor player when neither
    side observes the state, at a point or at every point of arrays."""
    _validate_gamma(gamma)
    return gamma - 1.0


def info_gain(alpha, beta, gamma):
    """Payoff gain from observing the state over ``complete_info_baseline``,
    at a point or at every point of broadcast arrays."""
    return informed_payoff(alpha, beta, gamma) - complete_info_baseline(gamma)


# ---------------------------------------------------------------------------
# Multipliers and equilibrium marginals
# ---------------------------------------------------------------------------


def multipliers(alpha, beta, gamma, budget_uninformed=1.0) -> tuple[float, float]:
    """Unique budget-constraint multipliers (lambda_informed, lambda_uninformed)
    closing both expected-budget constraints in the current regime."""
    _validate_shape(alpha, beta)
    c = 1.0 / (1.0 + alpha + beta)
    regime = regime_of(gamma)
    if regime == "low":
        lam_i = c / budget_uninformed
    elif regime == "mid":
        lam_i = (c / budget_uninformed) * ((1.0 - alpha) / (9.0 * gamma**2) + alpha)
    else:
        lam_i = (c / budget_uninformed) * (
            beta + (1.0 + 3.0 * alpha - 4.0 * beta) / (9.0 * gamma**2)
        )
    lam_u = 3.0 * gamma * lam_i
    # a positive multiple of lam_i no larger than 3 lam_i: covers both
    if not 0.0 < lam_u < math.inf:
        size = "small" if lam_u else "large"
        raise OutOfRegimeError(
            f"uninformed budget {budget_uninformed!r} is too {size} at budget "
            f"ratio {gamma!r}: the multiplier lambda_uninformed is {lam_u!r}"
        )
    return lam_i, lam_u


def _marginal(mass, segments):
    """An atom of ``mass`` at zero and the ``segments``, less an atom or a
    piece that vanishes, up to rounding, at a regime edge."""
    atoms = ((0.0, mass),) if mass > _ATOM_DROP_TOL else ()
    return PiecewiseCdf(atoms=atoms, segments=[s for s in segments if s[1] > s[0]])


def build_equilibrium(params: LottoParams) -> StrategyProfile:
    """Full 3-state x 3-battlefield equilibrium profile.

    In regime k the contested values are v in (1, alpha, beta)[:k], and
    L = 2c/3.  The uninformed marginal stacks one uniform piece of density
    3*lambda_I/(2*v*c) per contested v from zero upwards: the least valued
    v_k first, of length L*v_k*(1/lambda_I - (k-1)/lambda_U), then the
    others in increasing value, of length L*v/lambda_U.  The informed
    marginal of v is uniform on the same piece with density
    3*lambda_U/(2*v*c); the least valued one keeps mass k - lambda_U/lambda_I
    at zero, and an uncontested battlefield is an atom at zero.  In state i
    battlefield j has value index (j - i) mod 3.
    """
    a, b, g = params.alpha, params.beta, params.gamma
    c = params.scale
    lam_i, lam_u = multipliers(a, b, g, params.budget_uninformed)
    k = {"low": 1, "mid": 2, "high": 3}[regime_of(g)]
    values = (1.0, a, b)[:k]
    # piece lengths in units of L from zero upwards, the least valued first
    least = values[-1]
    lengths = [least / lam_i - (k - 1) * least / lam_u]
    lengths += [v / lam_u for v in values[-2::-1]]
    ends = [2.0 * c / 3.0 * end for end in accumulate(lengths)]
    pieces = list(zip([0.0, *ends], ends))[::-1]  # pieces[j] carries values[j]
    s_u = [(lo, hi, 3.0 * lam_i / (2.0 * v * c)) for (lo, hi), v in zip(pieces, values)]
    s_i = [(lo, hi, 3.0 * lam_u / (2.0 * v * c)) for (lo, hi), v in zip(pieces, values)]
    if not all(math.isfinite(x) for seg in s_u + s_i for x in seg):
        # a density is 3 lambda/(2 v c), and lambda X_U does not depend on
        # X_U: a valuation is at fault where its density overflows at X_U = 1
        x_u = params.budget_uninformed
        lam = max(lam_i, lam_u) * x_u
        fault = next((f"valuation {name} = {v!r}" for name, v in zip(("alpha", "beta"), values[1:])
                      if 3.0 * lam / (2.0 * v * c) == math.inf), f"uninformed budget {x_u!r}")
        raise OutOfRegimeError(
            f"{fault} is out of range: a density or a location of the equilibrium "
            "marginals is not finite"
        )
    zero_mass = [0.0] * (k - 1) + [k - lam_u / lam_i]
    by_value = [_marginal(m, [seg]) for m, seg in zip(zero_mass, s_i)]
    by_value += [_marginal(1.0, [])] * (3 - k)
    return StrategyProfile(
        informed=tuple(tuple(by_value[(j - i) % 3] for j in range(3)) for i in range(3)),
        uninformed=(_marginal(0.0, s_u[::-1]),) * 3,
    )


# ---------------------------------------------------------------------------
# Value-of-information analysis (symmetric minor battlefields, beta = alpha)
# ---------------------------------------------------------------------------


def zero_crossing_alpha(gamma) -> float:
    """Threshold on alpha below which the informed player wins (payoff > 0)
    in the symmetric case beta = alpha, for a fixed budget ratio.

    Only defined for gamma > 1/3; below that the informed player cannot
    reach a positive payoff at any alpha.  A returned threshold >= 1 means
    the payoff is positive for every alpha in (0, 1).
    """
    _validate_gamma(gamma)
    if gamma <= 1.0 / 3.0:
        raise OutOfRegimeError(
            f"budget ratio {gamma} <= 1/3: informed payoff is never positive"
        )
    return (1.0 / 3.0 - gamma) / (3.0 * gamma**2 - 4.0 * gamma + 1.0 / 3.0)


def gamma_e(alpha, gamma):
    """Reduced budget ratio at which the informed player's payoff equals the
    uninformed baseline gamma - 1 (with beta = alpha), at a point or at
    every point of broadcast arrays.

    Solves informed_payoff(alpha, alpha, x) = gamma - 1 for x.  The branch
    of the payoff that applies produces either a quadratic (x > 1/3) or a
    linear (x <= 1/3) equation; both are solved in closed form, the
    quadratic through a rationalized root stable down to alpha = 0.
    """
    _check((0.0 <= alpha) & (alpha < 1.0), ValueError, "alpha {} outside [0, 1)", alpha)
    _validate_gamma(gamma)
    c_a = 1.0 / (1.0 + 2.0 * alpha)
    a_term = 2.0 * (1.0 - alpha) * c_a - gamma
    disc = _sqrt(_square(a_term) + 4.0 * _square(c_a) * alpha * (1.0 - alpha))
    root = _pick(
        a_term > 0.0,
        lambda: 2.0 * c_a * (1.0 - alpha) / (3.0 * (a_term + disc)),
        lambda: (disc - a_term) / (6.0 * alpha * c_a),
    )
    # a root below 1/3 means equalization happens in the low-budget regime,
    # where the payoff is linear in the ratio
    return _pick(root >= 1.0 / 3.0, lambda: root, lambda: gamma * (1.0 + 2.0 * alpha) / 3.0)


def max_cost(alpha, gamma):
    """Largest budget fraction the informed player can trade for the state
    observation without ending up below the uninformed baseline, at a point
    or at every point of broadcast arrays."""
    ge = gamma_e(alpha, gamma)
    return _pick(
        ge >= 1.0 / 3.0, lambda: (gamma - ge) / gamma, lambda: 1.0 - (1.0 + 2.0 * alpha) / 3.0
    )


def voi(alpha, gamma, cost):
    """Net payoff change from buying the state observation with a fraction
    ``cost`` of the budget, relative to the uninformed baseline gamma - 1,
    at a point or at every point of broadcast arrays."""
    _check((0.0 <= cost) & (cost < 1.0), ValueError, "information cost {} outside [0, 1)", cost)
    baseline = complete_info_baseline(gamma)
    reduced = (1.0 - cost) * gamma
    _check(reduced > 0.0, ValueError, "reduced budget ratio must be positive")
    return informed_payoff(alpha, alpha, reduced) - baseline
