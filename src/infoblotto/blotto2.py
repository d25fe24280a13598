"""Two-battlefield Colonel Blotto with an informed, budget-poor player.

State 1 values the battlefields (vbar, vlow)/(vbar+vlow), state 2 swaps
them; both states are equally likely.  The informed player sees the state,
holds budget X_I, and faces an opponent with budget X_U > X_I.  For budget
ratios gamma = X_I/X_U in (1/2, 1) the equilibrium payoff has a closed form
driven by q = floor(X_U / (X_U - X_I)) and the value ratio c = vbar/vlow:

    q odd:   -(2 * sum_{k=0}^{(q-1)/2} c^k - 1)^(-1)
    q even:  -(vlow/(vbar+vlow)) * (sum_{k=0}^{q/2-1} c^k)^(-1)

For odd q the equilibrium mixed strategies are explicit lattices of atoms
spaced d = X_U - X_I apart with geometrically weighted masses; this module
constructs them.  Below gamma = 1/2 the stronger player secures both
battlefields and the game is trivial; the even-q strategy construction is
not provided (the payoff formula still is).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import PiecewiseCdf
from .games import (
    Budgets,
    OutOfRegimeError,
    Prior,
    StrategyProfile,
    UnsupportedCaseError,
    ValuationMatrix,
    _require_finite,
)

# floor(X_U / d) is evaluated with this slack so ratios that are integers up
# to rounding do not drop a whole step
_FLOOR_SLACK = 1e-9


@dataclass(frozen=True)
class BlottoParams:
    """Instance of the two-battlefield game with symmetric 2x2 valuations."""

    vbar: float
    vlow: float
    budgets: Budgets

    def __post_init__(self):
        object.__setattr__(self, "vbar", float(self.vbar))
        object.__setattr__(self, "vlow", float(self.vlow))
        _require_finite("valuations", self.vbar, self.vlow)
        if not self.vbar > self.vlow > 0.0:
            raise ValueError(f"need vbar > vlow > 0, got {self.vbar}, {self.vlow}")

    @staticmethod
    def from_ratio(vbar, vlow, gamma, x_uninformed=1.0):
        if not 0.0 < gamma < 1.0:
            raise OutOfRegimeError(f"budget ratio {gamma} outside (0, 1)")
        return BlottoParams(vbar, vlow, Budgets(gamma * x_uninformed, x_uninformed))

    @property
    def gamma(self):
        return self.budgets.gamma

    @property
    def value_ratio(self):
        return self.vbar / self.vlow

    @property
    def valuation_matrix(self):
        return ValuationMatrix.symmetric_pair(self.vbar, self.vlow)

    @property
    def prior(self):
        return Prior.uniform(2)


@dataclass(frozen=True)
class BlottoIndex:
    """Budget geometry: gap d = X_U - X_I, step count q = floor(X_U/d) and
    remainder r with X_U = q*d + r, 0 <= r < d."""

    d: float
    q: int
    r: float

    @staticmethod
    def from_params(params: BlottoParams):
        x_i = params.budgets.informed
        x_u = params.budgets.uninformed
        if x_i >= x_u:
            raise OutOfRegimeError("Blotto analysis requires X_I < X_U")
        d = x_u - x_i
        q = int(math.floor(x_u / d + _FLOOR_SLACK))
        r = max(x_u - q * d, 0.0)
        return BlottoIndex(d=d, q=q, r=r)

    @property
    def is_odd(self):
        return self.q % 2 == 1


def _require_payoff_regime(gamma):
    if gamma < 0.5:
        raise OutOfRegimeError(
            f"budget ratio {gamma:.6g} < 1/2: the uninformed player can secure "
            "both battlefields regardless of information"
        )
    if gamma == 0.5 or gamma >= 1.0:
        raise OutOfRegimeError(
            f"budget ratio {gamma:.6g} outside the open interval (1/2, 1)"
        )


def _series(c, start, stop, scale=1.0, offset=0.0):
    """offset + scale * sum(c**k for k in range(start, stop)), summed in
    ascending k; OutOfRegimeError when a power or the total is not finite."""
    try:
        total = offset + scale * sum(c**k for k in range(start, stop))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise OutOfRegimeError(
            f"the equilibrium series of value-ratio powers {c:.6g}**k, "
            f"k < {stop}, is not a finite float"
        )
    return total


def informed_payoff(params: BlottoParams) -> float:
    """Ex-ante equilibrium payoff to the informed player; always in (-1, 0)."""
    _require_payoff_regime(params.gamma)
    idx = BlottoIndex.from_params(params)
    c = params.value_ratio
    if idx.is_odd:
        return -1.0 / _series(c, 0, (idx.q - 1) // 2 + 1, scale=2.0, offset=-1.0)
    return -(params.vlow / (params.vbar + params.vlow)) / _series(c, 0, idx.q // 2)


def gross_wagner_payoff(q: int) -> float:
    """Equilibrium payoff -1/q of the budget-poor player when neither side
    observes the state (homogeneous two-battlefield benchmark)."""
    if q < 1:
        raise ValueError(f"step count q must be >= 1, got {q}")
    return -1.0 / q


def value_of_information(params: BlottoParams) -> float:
    """Payoff gain from observing the state relative to the uninformed
    benchmark with the same budgets; strictly positive in regime."""
    idx = BlottoIndex.from_params(params)
    return informed_payoff(params) - gross_wagner_payoff(idx.q)


def uninformed_guarantee_condition(n: int, gamma: float) -> bool:
    """Sufficient condition on the budget ratio for the uninformed player to
    guarantee a nonnegative payoff on n battlefields, any prior."""
    if n < 1:
        raise ValueError(f"battlefield count must be >= 1, got {n}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"budget ratio {gamma} outside (0, 1)")
    threshold = 2.0 / n if n % 2 == 0 else 2.0 / (n + 1)
    return gamma < threshold


def equilibrium_normalizers(params: BlottoParams) -> tuple[float, float]:
    """Normalizing constants (s_a, s_b) of the odd-q atomic construction.

    s_a weights the uninformed lattice, s_b the informed ones; the game
    value satisfies vlow*(1+c)/s_a = vlow/s_b in raw (unnormalized) units.
    """
    idx = BlottoIndex.from_params(params)
    if not idx.is_odd:
        raise UnsupportedCaseError("normalizers are defined by the odd-q construction")
    c = params.value_ratio
    half = (idx.q - 1) // 2
    s_a = _series(c, 1, half + 1, scale=2.0, offset=1.0)
    # c**half is a term of s_a, so it is finite here
    s_b = _series(c, 0, half, offset=params.vlow * c**half / (params.vbar + params.vlow))
    return s_a, s_b


def build_equilibrium(params: BlottoParams, e: float | None = None) -> StrategyProfile:
    """Equilibrium mixed strategies for odd q.

    Battlefield-1 marginals are atomic lattices of spacing d; battlefield-2
    allocations are the budget complements X - x, so each battlefield-2
    marginal is the battlefield-1 marginal reflected about the budget.  The
    free offset ``e`` of the uninformed lattice may be anything in (r, d)
    and defaults to the midpoint; the game value does not depend on it.
    """
    _require_payoff_regime(params.gamma)
    idx = BlottoIndex.from_params(params)
    if not idx.is_odd:
        raise UnsupportedCaseError(
            f"q = {idx.q} is even: no strategy construction is provided for "
            "even q (the equilibrium payoff is still available)"
        )
    if e is None:
        e = (idx.r + idx.d) / 2.0
    if not idx.r < e < idx.d:
        raise ValueError(f"offset e = {e} outside the open interval ({idx.r}, {idx.d})")

    c = params.value_ratio
    q, d = idx.q, idx.d
    half = (q - 1) // 2
    x_i = params.budgets.informed
    x_u = params.budgets.uninformed
    s_a, s_b = equilibrium_normalizers(params)
    boundary_w = params.vlow * c**half / (params.vbar + params.vlow)

    # uninformed lattice: q atoms at e, e+d, ..., weights c^|k - half| (0-based)
    f_u1 = PiecewiseCdf(
        atoms=tuple((e + k * d, c ** abs(k - half) / s_a) for k in range(q))
    )

    # informed atoms sit at k*d, capped at X_I: when X_U/d is an integer up
    # to rounding (r = 0), (q-1)*d can exceed X_I by an ulp, and its budget
    # complement would be negative
    loc = [min(k * d, x_i) for k in range(q)]

    # informed type 1 concentrates high, type 2 low, sharing the boundary atom
    t1_atoms = [(loc[half], boundary_w / s_b)]
    t1_atoms += [(loc[k], c ** (q - 1 - k) / s_b) for k in range(half + 1, q)]
    f_i1 = PiecewiseCdf(atoms=tuple(t1_atoms))

    t2_atoms = [(loc[k], c**k / s_b) for k in range(half)]
    t2_atoms += [(loc[half], boundary_w / s_b)]
    f_i2 = PiecewiseCdf(atoms=tuple(t2_atoms))

    return StrategyProfile(
        informed=((f_i1, f_i1.reflect(x_i)), (f_i2, f_i2.reflect(x_i))),
        uninformed=(f_u1, f_u1.reflect(x_u)),
    )
