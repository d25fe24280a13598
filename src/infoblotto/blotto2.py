"""Two-battlefield Colonel Blotto with an informed, budget-poor player.

State 1 values the battlefields (vbar, vlow)/(vbar+vlow), state 2 swaps
them; both states are equally likely.  The informed player sees the state,
holds budget X_I, and faces an opponent with budget X_U > X_I.  For budget
ratios gamma = X_I/X_U in (1/2, 1) the equilibrium payoff has a closed form
driven by q = floor(X_U / (X_U - X_I)) and the value ratio c = vbar/vlow:

    q odd:   -1 / (2 * S_{(q+1)/2} - 1),  S_h = sum_{k<h} c^k = (c^h - 1)/(c - 1)
    q even:  -(vlow/(vbar+vlow)) / S_{q/2}

For odd q the equilibrium mixed strategies are explicit lattices of atoms
spaced d = X_U - X_I apart with geometrically weighted masses; this module
builds them for q up to 10^5 and refuses any other q with ``OutOfRegimeError``
(the payoff formula covers every q).  Below gamma = 1/2 the stronger player
secures both battlefields and the game is trivial.  The step count q, the
normalised values and the payoff with its gain over -1/q at a point each have
one private function, shared by the public forms, ``closed_forms`` (what
``payoff`` and ``sweep`` print) and the builder.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from itertools import chain

from .distributions import MASS_TOL, PiecewiseCdf, _as_float_rows, _Frozen
from .games import (
    OutOfRegimeError,
    Prior,
    StrategyProfile,
    ValuationMatrix,
    _require_finite,
)


# the largest step count whose lattice is built: q = 100001 took 0.75 s to
# build and 2 s to certify, at 129 MB, on a 2-vCPU host; both grow with q
_MAX_LATTICE = 10**5


def _require_values(vbar, vlow):
    if not math.inf > vbar > vlow > 0.0:
        raise ValueError(f"need finite vbar > vlow > 0, got {vbar}, {vlow}")


def _weights(vbar, vlow, scale=1.0):
    """vbar/(vbar + vlow) and vlow*scale/(vbar + vlow), the builder's lattice
    weight at scale c**k.  Where the sum or vlow*scale overflows, vbar and
    vlow are halved first (exact there) and the scale applies last."""
    total = vbar + vlow
    if total == math.inf or vlow * scale == math.inf:
        total = 0.5 * vbar + 0.5 * vlow
        return 0.5 * vbar / total, 0.5 * vlow / total * scale
    return vbar / total, vlow * scale / total


def _step_count(ratio):
    """q = floor(ratio) for ratio X_U/d, which a sweep (X_U = 1) forms as
    1/(1 - gamma): the same float, as 1 - gamma is exact.  A ratio short of
    an integer by at most four times what the rounding of gamma moves it,
    ratio**2 * 2**-53, and at most a quarter step, counts as that integer:
    the rounding stays below a quarter step up to ratio 2**26 ~ 6.7e7."""
    slack = ratio * ratio * 2.0**-51
    return math.floor(ratio + (slack if slack < 0.25 else 0.25))


class BlottoParams(_Frozen):
    """Instance of the two-battlefield game with symmetric 2x2 valuations.
    The fields are a strategy file's ``params`` record, in order: ``_asdict``
    writes it and ``BlottoParams(**record)`` reads it.  The budgets are
    checked first: finite, with 0 < X_I <= X_U."""

    game = "blotto2"
    _fields = ("vbar", "vlow", "budget_informed", "budget_uninformed")
    prior = Prior.uniform(2)

    def __init__(self, vbar, vlow, budget_informed, budget_uninformed):
        ((vbar, vlow, x_i, x_u),) = _as_float_rows(
            ((vbar, vlow, budget_informed, budget_uninformed),), error=ValueError
        )
        _require_finite("budgets", x_i, x_u)
        if not 0.0 < x_i <= x_u:
            raise ValueError(f"budgets must satisfy 0 < X_I <= X_U, got {x_i}, {x_u}")
        object.__setattr__(self, "budget_informed", x_i)
        object.__setattr__(self, "budget_uninformed", x_u)
        object.__setattr__(self, "vbar", vbar)
        object.__setattr__(self, "vlow", vlow)
        _require_values(vbar, vlow)

    @staticmethod
    def from_ratio(vbar, vlow, gamma, x_uninformed=1.0):
        if not 0.0 < gamma < 1.0:
            raise OutOfRegimeError(f"budget ratio {gamma} outside (0, 1)")
        return BlottoParams(vbar, vlow, gamma * x_uninformed, x_uninformed)

    @staticmethod
    def from_point(point):
        """The params at a point of flags: vbar, vlow, gamma, xu (default 1)."""
        return BlottoParams.from_ratio(point["vbar"], point["vlow"], point["gamma"],
                                       point.get("xu", 1.0))

    def claimed_value(self):
        return informed_payoff(self)

    @property
    def gamma(self):
        return self.budget_informed / self.budget_uninformed

    @property
    def value_ratio(self):
        return self.vbar / self.vlow

    # built once per (immutable) instance, as every check reads them
    @cached_property
    def valuation_matrix(self):
        high, low = _weights(self.vbar, self.vlow)
        return ValuationMatrix(((high, low), (low, high)))


class BlottoIndex(namedtuple("BlottoIndex", "d q r")):
    """Budget geometry: gap d = X_U - X_I, step count q = floor(X_U/d) and
    remainder r with X_U = q*d + r, 0 <= r < d."""

    __slots__ = ()

    @staticmethod
    def from_params(params: BlottoParams):
        x_i, x_u = params.budget_informed, params.budget_uninformed
        if x_i >= x_u:
            raise OutOfRegimeError("Blotto analysis requires X_I < X_U")
        d = x_u - x_i
        q = _step_count(x_u / d)
        r = max(x_u - q * d, 0.0)
        return BlottoIndex(d=d, q=q, r=r)


def _require_payoff_regime(gamma):
    if not 0.5 < gamma < 1.0:
        why = ("< 1/2: the uninformed player can secure both battlefields regardless of "
               "information" if gamma < 0.5 else "outside the open interval (1/2, 1)")
        raise OutOfRegimeError(f"budget ratio gamma = {gamma:.6g} {why}")


def _geometric_sum(c, h):
    """S_h for c > 1, in O(1): (c**h - 1)/(c - 1), with expm1/log1p where
    c**h < 2 and the subtraction would cancel.  Past the float range of
    c**h its 1 is below the last bit, and S_h may still be finite for c > 2.
    Not finite, or OverflowError, where S_h is not a finite float."""
    if h == 1:
        return 1.0
    try:
        power = c**h
    except OverflowError:
        return c ** (h - 1) / (c - 1.0) * c
    if power < 2.0:
        return math.expm1(h * math.log1p(c - 1.0)) / (c - 1.0)
    return (power - 1.0) / (c - 1.0)


def _denominator(c, q):
    """2*S_h - 1 for odd q and S_h for even q, with h = ceil(q/2): the
    payoff is -1 or -vlow/(vbar+vlow) over it.  OutOfRegimeError where it
    is not a finite float."""
    h = (q + 1) // 2
    try:
        total = 2.0 * _geometric_sum(c, h) - 1.0 if q % 2 else _geometric_sum(c, h)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise OutOfRegimeError(
            f"the equilibrium series of value-ratio powers {c!r}**k, k < {h}, "
            "is not a finite float"
        )
    return total


def _point(vbar, vlow, q):
    """(informed_payoff, gross_wagner_payoff, value_of_information) at step
    count q.  OutOfRegimeError where the denominator of the payoff is not a
    finite float, or where (even q only) the payoff underflows."""
    weight = 1.0 if q % 2 else _weights(vbar, vlow)[1]
    payoff = -weight / _denominator(vbar / vlow, q)
    if payoff == 0.0:
        raise OutOfRegimeError(
            f"the even-q payoff -(vlow/(vbar+vlow))/S_{{q/2}} at vbar = {vbar!r}, "
            f"vlow = {vlow!r}, q = {q} underflows to 0"
        )
    # gross_wagner_payoff(q) without its check: every caller has q >= 1
    baseline = -1.0 / q
    return payoff, baseline, payoff - baseline


def informed_payoff(params: BlottoParams) -> float:
    """Ex-ante equilibrium payoff to the informed player; always in (-1, 0)."""
    _require_payoff_regime(params.gamma)
    return _point(params.vbar, params.vlow, BlottoIndex.from_params(params).q)[0]


def closed_forms(point, names=None):
    """Payoff, q, d, r, baseline (``gross_wagner_payoff``) and voi, or the
    ``names`` among them, at ``point``: vbar, vlow and gamma, floats or
    broadcast arrays (then each value is flat, row-major), and xu (default 1).
    Every point's domain is checked first, as ``BlottoParams`` does; then
    each goes through ``_point``, so each value and refusal is the scalar's."""
    values = [point[key] for key in ("vbar", "vlow", "gamma")]
    arrays = any(getattr(value, "ndim", 0) for value in values)
    if arrays:
        import numpy as np
        values = [a.ravel().tolist() for a in np.broadcast_arrays(*values)]
    vbar, vlow, gamma = values if arrays else ([value] for value in values)
    xu = point.get("xu", 1.0)
    for high, low in zip(vbar, vlow):
        _require_values(high, low)
    x_i = [g * xu for g in gamma]  # as BlottoParams.from_ratio forms it
    for budget in x_i:
        _require_payoff_regime(budget / xu)
    # BlottoIndex.from_params at every point, r only where it is asked for
    d = [xu - budget for budget in x_i]
    q = [_step_count(xu / gap) for gap in d]
    points = map(_point, vbar, vlow, q)
    if arrays:  # one float array, as three columns
        points = np.fromiter(chain.from_iterable(points), float).reshape(-1, 3).T
    payoff, baseline, voi = points if arrays else zip(*points)
    columns = dict(payoff=payoff, q=q, d=d, baseline=baseline, voi=voi)
    names = names or ("payoff", "q", "d", "r", "baseline", "voi")
    if "r" in names:
        columns["r"] = [max(xu - k * gap, 0.0) for k, gap in zip(q, d)]
    return {name: columns[name] if arrays else columns[name][0] for name in names}


def gross_wagner_payoff(q: int) -> float:
    """Equilibrium payoff -1/q of the budget-poor player when neither side
    observes the state (homogeneous two-battlefield benchmark)."""
    if q < 1:
        raise ValueError(f"step count q must be >= 1, got {q}")
    return -1.0 / q


def value_of_information(params: BlottoParams) -> float:
    """Payoff gain from observing the state relative to the uninformed
    benchmark with the same budgets; strictly positive in regime."""
    _require_payoff_regime(params.gamma)
    return _point(params.vbar, params.vlow, BlottoIndex.from_params(params).q)[2]


def build_equilibrium(params: BlottoParams, e: float | None = None) -> StrategyProfile:
    """Equilibrium mixed strategies for odd q up to ``_MAX_LATTICE``.

    Battlefield-1 marginals are atomic lattices of spacing d; battlefield-2
    allocations are the budget complements X - x, so each battlefield-2
    marginal is the battlefield-1 marginal reflected about the budget.  The
    free offset ``e`` of the uninformed lattice may be anything in (r, d)
    and defaults to the midpoint; the game value does not depend on it.
    Every other lattice is refused with ``OutOfRegimeError`` before any
    atom: an even q or a q past ``_MAX_LATTICE``, once the closed form is
    known to be finite, and an ``e`` within ``MASS_TOL * X_U`` of r or d,
    where rounding can put the lattice on the informed atoms (the midpoint
    is, where X_U/d is within rounding of an integer).
    """
    _require_payoff_regime(params.gamma)
    idx = BlottoIndex.from_params(params)
    c = params.value_ratio
    q, d = idx.q, idx.d
    s_a = _denominator(c, q)
    if q % 2 == 0 or q > _MAX_LATTICE:
        raise OutOfRegimeError(f"q = {q}: strategies are built only for odd q up to "
                               f"{_MAX_LATTICE} (the equilibrium payoff is still available)")
    default = e is None
    e = (idx.r + idx.d) / 2.0 if default else e
    x_i, x_u = params.budget_informed, params.budget_uninformed
    tol = MASS_TOL * x_u
    if not (e - idx.r > tol and idx.d - e > tol):
        where = f"({idx.r}, {idx.d}) by more than {tol:.3g}"
        raise OutOfRegimeError(
            f"q = {q}: the default offset, the midpoint e = {e}, is not inside {where}: "
            "X_U/d is within rounding of an integer" if default
            else f"offset e = {e} not inside {where}"
        )

    half = (q - 1) // 2
    # s_a normalizes the uninformed lattice and s_b the informed ones: the
    # game value is -1/s_a, and vlow*(1+c)/s_a = vlow/s_b.  c**half is a term
    # of s_a, and S_half is less than s_a, so both are finite here
    boundary_w = _weights(params.vbar, params.vlow, c**half)[1]
    s_b = boundary_w + _geometric_sum(c, half)

    # uninformed lattice: q atoms at e, e+d, ..., weights c^|k - half| (0-based)
    f_u1 = PiecewiseCdf(atoms=[(e + k * d, c ** abs(k - half) / s_a) for k in range(q)])

    # informed atoms sit at k*d, capped at X_I: when X_U/d is an integer up
    # to rounding (r = 0), (q-1)*d can exceed X_I by an ulp, and its budget
    # complement would be negative
    loc = [min(k * d, x_i) for k in range(q)]

    # informed type 2 concentrates low and type 1 high, sharing the boundary
    # atom at loc[half]: type 1's masses are type 2's in reverse
    low = [c**k / s_b for k in range(half)] + [boundary_w / s_b]
    f_i1 = PiecewiseCdf(atoms=zip(loc[half:], reversed(low)))
    f_i2 = PiecewiseCdf(atoms=zip(loc, low))

    return StrategyProfile(
        informed=((f_i1, f_i1.reflect(x_i)), (f_i2, f_i2.reflect(x_i))),
        uninformed=(f_u1, f_u1.reflect(x_u)),
    )
