"""Domain types and exact expected payoffs for allocation games with one
informed and one uninformed player.

The informed player observes which row of the valuation matrix is realized
(one type per state); the uninformed player knows only the prior.  Payoffs
are evaluated battlefield by battlefield as ``E[sgn(x_a - x_b)]`` under
independent draws, ties worth zero, in closed form from the marginals'
``masses``.  Sums use ``math.fsum``: one rounding on every interpreter.
"""

from __future__ import annotations

import math

from .distributions import MASS_TOL, PiecewiseCdf, _as_float_rows, _Frozen


class OutOfRegimeError(ValueError):
    """Parameters outside the regime where a result applies."""


class UnsupportedCaseError(ValueError):
    """A case the closed-form constructions deliberately do not cover."""


def _require_finite(what, *values):
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{what} must be finite, got {values}")


class ValuationMatrix(_Frozen):
    """State-by-battlefield values: ``values[i][j]`` is what battlefield j
    pays the winner when state i is realized.  All entries positive."""

    _fields = ("values",)

    def __init__(self, values):
        rows = _as_float_rows(values, error=ValueError)
        object.__setattr__(self, "values", rows)
        if not rows or not rows[0]:
            raise ValueError("valuation matrix must be nonempty")
        width = len(rows[0])
        _require_finite("valuations", *(v for row in rows for v in row))
        for row in rows:
            if len(row) != width:
                raise ValueError("valuation matrix rows have unequal lengths")
            if any(v <= 0.0 for v in row):
                raise ValueError("valuations must be strictly positive")

    @property
    def m(self):
        return len(self.values)

    @property
    def n(self):
        return len(self.values[0])


class Prior(_Frozen):
    """Probability vector over states."""

    _fields = ("weights",)

    def __init__(self, weights):
        (w,) = _as_float_rows((weights,), error=ValueError)
        object.__setattr__(self, "weights", w)
        _require_finite("prior weights", *w)
        if not w or any(v <= 0.0 for v in w):
            raise ValueError("prior weights must be strictly positive")
        if abs(sum(w) - 1.0) > MASS_TOL:
            raise ValueError(f"prior weights sum to {sum(w)!r}, not 1")

    @property
    def m(self):
        return len(self.weights)

    @staticmethod
    def uniform(m):
        return Prior((1.0 / m,) * m)


class StrategyProfile(_Frozen):
    """Marginal allocation distributions: one per battlefield for each
    informed type, and one per battlefield for the uninformed player.
    ValueError unless ``informed`` is rows of ``PiecewiseCdf`` slots and
    ``uninformed`` one row of the same length."""

    _fields = ("informed", "uninformed")

    def __init__(self, informed, uninformed):
        try:
            informed = tuple(tuple(row) for row in informed)
            uninformed = tuple(uninformed)
        except TypeError as exc:
            raise ValueError(f"profile rows must be sequences of marginals: {exc}") from exc
        object.__setattr__(self, "informed", informed)
        object.__setattr__(self, "uninformed", uninformed)
        if not informed or not uninformed:
            raise ValueError("profile must contain strategies for both players")
        n = len(uninformed)
        for row in informed:
            if len(row) != n:
                raise ValueError("informed marginals do not match battlefield count")
        for row in (uninformed, *informed):
            for f in row:
                if not isinstance(f, PiecewiseCdf):
                    raise ValueError(f"profile slot {f!r} is not a PiecewiseCdf")

    @property
    def m(self):
        return len(self.informed)

    @property
    def n(self):
        return len(self.uninformed)

    def to_dict(self):
        """The record of the profile in a strategy file: the ``_asdict``
        record of each marginal, in the profile's rows."""
        return {"informed": [[f._asdict() for f in row] for row in self.informed],
                "uninformed": [f._asdict() for f in self.uninformed]}

    @staticmethod
    def from_dict(data):
        """The profile of a ``to_dict`` record, each marginal read back by
        ``PiecewiseCdf(**record)``.  ValueError on a malformed record."""
        try:
            informed = tuple(
                tuple(PiecewiseCdf(**f) for f in row) for row in data["informed"]
            )
            uninformed = tuple(PiecewiseCdf(**f) for f in data["uninformed"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"bad strategy profile record: {exc}") from exc
        return StrategyProfile(informed=informed, uninformed=uninformed)


# ---------------------------------------------------------------------------
# Exact payoff evaluation
# ---------------------------------------------------------------------------


def _clamp_integral(la, ra, lb, rb, rho):
    # rho * integral over [la, ra] of clamp(x - lb, 0, rb - lb) dx as the ramp
    # over [lo, hi] plus the plateau past rb, each a mass times a width: a
    # difference of squares would cancel, and a width squared over/underflows
    lo, hi = max(la, lb), min(ra, rb)
    ramp = 0.5 * (rho * max(hi - lo, 0.0)) * ((lo - lb) + (hi - lb))
    return ramp + rho * (rb - lb) * max(ra - max(la, rb), 0.0)


def pure_deviation_payoff(x, marginal: PiecewiseCdf) -> float:
    """E[sgn(x - Y)] = P(Y < x) - P(Y > x) for a pure allocation x against
    marginal Y, so ties at atoms of Y count zero."""
    below, _, above = marginal.masses(x)
    return below - above


def battlefield_payoff(f_a: PiecewiseCdf, f_b: PiecewiseCdf) -> float:
    """E[sgn(x_a - x_b)] = P(a wins) - P(b wins) under independent draws, as
    E[below - above] of ``f_b.masses(x_a)``: ``pure_deviation_payoff`` per
    atom of ``f_a``, so coinciding atoms count zero, and over each of its
    segments, where it is 2 F_b - 1 a.e., a closed-form integral of F_b."""
    total = 0.0
    for xa, ma in f_a.atoms:
        total += ma * pure_deviation_payoff(xa, f_b)
    for la, ra, rho_a in f_a.segments:
        # integral of F_b over [la, ra]: each atom is a step, each segment a ramp
        area = 0.0
        for xb, mb in f_b.atoms:
            area += mb * max(ra - max(xb, la), 0.0)
        for lb, rb, rho_b in f_b.segments:
            area += _clamp_integral(la, ra, lb, rb, rho_b)
        total += rho_a * (2.0 * area - (ra - la))
    return total


def _check_dimensions(profile: StrategyProfile, values: ValuationMatrix, prior: Prior):
    if profile.m != values.m or prior.m != values.m:
        raise ValueError(
            f"state counts disagree: profile {profile.m}, values {values.m}, prior {prior.m}"
        )
    if profile.n != values.n:
        raise ValueError(
            f"battlefield counts disagree: profile {profile.n}, values {values.n}"
        )


def interim_payoffs(
    profile: StrategyProfile, values: ValuationMatrix, prior: Prior
) -> tuple:
    """Informed player's expected payoff conditional on each state, in state
    order: the ``math.fsum`` of ``values[i][j] * battlefield_payoff`` over
    the battlefields j of state i.

    Each (informed, uninformed) pair of marginal objects is priced once per
    call: a built Lotto profile holds 3 distinct pairs in its 9 slots.  The
    memo is keyed by identity, which the profile holds fixed for the call,
    and a pair's payoff does not depend on its slot, so the value is the
    one pricing every slot gives."""
    _check_dimensions(profile, values, prior)
    priced = {}
    payoffs = []
    for row, marginals in zip(values.values, profile.informed):
        terms = []
        for v, f, g in zip(row, marginals, profile.uninformed):
            key = id(f), id(g)
            if key not in priced:
                priced[key] = battlefield_payoff(f, g)
            terms.append(v * priced[key])
        payoffs.append(math.fsum(terms))
    return tuple(payoffs)


def ex_ante_payoff(
    profile: StrategyProfile, values: ValuationMatrix, prior: Prior
) -> float:
    """Informed player's ex-ante expected payoff: the prior-weighted
    ``math.fsum`` of its ``interim_payoffs``.  The game is zero-sum: the
    uninformed player gets the negative."""
    interim = interim_payoffs(profile, values, prior)
    return math.fsum(w * v for w, v in zip(prior.weights, interim))


def expected_budget(marginals) -> float:
    """Total expected allocation of a list of per-battlefield marginals."""
    return math.fsum(f.mean() for f in marginals)
