"""Mixed univariate distributions: point masses plus uniform-density segments.

Every equilibrium marginal built in this package is a finite mixture of atoms
and constant-density pieces, so its CDF is a right-continuous step function
plus a piecewise-linear ramp.  Keeping that structure explicit lets payoff
integrals be evaluated in closed form (no quadrature, no binning) and makes
inverse-transform sampling exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Structural invariants (total mass, ordering) are enforced at this tolerance.
MASS_TOL = 1e-12


class InvalidDistributionError(ValueError):
    """Atoms/segments that do not describe a probability distribution."""


def _as_float_rows(rows, width):
    out = []
    for row in rows:
        row = tuple(float(v) for v in row)
        if len(row) != width:
            raise InvalidDistributionError(f"expected {width}-tuples, got {row!r}")
        out.append(row)
    return tuple(out)


@dataclass(frozen=True)
class PiecewiseCdf:
    """Distribution on [0, inf) given by atoms and uniform segments.

    atoms: ``(location, mass)`` pairs, locations strictly increasing.
    segments: ``(left, right, density)`` triples, disjoint, left < right.
    Atom locations may touch segment endpoints but never lie in a segment
    interior.  Total mass must equal 1 to within ``MASS_TOL``.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    segments: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", _as_float_rows(self.atoms, 2))
        object.__setattr__(self, "segments", _as_float_rows(self.segments, 3))
        self._validate()

    def _validate(self):
        if not self.atoms and not self.segments:
            raise InvalidDistributionError("empty distribution")
        prev = -np.inf
        for loc, mass in self.atoms:
            if loc < 0.0:
                raise InvalidDistributionError(f"atom location {loc} < 0")
            if not 0.0 < mass <= 1.0 + MASS_TOL:
                raise InvalidDistributionError(f"atom mass {mass} outside (0, 1]")
            if loc <= prev:
                raise InvalidDistributionError("atom locations must be strictly increasing")
            prev = loc
        prev_right = -np.inf
        for left, right, density in self.segments:
            if left < 0.0:
                raise InvalidDistributionError(f"segment left {left} < 0")
            if right <= left:
                raise InvalidDistributionError(f"segment [{left}, {right}] is empty")
            if density <= 0.0:
                raise InvalidDistributionError(f"segment density {density} <= 0")
            if left < prev_right - MASS_TOL:
                raise InvalidDistributionError("segments overlap")
            prev_right = right
        for loc, _ in self.atoms:
            for left, right, _ in self.segments:
                if left + MASS_TOL < loc < right - MASS_TOL:
                    raise InvalidDistributionError(
                        f"atom at {loc} lies inside segment ({left}, {right})"
                    )
        total = self.total_mass()
        if abs(total - 1.0) > MASS_TOL:
            raise InvalidDistributionError(f"total mass {total!r} != 1")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point(location):
        """Deterministic allocation: a single unit atom."""
        return PiecewiseCdf(atoms=((location, 1.0),))

    @staticmethod
    def uniform(left, right):
        """Uniform distribution on [left, right]."""
        return PiecewiseCdf(segments=((left, right, 1.0 / (right - left)),))

    # -- basic functionals -------------------------------------------------

    def total_mass(self):
        return sum(m for _, m in self.atoms) + sum(
            rho * (r - l) for l, r, rho in self.segments
        )

    def mean(self):
        """Expected value, exact."""
        mu = sum(loc * m for loc, m in self.atoms)
        mu += sum(rho * (r * r - l * l) / 2.0 for l, r, rho in self.segments)
        return mu

    def support_min(self):
        lo = [self.atoms[0][0]] if self.atoms else []
        lo += [self.segments[0][0]] if self.segments else []
        return min(lo)

    def support_max(self):
        hi = [self.atoms[-1][0]] if self.atoms else []
        hi += [self.segments[-1][1]] if self.segments else []
        return max(hi)

    def breakpoints(self):
        """Locations where the CDF changes slope or jumps, sorted."""
        pts = {loc for loc, _ in self.atoms}
        for l, r, _ in self.segments:
            pts.add(l)
            pts.add(r)
        return sorted(pts)

    # -- CDF evaluation (vectorized over numpy arrays) ---------------------

    def cdf(self, x, tie=1.0):
        """P(X < x) + tie * P(X = x).

        ``tie=1`` is the right-continuous CDF P(X <= x), ``tie=0`` its left
        limit P(X < x), and ``tie=0.5`` the tie-neutral win measure at atoms.
        """
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for loc, mass in self.atoms:
            out += mass * ((x > loc) + tie * (x == loc))
        for l, r, rho in self.segments:
            out += rho * np.clip(x - l, 0.0, r - l)
        return out if out.shape else float(out)

    # -- inverse transform sampling ----------------------------------------

    @cached_property
    def _inverse_table(self):
        # Components (low, high, mass, slope) sorted by support position;
        # within equal left edges an atom (high == low) precedes a segment
        # starting there, matching CDF jump order.
        comps = [(loc, loc, mass, 0.0) for loc, mass in self.atoms]
        comps += [(l, r, rho * (r - l), 1.0 / rho) for l, r, rho in self.segments]
        lows, _, masses, slopes = np.array(sorted(comps)).T
        cum_hi = np.cumsum(masses)
        return lows, slopes, cum_hi - masses, cum_hi

    def ppf(self, u):
        """Quantile function; maps uniforms in [0, 1) to allocations."""
        lows, slopes, cum_lo, cum_hi = self._inverse_table
        u = np.asarray(u, dtype=float)
        idx = np.minimum(np.searchsorted(cum_hi, u, side="right"), len(lows) - 1)
        x = lows[idx] + (u - cum_lo[idx]) * slopes[idx]
        return x if x.shape else float(x)

    # -- transforms ---------------------------------------------------------

    def reflect(self, total):
        """Distribution of ``total - X``; used for the two-battlefield
        complement allocation."""
        atoms = tuple((total - loc, mass) for loc, mass in reversed(self.atoms))
        segments = tuple(
            (total - r, total - l, rho) for l, r, rho in reversed(self.segments)
        )
        return PiecewiseCdf(atoms=atoms, segments=segments)

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        return {
            "atoms": [[loc, mass] for loc, mass in self.atoms],
            "segments": [[l, r, rho] for l, r, rho in self.segments],
        }

    @staticmethod
    def from_dict(data):
        if not isinstance(data, dict) or set(data) - {"atoms", "segments"}:
            raise InvalidDistributionError(f"bad distribution record: {data!r}")
        return PiecewiseCdf(
            atoms=tuple(tuple(a) for a in data.get("atoms", ())),
            segments=tuple(tuple(s) for s in data.get("segments", ())),
        )
