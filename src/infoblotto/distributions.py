"""Mixed univariate distributions: point masses plus uniform-density segments.

Every equilibrium marginal built in this package is a finite mixture of atoms
and constant-density pieces, so its CDF is a right-continuous step function
plus a piecewise-linear ramp.  Keeping that structure explicit lets payoff
integrals be evaluated in closed form (no quadrature, no binning) and makes
inverse-transform sampling exact.

Everything but sampling is plain Python floats: only the sampling methods
import numpy, so the exact payoff and oracle checks never load it.  The
validated types of the package share ``_Frozen``: each ``__init__`` checks
its fields and sets them once.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cached_property
from itertools import accumulate

# Structural invariants (total mass, ordering) are enforced at this tolerance.
MASS_TOL = 1e-12


class InvalidDistributionError(ValueError):
    """Atoms/segments that do not describe a probability distribution."""


def _as_float_rows(rows, width=None, error=InvalidDistributionError):
    """``rows`` as a tuple of float tuples, each ``width`` long unless
    ``width`` is None; ``error`` where a row or an entry is not one, or is
    an integer too large for a float."""
    out = []
    try:
        for row in rows:
            row = tuple(float(v) for v in row)
            if width is not None and len(row) != width:
                raise error(f"expected {width}-tuples, got {row!r}")
            out.append(row)
    except (TypeError, OverflowError) as exc:
        raise error(f"expected numbers: {exc}") from exc
    return tuple(out)


class _Frozen:
    """A record whose ``__init__`` sets its ``_fields`` once, through
    ``object.__setattr__``, so ``cached_property`` tables built from them
    stay right.  Equal only to a record of its own class."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is set once, by the constructor")

    __delattr__ = __setattr__

    def _asdict(self):
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        return type(other) is type(self) and self._asdict() == other._asdict()

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__name__}({fields})"


class PiecewiseCdf(_Frozen):
    """Distribution on [0, inf) given by atoms and uniform segments.

    atoms: ``(location, mass)`` pairs, locations strictly increasing.
    segments: ``(left, right, density)`` triples, disjoint, left < right.
    Atom locations may touch segment endpoints but never lie in a segment
    interior, to within ``MASS_TOL`` of the largest location.  Total mass
    must equal 1 to within ``MASS_TOL``.  ``_asdict`` writes the record of a
    marginal and ``PiecewiseCdf(**record)`` reads it back.
    """

    _fields = ("atoms", "segments")

    def __init__(self, atoms=(), segments=()):
        object.__setattr__(self, "atoms", _as_float_rows(atoms, 2))
        object.__setattr__(self, "segments", _as_float_rows(segments, 3))
        self._validate()

    def _validate(self):
        if not self.atoms and not self.segments:
            raise InvalidDistributionError("empty distribution")
        prev = -math.inf
        for loc, mass in self.atoms:
            if not 0.0 <= loc:
                raise InvalidDistributionError(f"atom location {loc} outside [0, inf)")
            if not 0.0 < mass <= 1.0 + MASS_TOL:
                raise InvalidDistributionError(f"atom mass {mass} outside (0, 1]")
            if loc <= prev:
                raise InvalidDistributionError("atom locations must be strictly increasing")
            prev = loc
        # locations agree to MASS_TOL of the support's extent (the last atom or
        # segment end; unsorted segments overlap), at every budget scale
        tol = MASS_TOL * max(prev, self.segments[-1][1] if self.segments else 0.0)
        if tol == math.inf:
            raise InvalidDistributionError("locations must be finite")
        prev_right = -math.inf
        for left, right, density in self.segments:
            if not 0.0 <= left < right:
                raise InvalidDistributionError(f"segment [{left}, {right}] not in [0, inf)")
            if not density > 0.0:
                raise InvalidDistributionError(f"segment density {density} <= 0")
            if left < prev_right - tol:
                raise InvalidDistributionError("segments overlap")
            prev_right = right
        for loc, _ in self.atoms:
            for left, right, _ in self.segments:
                if left + tol < loc < right - tol:
                    raise InvalidDistributionError(
                        f"atom at {loc} lies inside segment ({left}, {right})"
                    )
        total = self.total_mass()
        if not abs(total - 1.0) <= MASS_TOL:
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

    # math.fsum rounds once on every interpreter; sum() compensates from 3.12
    def total_mass(self):
        return math.fsum(
            [m for _, m in self.atoms] + [rho * (r - l) for l, r, rho in self.segments]
        )

    def mean(self):
        """Expected value, exact, summed once per marginal.  A segment adds its
        mass times its midpoint, so no location is squared and no term
        overflows before the sum."""
        return self._mean

    @cached_property
    def _mean(self):
        return math.fsum(
            [loc * m for loc, m in self.atoms]
            + [rho * (r - l) * (0.5 * l + 0.5 * r) for l, r, rho in self.segments]
        )

    def breakpoints(self):
        """Locations where the CDF changes slope or jumps, as a sorted tuple
        built once per marginal."""
        return self._breakpoints

    @cached_property
    def _breakpoints(self):
        pts = {loc for loc, _ in self.atoms}
        for l, r, _ in self.segments:
            pts.add(l)
            pts.add(r)
        return tuple(sorted(pts))

    # -- point query (plain floats, one bisection per point) ---------------

    @cached_property
    def _mass_table(self):
        # atom locations, the mass strictly below each (summed left to right)
        # and the mass strictly above each (summed right to left)
        masses = [m for _, m in self.atoms]
        above = list(accumulate(reversed(masses), initial=0.0))[::-1]
        return [loc for loc, _ in self.atoms], list(accumulate(masses, initial=0.0)), above

    def masses(self, x):
        """``(below, at, above)`` = (P(X < x), P(X = x), P(X > x)).

        ``below`` is summed from the left and ``above`` from the right, so a
        small upper tail keeps the digits that ``1 - below - at`` rounds
        away.  Each caller combines the three into its own tie rule."""
        locs, below, above = self._mass_table
        k = bisect_left(locs, x)
        lo, at, hi = below[k], 0.0, above[k]
        if k < len(locs) and locs[k] == x:
            at, hi = self.atoms[k][1], above[k + 1]
        for l, r, rho in self.segments:
            lo += rho * min(max(x - l, 0.0), r - l)
            hi += rho * min(max(r - x, 0.0), r - l)
        return lo, at, hi

    # -- inverse transform sampling ----------------------------------------

    @cached_property
    def _inverse_table(self):
        import numpy as np
        # Components (low, high, mass, slope) sorted by support position;
        # within equal left edges an atom (high == low) precedes a segment
        # starting there, matching CDF jump order.
        comps = [(loc, loc, mass, 0.0) for loc, mass in self.atoms]
        comps += [(l, r, rho * (r - l), 1.0 / rho) for l, r, rho in self.segments]
        lows, _, masses, slopes = np.array(sorted(comps)).T
        cum_hi = np.cumsum(masses)
        # an atom at -0.0 samples as +0.0, as low + (u - below) * 0 gave it
        lows += 0.0
        # a u at or past the rounded total mass takes the last component, so
        # only the cumulative masses before it bound the search
        return lows, slopes, cum_hi - masses, cum_hi[:-1]

    def component(self, u):
        """Component of each uniform in the array ``u``: the count of
        cumulative masses ``<= u`` but the last (a ``u`` past the rounded
        total mass takes the last component), summed one branch-free
        comparison per component up to 255 (a ``uint8``), bisected past."""
        import numpy as np
        bounds = self._inverse_table[3]
        if len(bounds) > 254:
            return np.searchsorted(bounds, u, side="right")
        idx = np.zeros(u.shape, np.uint8)
        hit = np.empty(u.shape, bool)
        for c in bounds:
            np.greater_equal(u, c, out=hit)
            idx += hit.view(np.uint8)
        return idx

    def ppf(self, u):
        """Quantile function: ``low + (u - mass below) * slope`` of each
        uniform's ``component``, in place."""
        import numpy as np
        lows, slopes, cum_lo, bounds = self._inverse_table
        u = np.asarray(u, dtype=float)
        if not u.shape:
            return float(self.ppf(u.reshape(1))[0])
        if not len(bounds):
            # one component, with mass 0.0 below it, so u - below is u
            x = u * slopes[0]
            x += lows[0]
            return x
        idx = self.component(u).astype(np.intp)
        x = cum_lo[idx]
        np.subtract(u, x, out=x)
        x *= slopes[idx]
        x += lows[idx]
        return x

    def thresholds(self, locations):
        """``(t_plus, t_minus)`` of an atoms-only table at each location x:
        ``ppf(b) < x`` iff ``b < t_plus`` and ``ppf(b) > x`` iff ``b >=
        t_minus``, the cumulative masses at the count of atoms below x and
        at or below it, padded with -inf (none below) and +inf (none above)."""
        import numpy as np
        lows, _, _, bounds = self._inverse_table
        cum = np.concatenate(([-np.inf], bounds, [np.inf]))
        return tuple(cum[np.searchsorted(lows, locations, side)] for side in ("left", "right"))

    # -- transforms ---------------------------------------------------------

    def reflect(self, total):
        """Distribution of ``total - X``; used for the two-battlefield
        complement allocation.  The rows are float tuples of the right width
        already, so they are not converted again; the result is validated
        as any marginal is (a location past ``total`` is refused)."""
        total = float(total)
        # tuple() of a list allocates the exact length; resizing a guess for a
        # generator fills CPython's tuple free lists over many lattices (~3 MB)
        atoms = tuple([(total - loc, mass) for loc, mass in reversed(self.atoms)])
        segments = tuple(
            [(total - r, total - l, rho) for l, r, rho in reversed(self.segments)]
        )
        mirrored = object.__new__(PiecewiseCdf)
        object.__setattr__(mirrored, "atoms", atoms)
        object.__setattr__(mirrored, "segments", segments)
        mirrored._validate()
        return mirrored
