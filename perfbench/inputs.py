"""Seeded input generation for the benchmark workloads.

Parameter points come from finite pools so that every input a run can draw
has a verdict recorded in ``data/expected.json`` (see ``record.py``): a run
times the inputs the program passes on, checks the recorded failures apart,
and is ``correct`` when it fails on no input outside that record.  Half of each
pool is round-valued, the way users type parameters; the other half is
continuous draws from a fixed generator.  The workload seed only selects
and orders points from the pools, so the same seed gives the same inputs.

A point is a tuple ``(game, params)`` where ``params`` is a tuple of
``(name, value)`` pairs in CLI flag order; ``point_key`` is its stable name.
"""

from __future__ import annotations

import random
from fractions import Fraction

POOL_SEED = 20241017
CONTINUOUS_PER_STRATUM = 80
CLI_PER_CELL = 20

LOTTO_REGIMES = ("low", "mid", "high")
_BAND_QS = {"q3": (3,), "q5-11": (5, 7, 9, 11), "q13-33": tuple(range(13, 34, 2))}
_XUS = (1.0, 10.0, 100.0)


def point_key(point):
    game, params = point
    return game + " " + " ".join(f"{k}={v!r}" for k, v in params)


def point_args(point):
    """CLI flags for a point."""
    game, params = point
    args = ["--game", game]
    for name, value in params:
        args += [f"--{name}", repr(value)]
    return args


def _band_of_q(q):
    return next(band for band, qs in _BAND_QS.items() if q in qs)


def _lotto_regime(gamma):
    if gamma <= Fraction(1, 3):
        return "low"
    return "mid" if gamma <= Fraction(2, 3) else "high"


def _blotto_point(vlow, gamma, xu):
    return ("blotto2", (("vbar", 1.0), ("vlow", vlow), ("gamma", gamma), ("xu", xu)))


def _lotto_point(alpha, beta, gamma, xu):
    return (
        "lotto3",
        (("alpha", alpha), ("beta", beta), ("gamma", gamma), ("xu", xu)),
    )


def build_pools():
    """``{(game, stratum, "round"|"continuous"): [point, ...]}``.

    Strata are the lotto3 budget regime and the blotto2 band of
    q = floor(1 / (1 - gamma)).  blotto2 pools hold odd q only: even q has
    no strategy construction by design.  Round values are classified with
    exact decimal arithmetic, as a user reading the flags would.
    """
    pools = {}
    tenths = [k / 10 for k in range(1, 10)]
    for k in range(51, 100):
        q = 100 // (100 - k)
        if q % 2 == 0 or q > 33:
            continue
        key = ("blotto2", _band_of_q(q), "round")
        for vlow in tenths:
            for xu in _XUS:
                pools.setdefault(key, []).append(_blotto_point(vlow, k / 100, xu))
    for k in range(1, 21):
        key = ("lotto3", _lotto_regime(Fraction(k, 20)), "round")
        for a in range(1, 10):
            for b in range(1, a + 1):
                for xu in _XUS:
                    pools.setdefault(key, []).append(
                        _lotto_point(a / 10, b / 10, k / 20, xu)
                    )

    rng = random.Random(POOL_SEED)
    for band, qs in _BAND_QS.items():
        pool = pools.setdefault(("blotto2", band, "continuous"), [])
        for _ in range(CONTINUOUS_PER_STRATUM):
            q = rng.choice(qs)
            # stay clear of the q boundaries 1 - 1/q and 1 - 1/(q + 1)
            lo, hi = 1.0 - 1.0 / q, 1.0 - 1.0 / (q + 1)
            gamma = lo + (hi - lo) * rng.uniform(0.02, 0.98)
            xu = 10.0 ** rng.uniform(0.0, 2.0)
            pool.append(_blotto_point(rng.uniform(0.05, 0.95), gamma, xu))
    bounds = {"low": (0.0, 1.0 / 3.0), "mid": (1.0 / 3.0, 2.0 / 3.0), "high": (2.0 / 3.0, 1.0)}
    for regime in LOTTO_REGIMES:
        pool = pools.setdefault(("lotto3", regime, "continuous"), [])
        lo, hi = bounds[regime]
        for _ in range(CONTINUOUS_PER_STRATUM):
            alpha = rng.uniform(0.02, 0.98)
            beta = rng.uniform(0.02, alpha)
            gamma = lo + (hi - lo) * rng.uniform(0.01, 0.99)
            pool.append(_lotto_point(alpha, beta, gamma, 10.0 ** rng.uniform(0.0, 2.0)))
    return pools


def all_points(pools):
    return [p for key in sorted(pools) for p in pools[key]]


def point_stream(pools, rng):
    """Endless stream of ``(point, properties)``.

    Each block of twelve holds one point of every (game, stratum,
    round|continuous) cell, shuffled: six lotto3 cells (three regimes) and
    six blotto2 cells (three q bands), so every cell has the same share.
    """
    cells = sorted(pools)
    props = {
        (game, stratum, kind): {
            "game": game,
            f"{game}.{'regime' if game == 'lotto3' else 'band'}": stratum,
            "values": kind,
        }
        for game, stratum, kind in cells
    }
    while True:
        block = cells[:]
        rng.shuffle(block)
        for cell in block:
            yield rng.choice(pools[cell]), props[cell]


def cli_pools(pools):
    """A fixed subset of every cell for the ``cli`` workload, drawn with
    ``POOL_SEED``: small enough that ``record.py`` can record every CLI
    verdict on it (``simulate`` alone takes about half a second a point)."""
    rng = random.Random(POOL_SEED + 1)
    return {cell: rng.sample(pools[cell], CLI_PER_CELL) for cell in sorted(pools)}


# ---------------------------------------------------------------------------
# Sweep catalogue: CSV digests are recorded, so specs are fixed and the
# seed only orders them.  The specs are chosen, not taken from usage data:
# they cover the three grid families of the benchmark's design (lotto3
# alpha x gamma, blotto2 vlow x gamma over 0.51-0.99, the blotto2 high-q band)
# at grid sizes of a figure.
# ---------------------------------------------------------------------------

# (name, game, axes, fixed, columns); axes are (name, lo, hi, steps)
SURFACE_SPECS = (
    ("lotto-full", "lotto3", (("alpha", 0.05, 0.95, 30), ("gamma", 0.05, 1.0, 30)), {"cost": 0.0}, "payoff,info_gain,max_cost,voi"),
    ("lotto-cost10", "lotto3", (("alpha", 0.02, 0.98, 25), ("gamma", 0.1, 1.0, 36)), {"cost": 0.1}, "payoff,info_gain,max_cost,voi"),
    ("lotto-mid", "lotto3", (("alpha", 0.1, 0.9, 40), ("gamma", 0.34, 0.66, 20)), {"cost": 0.25}, "payoff,info_gain,max_cost,voi"),
    ("lotto-low", "lotto3", (("alpha", 0.05, 0.95, 24), ("gamma", 0.01, 0.33, 40)), {"cost": 0.0}, "payoff,info_gain,max_cost,voi"),
    ("lotto-high", "lotto3", (("gamma", 0.67, 1.0, 30), ("alpha", 0.01, 0.99, 30)), {"cost": 0.05}, "payoff,info_gain,max_cost,voi"),
    ("blotto-readme", "blotto2", (("vlow", 0.05, 0.95, 30), ("gamma", 0.51, 0.99, 30)), {"vbar": 1.0}, "payoff,baseline,voi"),
    ("blotto-alias", "blotto2", (("alpha", 0.05, 0.95, 50), ("gamma", 0.51, 0.99, 18)), {"vbar": 1.0}, "payoff,baseline,voi"),
    ("blotto-vbar2", "blotto2", (("gamma", 0.51, 0.99, 36), ("vlow", 0.1, 1.9, 25)), {"vbar": 2.0}, "payoff,baseline,voi"),
    ("blotto-highq", "blotto2", (("vlow", 0.5, 0.95, 20), ("gamma", 0.99, 0.999, 30)), {"vbar": 1.0}, "payoff,baseline,voi"),
)

# small sweeps run through the CLI workload
CLI_SWEEP_SPECS = (
    ("cli-lotto", "lotto3", (("alpha", 0.1, 0.9, 9), ("gamma", 0.1, 1.0, 10)), {}, "payoff,max_cost"),
    ("cli-lotto-voi", "lotto3", (("alpha", 0.05, 0.95, 12), ("gamma", 0.05, 1.0, 12)), {"cost": 0.2}, "voi,info_gain"),
    ("cli-blotto", "blotto2", (("alpha", 0.05, 0.95, 10), ("gamma", 0.51, 0.99, 10)), {"vbar": 1.0}, "voi"),
    ("cli-blotto-highq", "blotto2", (("vlow", 0.5, 0.9, 5), ("gamma", 0.99, 0.995, 8)), {"vbar": 1.0}, "payoff,baseline"),
)


def sweep_points(spec):
    n = 1
    for axis in spec[2]:
        n *= axis[3]
    return n


def sweep_args(spec):
    """CLI flags for a sweep spec, without ``--out``."""
    _, game, axes, fixed, columns = spec
    args = ["--game", game]
    for name, lo, hi, steps in axes:
        args += ["--axis", f"{name}={lo!r}:{hi!r}:{steps}"]
    for name, value in fixed.items():
        args += [f"--{name}", repr(value)]
    return args + ["--columns", columns]


# ---------------------------------------------------------------------------
# CLI contract probes: (name, argv, expected exit code).  Exit codes follow
# the README: 0 success, 1 certificate failed, 2 invalid input.
# ---------------------------------------------------------------------------

CLI_PROBES = (
    ("overflow-payoff", ["payoff", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5", "--gamma", "0.9999998"], 2),
    ("overflow-verify", ["verify", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5", "--gamma", "0.9999998"], 2),
    ("vbar-inf", ["payoff", "--game", "blotto2", "--vbar", "inf", "--vlow", "0.5", "--gamma", "0.7"], 2),
    ("gamma-nan", ["payoff", "--game", "lotto3", "--alpha", "0.5", "--gamma", "nan"], 2),
    ("blotto-low-gamma", ["payoff", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5", "--gamma", "0.4"], 2),
    ("lotto-alpha-1.5", ["payoff", "--game", "lotto3", "--alpha", "1.5", "--gamma", "0.5"], 2),
    ("even-q-strategy", ["strategy", "--game", "blotto2", "--vbar", "1", "--vlow", "0.5", "--gamma", "0.78", "--out", "{tmp}/even.json"], 2),
    ("bad-axis", ["sweep", "--game", "lotto3", "--axis", "gamma=0.5:0.1:3", "--alpha", "0.5", "--out", "{tmp}/bad.csv"], 2),
    ("malformed-strategy", ["verify", "--strategy", "{tmp}/malformed.json"], 2),
)
