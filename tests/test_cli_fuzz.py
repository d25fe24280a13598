"""Whole-CLI fuzz, in-process through ``cli.main``: every subcommand on
drawn flags, and ``verify``/``simulate`` on mutated strategy files.

Whatever the input, ``main`` returns 0, 1 or 2 without raising, exit 1
comes only from ``verify`` (a failing certificate), exit 2 leaves stdout
empty, and every printed number is finite (the documented ``z_score = inf``
excepted) and never -0.  A sweep's CSV cells are held to the same.  Where
``payoff`` gives a value, ``verify`` on the same flags certifies it or
refuses the build for one of a closed list of reasons.
"""

import contextlib
import copy
import io
import json
import math
import os
import re
import sys
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from infoblotto.cli import main

_DATA = os.path.join(os.path.dirname(__file__), "data")

# values where the domains and regimes of both games change, and their
# neighbours, beside signed zeros, subnormals, infinities, nan and the
# largest float
_BOUNDARIES = (1 / 3, 1 / 2, 2 / 3, 1.0)
_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf,
             math.nan, sys.float_info.max, -sys.float_info.max]
_SPECIALS += [f(x) for x in _BOUNDARIES for f in (
    lambda x: x, lambda x: math.nextafter(x, 0.0), lambda x: math.nextafter(x, 2.0))]
floats = st.one_of(st.sampled_from(_SPECIALS), st.floats(), st.floats(0.0, 1.0))
# a flag's value: as often inside both games' domains, so that the
# constructions and the certificate run too
values = st.one_of(floats, st.floats(0.0, 1.0), st.floats(0.5, 1.0))


def _checked_run(argv, csv_path=None):
    """``main(argv)``, with every assertion of the module on its result."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert code != 1 or argv[0] == "verify", (argv, out.getvalue())
    text = out.getvalue()
    if code == 2:
        assert text == "", (argv, text)
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            _check_number(value, key == "z_score", (argv, line))
    if code == 0 and csv_path is not None:
        with open(csv_path) as handle:
            handle.readline()  # the header
            for row in handle:
                for cell in row.strip().split(","):
                    _check_number(cell, False, (argv, row))
    return code, text, err.getvalue()


def _check_number(text, may_be_inf, context):
    try:
        number = float(text)
    except ValueError:  # a game, a regime or a verdict
        return
    assert math.isfinite(number) or (may_be_inf and number == math.inf), context
    assert not (number == 0.0 and text.startswith("-")), context


# a point inside each game's domain: an example changes up to two of its
# flags (a drawn value, or left out) and may add a flag the game refuses
_POINTS = {
    "blotto2": {"vbar": 1.0, "vlow": 0.5, "gamma": 0.7, "xu": 10.0},
    "lotto3": {"alpha": 0.6, "beta": 0.3, "gamma": 0.8, "xu": 1.0, "cost": 0.2},
}
_UNREAD = {"sweep": "xu", "strategy": "cost", "verify": "cost", "simulate": "cost"}
_STRAY = st.one_of(st.none(), st.none(), st.sampled_from(["vbar", "alpha", "beta", "cost", "e"]))
_AXES = ("vlow", "alpha", "beta", "gamma", "vbar", "xu")
_COLUMNS = ("payoff", "baseline", "voi", "info_gain", "max_cost", "q")


@st.composite
def cli_argvs(draw, directory):
    command = draw(st.sampled_from(["payoff", "sweep", "strategy", "verify", "simulate"]))
    game = draw(st.sampled_from(["blotto2", "lotto3"]))
    point = {n: v for n, v in _POINTS[game].items() if n != _UNREAD.get(command)}
    for name in draw(st.sets(st.sampled_from(sorted(point)), max_size=2)):
        point[name] = draw(st.one_of(st.none(), values))
    stray = draw(_STRAY)
    if stray is not None and (stray != "e" or command not in ("payoff", "sweep")):
        point[stray] = draw(values)
    argv, csv_path = [command, "--game", game], None
    if command == "sweep":
        for _ in range(draw(st.integers(0, 2))):
            name = draw(st.sampled_from(_AXES))
            point.pop("alpha" if name == "vlow" and game == "blotto2" else name, None)
            lo, hi, steps = draw(values), draw(values), draw(st.integers(-1, 6))
            argv.append(f"--axis={name}={lo!r}:{hi!r}:{steps}")
        columns = draw(st.lists(st.sampled_from(_COLUMNS), min_size=1, max_size=3))
        if "voi" not in columns and stray != "cost":
            point.pop("cost", None)
        csv_path = os.path.join(directory, "sweep.csv")
        argv += [f"--columns={','.join(columns)}", "--out", csv_path]
    argv += [f"--{name}={value!r}" for name, value in point.items() if value is not None]
    if command == "strategy" or command == "verify" and draw(st.booleans()):
        argv += ["--out", os.path.join(directory, f"{command}.json")]
    if command == "simulate":
        argv += [f"--samples={draw(st.integers(-1, 1000))}",
                 f"--seed={draw(st.integers(-1, 2**70))}"]
    return argv, csv_path


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_every_subcommand_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as directory:
        argv, csv_path = data.draw(cli_argvs(directory))
        _checked_run(argv, csv_path)


# a mutated strategy file: keys deleted or added, values of other types,
# non-finite numbers and integers too large for a float
_REPLACEMENTS = st.one_of(
    st.sampled_from([None, True, "x", "", [], {}, 0, -1, 10**400, -(10**400), math.inf,
                     -math.inf, math.nan, -0.0, 5e-324, sys.float_info.max, [[0.0, 1.0]],
                     {"atoms": [], "segments": []}, "blotto2", "lotto3"]),
    floats,
    st.integers(),
).map(copy.deepcopy)  # a drawn list or dict is a new one each time
_KEYS = st.sampled_from(["vbar", "budget", "budget_informed", "alpha", "atoms", "segments",
                         "informed", "game", "params", "profile", "junk"])


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutate(data, draw):
    document = {"root": data}
    path = ("root",) + draw(st.sampled_from(list(_paths(data))))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    kind = draw(st.sampled_from(["delete", "add", "replace"]))
    if kind == "delete" and len(path) > 1:
        del parent[path[-1]]
    elif kind == "add" and isinstance(node, dict):
        node[draw(_KEYS)] = draw(_REPLACEMENTS)
    elif kind == "add" and isinstance(node, list):
        node.append(draw(_REPLACEMENTS))
    else:
        parent[path[-1]] = draw(_REPLACEMENTS)
    return document["root"]


_FILES = {}
for _name in ("blotto2_q3.json", "lotto3_high.json"):
    with open(os.path.join(_DATA, _name)) as _handle:
        _FILES[_name] = json.load(_handle)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_mutated_strategy_file_exits_cleanly(data):
    document = copy.deepcopy(_FILES[data.draw(st.sampled_from(sorted(_FILES)))])
    for _ in range(data.draw(st.integers(1, 3))):
        document = _mutate(document, data.draw)
    command = data.draw(st.sampled_from(["verify", "simulate"]))
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "strategy.json")
        with open(path, "w") as handle:
            json.dump(document, handle)
        argv = [command, "--strategy", path]
        if command == "simulate":
            argv.append(f"--samples={data.draw(st.integers(0, 1000))}")
        _checked_run(argv)


def test_non_complement_residual_is_finite():
    # the q = 3 file with informed type 2 given one atom on battlefield 1:
    # no complement of its two-atom battlefield 2, once printed as inf
    document = copy.deepcopy(_FILES["blotto2_q3.json"])
    document["profile"]["informed"][1][0]["atoms"] = [[0.0, 1.0]]
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "strategy.json")
        with open(path, "w") as handle:
            json.dump(document, handle)
        code, text, _ = _checked_run(["verify", "--strategy", path])
    assert code == 1
    assert "budget_residuals_informed[1] = 1\n" in text
    assert "passed = false" in text


# Where payoff gives a value, verify on the same flags either certifies the
# built profile or refuses to build it for one listed reason.  A Blotto
# refusal names the q that payoff printed: a lattice it does not build (even
# q, or q past 10^5), a series that is not finite, or a default offset within
# rounding of the lattice.  A Lotto refusal names the parameter at fault
# with its value: a valuation or the budget whose density, location or
# multiplier is not finite.  The Blotto step count q is drawn up to 100, or
# from 10^6 (refused before any atom), so that a drawn build takes
# milliseconds.
_BLOTTO_REFUSALS = {
    "lattice": r"q = \d+: strategies are built only for odd q up to 100000 \(the "
               r"equilibrium payoff is still available\)",
    "series": r"the equilibrium series of value-ratio powers \S+ k < \d+, is not a finite float",
    "offset": r"q = \d+: the default offset, the midpoint e = \S+, is not inside \(\S+, \S+\) "
              r"by more than \S+: X_U/d is within rounding of an integer",
}
_LOTTO_REFUSAL = (r"(valuation (?P<name>alpha|beta) = |uninformed budget )(?P<value>\S+) is "
                  r"(out of range: a density or a location of the equilibrium marginals is "
                  r"not finite|too (small|large) at budget ratio \S+: the multiplier "
                  r"lambda_uninformed is \S+)")


@st.composite
def payoff_flags(draw):
    game = draw(st.sampled_from(["blotto2", "lotto3"]))
    if game == "blotto2":
        # X_U/d inside (q, q + 1), or short of q + 1 by more than rounding,
        # so that the default offset falls within 1e-12 of d; or q >= 10^6,
        # whose series is finite only for a value ratio within 1e-6 of 1
        q = draw(st.integers(2, 100))
        kind = draw(st.sampled_from(["inside", "inside", "short", "large"]))
        ratio = draw(st.floats(0.01, 0.999))
        if kind == "inside":
            gamma = 1.0 - 1.0 / (q + draw(st.floats(0.05, 0.95)))
        elif kind == "short":
            gamma = 1.0 - 1.0 / (q + 1) - draw(st.floats(1e-15, 1e-14))
        else:
            gamma = draw(st.floats(1.0 - 1e-6, 1.0 - 1e-9))
            ratio = draw(st.floats(1.0 - 1e-6, 1.0 - 1e-12))
        vbar = draw(st.floats(0.001, 1000.0))
        flags = {"vbar": vbar, "vlow": vbar * ratio, "gamma": gamma}
    else:
        # subnormal valuations too, whose densities may overflow
        unit = st.floats(1e-300, 1.0, exclude_max=True) | st.sampled_from([5e-324, 1e-310])
        alpha, beta = sorted((draw(unit), draw(unit)), reverse=True)
        gamma = draw(st.floats(0.001, 1.0) | st.sampled_from([1 / 3, 2 / 3, 1.0]))
        flags = {"alpha": alpha, "beta": beta, "gamma": gamma}
    flags["xu"] = draw(st.floats(1e-300, 1e300) | st.sampled_from([1e-300, 1.0, 1e300]))
    return ["--game", game, *(f"--{name}={value!r}" for name, value in flags.items())]


@settings(max_examples=150, deadline=None)
@given(payoff_flags())
@example(["--game", "blotto2", "--vbar=1.0", "--vlow=0.5", "--gamma=0.78", "--xu=1.0"])
@example(["--game", "blotto2", "--vbar=1.0", "--vlow=0.5", "--gamma=0.7499999999999",
          "--xu=1.0"])
@example(["--game", "lotto3", "--alpha=1e-300", "--beta=1e-300", "--gamma=1.0", "--xu=1.0"])
# a subnormal valuation: 2*v*c once rounded its density, and the built
# marginal held a total mass of 1.099
@example(["--game", "lotto3", "--alpha=0.819969498062331", "--beta=5e-324", "--gamma=1.0",
          "--xu=1e+300"])
def test_verify_certifies_or_names_its_refusal(argv):
    code, text, _ = _checked_run(["payoff", *argv])
    if code != 0:
        return
    payoff = dict(line.split(" = ") for line in text.splitlines())
    code, text, err = _checked_run(["verify", *argv])
    if code == 0:
        assert "passed = true" in text.splitlines()
        return
    assert code == 2, (argv, text)
    reason = err.removeprefix("error: ").rstrip("\n")
    if payoff["game"] == "blotto2":
        kinds = [kind for kind, rule in _BLOTTO_REFUSALS.items() if re.fullmatch(rule, reason)]
        assert kinds, (argv, reason)
        q = int(payoff["q"])
        assert kinds == ["series"] or reason.startswith(f"q = {q}: "), (argv, reason)
        assert kinds != ["lattice"] or q % 2 == 0 or q > 10**5, (argv, reason)
    else:
        match = re.fullmatch(_LOTTO_REFUSAL, reason)
        assert match, (argv, reason)
        flags = dict(arg[2:].split("=") for arg in argv[2:])
        assert float(match["value"]) == float(flags[match["name"] or "xu"]), (argv, reason)
