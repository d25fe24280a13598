"""Whole-CLI fuzz, in-process through ``cli.main``: every subcommand on
drawn flags, and ``verify``/``simulate`` on mutated strategy files.

Whatever the input, ``main`` returns 0, 1 or 2 without raising, exit 1
comes only from ``verify`` (a failing certificate), exit 2 leaves stdout
empty, and every printed number is finite (the documented ``z_score = inf``
excepted) and never -0.  A sweep's CSV cells are held to the same.
"""

import contextlib
import copy
import io
import json
import math
import os
import sys
import tempfile

from hypothesis import given, settings
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
    return code


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
