"""Span tracing of the program from the benchmark's side.

``install`` wraps every public function of each package module, and every
binding of it (``lotto3`` and ``oracle`` import ``games`` functions by
name; the package re-exports some), plus the public methods and
``__init__`` of ``PiecewiseCdf`` on the class.  No program file changes.

A span is (name, parent span, op id, start, end) plus two numbers the
wrapper records at the call: ``work`` (points, samples or series terms)
and ``aux`` (per-call detail for computed metrics).  Computing them runs
inside the parent span's interval, so the wrapper adds that time to the
parent's ``tare`` (``top_tare`` outside every span).  Spans stay in memory
until the run ends; self time is a span's duration minus its children's
and minus its tare.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array

import numpy as np

LAYERS = ("distributions", "games", "blotto2", "lotto3", "oracle", "cli")
CDF_SPANS = ("distributions.cdf", "distributions.cdf_left", "distributions.cdf_mid")
SCAN_SPANS = ("oracle.blotto_deviation_gaps", "oracle.lotto_support_optimality")

# (metric, unit, better); "1/op" and "ms/op" are means over the traced ops
_CALLS = "1/op"
_MS = "ms/op"
PER_LAYER = (
    ("import.numpy_ms", "ms", "lower"),
    ("import.infoblotto_ms", "ms", "lower"),
    ("cli.payoff.process_ms", "ms", "lower"),
    ("cli.sweep.process_ms", "ms", "lower"),
    ("cli.strategy.process_ms", "ms", "lower"),
    ("cli.verify.process_ms", "ms", "lower"),
    ("cli.simulate.process_ms", "ms", "lower"),
    ("cli.main.self_ms", _MS, "lower"),
    ("cli.exit_mismatch", _CALLS, "lower"),
    ("cli.sweep_table.self_ms", _MS, "lower"),
    ("cli.sweep_table.points", _CALLS, "higher"),
    ("lotto3.informed_payoff.calls", _CALLS, "lower"),
    ("lotto3.informed_payoff.self_ms", _MS, "lower"),
    ("lotto3.gamma_e.self_ms", _MS, "lower"),
    ("lotto3.max_cost.self_ms", _MS, "lower"),
    ("lotto3.voi.self_ms", _MS, "lower"),
    ("lotto3.multipliers.self_ms", _MS, "lower"),
    ("blotto2.informed_payoff.calls", _CALLS, "lower"),
    ("blotto2.informed_payoff.self_ms", _MS, "lower"),
    ("blotto2.series_terms", _CALLS, "lower"),
    ("lotto3.solve.self_ms", _MS, "lower"),
    ("blotto2.build_equilibrium.self_ms", _MS, "lower"),
    ("distributions.init.calls", _CALLS, "lower"),
    ("distributions.init.self_ms", _MS, "lower"),
    ("games.battlefield_payoff.calls", _CALLS, "lower"),
    ("games.battlefield_payoff.self_ms", _MS, "lower"),
    ("games.ex_ante_payoff.self_ms", _MS, "lower"),
    ("games.interim_payoff.self_ms", _MS, "lower"),
    ("distributions.cdf.points", _CALLS, "lower"),
    ("distributions.cdf.self_ms", _MS, "lower"),
    ("oracle.blotto_deviation_gaps.self_ms", _MS, "lower"),
    ("oracle.lotto_support_optimality.self_ms", _MS, "lower"),
    ("oracle.scan.useful_ratio", "1", "higher"),
    ("oracle.monte_carlo_value.self_ms", _MS, "lower"),
    ("oracle.monte_carlo_value.samples", _CALLS, "lower"),
    ("oracle.mc.samples_per_s", "1/s", "higher"),
    ("distributions.ppf.samples", _CALLS, "lower"),
    ("distributions.ppf.self_ms", _MS, "lower"),
    ("oracle.certify.self_ms", _MS, "lower"),
    ("oracle.certify.failed", _CALLS, "lower"),
    ("cli.errors", _CALLS, "lower"),
    ("lotto3.errors", _CALLS, "lower"),
    ("blotto2.errors", _CALLS, "lower"),
    ("games.errors", _CALLS, "lower"),
    ("distributions.errors", _CALLS, "lower"),
    ("oracle.errors", _CALLS, "lower"),
    ("bench.unattributed_ms", _MS, "lower"),
    ("bench.trace_overhead_frac", "1", "lower"),
    ("bench.traced_ops", "count", "higher"),
)
# derived from other numbers, not counted at a boundary
COMPUTED = ("blotto2.series_terms", "oracle.scan.useful_ratio", "oracle.mc.samples_per_s")


class Tracer:
    """In-memory span store; ``op_id`` tags spans with the current op."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.aux = array("d")
        self.tare = array("d")
        self.top_tare = 0.0
        self.stack = []
        self.op_id = -1
        self.errors = dict.fromkeys(LAYERS, 0)

    def __len__(self):
        return len(self.start)

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count_error(self, layer, exc):
        # an exception is counted once, by the layer it left first
        if not getattr(exc, "_perfbench_counted", False):
            self.errors[layer] += 1
            try:
                exc._perfbench_counted = True
            except AttributeError:
                pass

    def _add_tare(self, parent, seconds):
        if parent >= 0:
            self.tare[parent] += seconds
        else:
            self.top_tare += seconds

    def wrap(self, name, fn, work=None, aux=None):
        nid = self._id(name)
        layer = name.split(".", 1)[0]
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, works, auxs, tares = self.start, self.end, self.work, self.aux, self.tare
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            amount = 0.0
            if work:
                t = clock()
                amount = work(args, kwargs)
                self._add_tare(parent, clock() - t)
            idx = len(starts)
            names.append(nid)
            parents.append(parent)
            ops.append(self.op_id)
            works.append(amount)
            auxs.append(0.0)
            tares.append(0.0)
            ends.append(0.0)
            starts.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = clock()
                stack.pop()
                self._count_error(layer, exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if aux:
                t = clock()
                auxs[idx] = aux(args, result)
                self._add_tare(parent, clock() - t)
            return result

        return traced

    def arrays(self):
        return {
            "names": np.array(self.names, dtype=object),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
            "aux": np.frombuffer(self.aux, dtype=np.float64).copy(),
            "tare": np.frombuffer(self.tare, dtype=np.float64).copy(),
            "top_tare": np.array(self.top_tare),
            "errors": np.array([self.errors[layer] for layer in LAYERS]),
        }


def _series_terms(args, kwargs):
    from infoblotto import blotto2

    try:
        q = blotto2.BlottoIndex.from_params(args[0]).q
    except ValueError:
        return 0.0
    return float((q - 1) // 2 + 1 if q % 2 else q // 2)


def _sweep_points(args, kwargs):
    return float(math.prod(axis.steps for axis in args[0].axes))


def _samples(args, kwargs):
    return float(kwargs["samples"] if "samples" in kwargs else args[3])


def _size_of_arg1(args, kwargs):
    return float(np.size(args[1]))


def _certify_failed(args, cert):
    return 0.0 if cert.passed else 1.0


def install(tracer):
    """Wrap the package's public functions and ``PiecewiseCdf`` methods."""
    package = importlib.import_module("infoblotto")
    modules = {layer: importlib.import_module(f"infoblotto.{layer}") for layer in LAYERS}
    cls = modules["distributions"].PiecewiseCdf
    breakpoints = cls.breakpoints

    def _useful(args, result):
        # breakpoints and endpoints of the evaluated marginal: the only
        # scan points that can hold the maximum of a piecewise-linear payoff
        return float(len(breakpoints(args[0])) + 2)

    counters = {
        "blotto2.informed_payoff": (_series_terms, None),
        "cli.sweep_table": (_sweep_points, None),
        "oracle.monte_carlo_value": (_samples, None),
        "oracle.certify": (None, _certify_failed),
        "distributions.ppf": (_size_of_arg1, None),
        **{name: (_size_of_arg1, _useful) for name in CDF_SPANS},
    }
    wrapped = {}
    for layer, module in modules.items():
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                name = f"{layer}.{attr}"
                wrapped[value] = tracer.wrap(name, value, *counters.get(name, ()))
    for module in [package, *modules.values()]:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(module, attr, wrapped[value])
    for attr, value in list(vars(cls).items()):
        if inspect.isfunction(value) and (attr == "__init__" or not attr.startswith("_")):
            name = "distributions." + ("init" if attr == "__init__" else attr)
            setattr(cls, attr, tracer.wrap(name, value, *counters.get(name, ())))


def merge(parts):
    """Concatenate span arrays of several tracers (one per process)."""
    names = []
    ids = {}
    out = {k: [] for k in ("name", "parent", "op", "start", "end", "work", "aux", "tare")}
    errors = np.zeros(len(LAYERS), dtype=np.int64)
    top_tare = 0.0
    offset = 0
    for part, op_id in parts:
        remap = np.array(
            [ids.setdefault(n, len(ids)) for n in part["names"]] or [0], dtype=np.int32
        )
        names = list(ids)
        out["name"].append(remap[part["name"]])
        out["parent"].append(np.where(part["parent"] >= 0, part["parent"] + offset, -1))
        out["op"].append(np.full(len(part["start"]), op_id, dtype=np.int32))
        for key in ("start", "end", "work", "aux", "tare"):
            out[key].append(part[key])
        errors += part["errors"]
        top_tare += float(part["top_tare"])
        offset += len(part["start"])
    merged = {k: np.concatenate(v) if v else np.zeros(0) for k, v in out.items()}
    merged["name"] = merged["name"].astype(np.int64)
    merged["parent"] = merged["parent"].astype(np.int64)
    merged["names"] = np.array(names, dtype=object)
    merged["errors"] = errors
    merged["top_tare"] = np.array(top_tare)
    return merged


def layer_metrics(spans, n_ops, op_wall_s):
    """Per-layer metrics from span arrays of ``n_ops`` traced ops that took
    ``op_wall_s`` seconds of wall time in total."""
    names = list(spans["names"])
    name = spans["name"].astype(np.int64)
    parent = spans["parent"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    n = len(dur)
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - children - spans["tare"]
    per_op = 1.0 / max(n_ops, 1)

    def mask(*span_names):
        ids = [names.index(s) for s in span_names if s in names]
        return np.isin(name, ids)

    def total(field, *span_names):
        return float(field[mask(*span_names)].sum())

    out = {}
    for span in (
        "cli.main", "cli.sweep_table", "lotto3.informed_payoff", "lotto3.gamma_e",
        "lotto3.max_cost", "lotto3.voi", "lotto3.multipliers", "blotto2.informed_payoff",
        "lotto3.solve", "blotto2.build_equilibrium", "distributions.init",
        "games.battlefield_payoff", "games.ex_ante_payoff", "games.interim_payoff",
        "oracle.blotto_deviation_gaps", "oracle.lotto_support_optimality",
        "oracle.monte_carlo_value", "distributions.ppf", "oracle.certify",
    ):
        out[f"{span}.self_ms"] = 1e3 * total(self_time, span) * per_op
        out[f"{span}.calls"] = float(mask(span).sum()) * per_op
    out["distributions.cdf.self_ms"] = 1e3 * total(self_time, *CDF_SPANS) * per_op
    out["distributions.cdf.points"] = total(spans["work"], *CDF_SPANS) * per_op
    out["cli.sweep_table.points"] = total(spans["work"], "cli.sweep_table") * per_op
    out["blotto2.series_terms"] = total(spans["work"], "blotto2.informed_payoff") * per_op
    out["oracle.monte_carlo_value.samples"] = (
        total(spans["work"], "oracle.monte_carlo_value") * per_op
    )
    out["distributions.ppf.samples"] = total(spans["work"], "distributions.ppf") * per_op
    out["oracle.certify.failed"] = total(spans["aux"], "oracle.certify") * per_op
    mc_seconds = total(dur, "oracle.monte_carlo_value")
    mc_samples = total(spans["work"], "oracle.monte_carlo_value")
    out["oracle.mc.samples_per_s"] = mc_samples / mc_seconds if mc_seconds > 0 else 0.0

    # cdf evaluations with a scan span among their ancestors
    in_scan = np.zeros(n, dtype=bool)
    scan = mask(*SCAN_SPANS)
    ancestor = parent.copy()
    while (ancestor >= 0).any():
        live = ancestor >= 0
        in_scan[live] |= scan[ancestor[live]]
        ancestor[live] = parent[ancestor[live]]
    cdf_in_scan = mask(*CDF_SPANS) & in_scan
    points = spans["work"][cdf_in_scan]
    useful = np.minimum(points, spans["aux"][cdf_in_scan])
    out["oracle.scan.useful_ratio"] = float(useful.sum() / points.sum()) if points.sum() else 0.0

    for layer, count in zip(LAYERS, spans["errors"]):
        out[f"{layer}.errors"] = float(count) * per_op
    top_level = float(dur[~has_parent].sum())
    out["bench.unattributed_ms"] = 1e3 * (op_wall_s - top_level - float(spans["top_tare"])) * per_op
    out["bench.traced_ops"] = float(n_ops)
    return out


def save(path, spans):
    np.savez(path, **{k: v for k, v in spans.items() if k != "names"}, names=spans["names"].astype(str))


def load(path):
    with np.load(path) as data:
        spans = {k: data[k] for k in data.files}
    spans["names"] = spans["names"].astype(object)
    return spans
