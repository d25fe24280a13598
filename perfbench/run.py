"""Benchmark of infoblotto: four closed-loop workloads, one client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of surface, exact, certify, cli, or ``all`` to run the four in
turn and print one table.  Run it from anywhere inside a source checkout;
it uses ``src/`` of that checkout and writes only under ``.perfbench/``.

The seed fixes a list of ops.  Ops whose input has a failure recorded in
``data/expected.json`` (the program's known defects) leave the timed list:
they run once each, untimed, after the timed loop, and are listed with
their reasons.  The run executes the rest of the list in passes, each in
a fresh seeded order, until S seconds of op time have passed (the last
pass is finished).  With
``--trace 0`` it reports the end-to-end metrics and, spread over the run,
launches the set-up probes behind ``setup_s``.  With ``--trace 1`` it
measures S/2 seconds untraced, then replays the same ops for at most S/2
seconds with every layer wrapped (``spans.py``), the known-defect ops
first, and reports the per-layer metrics; the spans are written to
``.perfbench/trace-NAME.npz``.  Every op is checked; the last line of
standard output is one JSON object with ``correct``, ``attempted`` and
``failed`` (of the timed ops) and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("surface", "exact", "certify", "cli")
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_RUNS = 15
# spans kept in memory by one traced run (about 40 bytes each)
SPAN_CAP = 600_000


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def child_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def provenance(args):
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    source = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "infoblotto"))):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as handle:
                    source.update(name.encode() + b"\0" + handle.read())
    import numpy

    return {
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def load_expected():
    with open(os.path.join(HERE, "data", "expected.json")) as handle:
        return json.load(handle)


def make_workload(name, expected):
    import workloads

    if name == "surface":
        return workloads.SurfaceWorkload(expected)
    if name == "exact":
        return workloads.ExactWorkload(expected)
    if name == "certify":
        return workloads.CertifyWorkload(expected)
    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    return workloads.CliWorkload(expected, ROOT, child_env(), tmp)


def warm_up(wl, seed):
    """One untimed op from a list the timed loop does not use."""
    op = wl.op_groups(seed + 1)[0][0]
    try:
        wl.check(op, wl.execute(op))
    except Exception:  # a failing warm-up op still warms the code paths
        pass


def setup_probe(args):
    import infoblotto.cli  # noqa: F401

    wl = make_workload(args.workload, load_expected())
    warm_up(wl, args.seed)
    print("ready", flush=True)
    return 0


def measure_setup(args):
    """Seconds from launching a fresh process to its first timed op:
    imports plus one warm-up op (``cli``: a bare package import)."""
    if args.workload == "cli":
        cmd = [sys.executable, "-c", "import infoblotto.cli"]
    else:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    if args.workload != "cli":
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
        if line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit {proc.returncode}")
    else:
        proc.communicate(timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"package import failed with exit {proc.returncode}")
    return elapsed


# ---------------------------------------------------------------------------
# closed loop
# ---------------------------------------------------------------------------


class Record:
    __slots__ = ("op", "latency", "failure")

    def __init__(self, op, latency, failure):
        self.op = op
        self.latency = latency
        self.failure = failure


def run_op(wl, op):
    from workloads import failure_text

    start = time.perf_counter()
    try:
        result = wl.execute(op)
    except Exception as exc:  # an op that raises is a failed op, with its input
        return Record(op, time.perf_counter() - start, failure_text(exc))
    latency = time.perf_counter() - start
    try:
        return Record(op, latency, wl.check(op, result))
    except Exception as exc:
        return Record(op, latency, "check raised " + failure_text(exc))


def closed_loop(wl, groups, seconds, seed, probe=None, probes=0):
    """Run whole passes over ``groups`` until ``seconds`` of op time have
    passed; the last pass is finished, so the run may go over by one pass.

    Each pass runs every group once, in an order drawn from ``seed``, so
    every op of the list is repeated as often as every other, however fast
    it is, and the timed ops have the list's mix.  Between groups, ``probe`` is called ``probes`` times, spread
    evenly over the run; its time is not op time.  Returns the records and
    the probe values.
    """
    rng = random.Random(f"passes-{seed}")
    order = list(range(len(groups)))
    records, probed = [], []
    start = time.perf_counter()
    paused = 0.0

    def op_time():
        return time.perf_counter() - start - paused

    while op_time() < seconds:
        rng.shuffle(order)
        for g in order:
            if len(probed) < probes and op_time() >= (len(probed) + 0.5) * seconds / probes:
                t = time.perf_counter()
                probed.append(probe())
                paused += time.perf_counter() - t
            for op in groups[g]:
                records.append(run_op(wl, op))
    while len(probed) < probes:
        probed.append(probe())
    return records, probed


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(wl, records, setup_s):
    """The end-to-end metrics of one closed loop, over the passed ops.

    ``ops_per_s`` and ``points_per_s`` divide by the ops' summed latency
    (the timed wall time without checks and set-up probes); ``op_p50_ms``
    and ``op_p90_ms`` are percentiles of the ops' own latencies.  The
    host's speed switches between a fast and a slow state every few
    seconds, so a median over repeats of one op flips between the two
    states from run to run; a mean or a percentile over all ops moves with
    the share of slow time instead.  Failed ops are counted apart (many
    fail fast and would skew the latency figures).
    """
    passed = [r for r in records if r.failure is None] or records
    busy = sum(r.latency for r in passed)
    latencies = [1e3 * r.latency for r in passed]
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(passed) / busy, "1/s"),
        "points_per_s": (sum(wl.points(r.op) for r in passed) / busy, "1/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_p90_ms": (percentile(latencies, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }


# ---------------------------------------------------------------------------
# traced replay
# ---------------------------------------------------------------------------


def traced_replay(wl, records, seconds, import_s):
    """Replay ``records``' ops with the layers wrapped; per-layer metrics."""
    import numpy as np

    import spans

    deadline = time.perf_counter() + seconds
    traced = []
    if wl.name == "cli":
        span_file = os.path.join(wl.tmp, "spans.npz")
        wl.runner = [os.path.join(HERE, "tracechild.py"), span_file]
        parts, imports = [], []
        n_spans = 0
        for i, rec in enumerate(records):
            if time.perf_counter() > deadline or n_spans > SPAN_CAP:
                break
            if os.path.exists(span_file):
                os.remove(span_file)
            traced.append(run_op(wl, rec.op))
            if os.path.exists(span_file):
                part = spans.load(span_file)
                imports.append(part.pop("imports"))
                parts.append((part, i))
                n_spans += len(part["start"])
        all_spans = spans.merge(parts)
        numpy_ms, package_ms = (1e3 * np.median(imports, axis=0)) if imports else (0.0, 0.0)
    else:
        tracer = spans.Tracer()
        spans.install(tracer)
        for i, rec in enumerate(records):
            if time.perf_counter() > deadline or len(tracer) > SPAN_CAP:
                break
            tracer.op_id = i
            traced.append(run_op(wl, rec.op))
        all_spans = tracer.arrays()
        numpy_ms, package_ms = 1e3 * import_s[0], 1e3 * import_s[1]

    n = len(traced)
    traced_wall = sum(r.latency for r in traced)
    untraced_wall = sum(r.latency for r in records[:n])
    metrics = spans.layer_metrics(all_spans, n, traced_wall)
    metrics["bench.trace_overhead_frac"] = traced_wall / untraced_wall - 1.0 if n else 0.0
    metrics["import.numpy_ms"] = float(numpy_ms)
    metrics["import.infoblotto_ms"] = float(package_ms)
    for command in ("payoff", "sweep", "strategy", "verify", "simulate"):
        times = [1e3 * r.latency for r in records if r.op.kind == command]
        process_ms = statistics.median(times) if times and wl.name == "cli" else 0.0
        metrics[f"cli.{command}.process_ms"] = process_ms
    mismatches = sum(1 for r in records if (r.failure or "").startswith("exit "))
    metrics["cli.exit_mismatch"] = mismatches / len(records)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans.save(os.path.join(OUT_DIR, f"trace-{wl.name}.npz"), all_spans)
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    return {name: (metrics[name], units[name]) for name, _, _ in spans.PER_LAYER}, traced


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def shares(records):
    counts = {}
    for rec in records:
        for prop, value in rec.op.props.items():
            counts.setdefault(prop, {}).setdefault(value, 0)
            counts[prop][value] += 1
    return {
        prop: {v: round(c / sum(values.values()), 4) for v, c in sorted(values.items())}
        for prop, values in sorted(counts.items())
    }


def report_failures(records, known):
    """Print every failing input once, with its count and reason; return
    the number of failures the record at ``data/expected.json`` lacks: an
    input it does not name, or a failure of another kind than recorded."""
    import workloads

    grouped = {}
    for rec in records:
        if rec.failure is not None:
            key = (rec.op.kind, rec.op.key, rec.failure)
            if key not in grouped:
                grouped[key] = [0, workloads.is_known(rec.op, rec.failure, known)]
            grouped[key][0] += 1
    unknown = 0
    for (kind, key, reason), (count, is_known) in sorted(grouped.items()):
        unknown += not is_known
        print(f"FAIL [{'known' if is_known else 'NEW'}] {kind} {key} x{count}: {reason}")
    return unknown


def split_known(groups, known):
    """The groups whose inputs all lack a recorded failure, and the rest."""
    from workloads import known_key

    timed, defects = [], []
    for group in groups:
        (defects if any(known_key(op) in known for op in group) else timed).append(group)
    return timed, defects


def run_one(args):
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import infoblotto.cli  # noqa: F401

    t2 = time.perf_counter()
    expected = load_expected()
    wl = make_workload(args.workload, expected)
    try:
        if wl.name != "cli":
            warm_up(wl, args.seed)
        groups, defect_groups = split_known(wl.op_groups(args.seed), expected["known_failures"])
        if args.trace:
            records, _ = closed_loop(wl, groups, args.seconds / 2, args.seed)
            defects = [run_op(wl, op) for group in defect_groups for op in group]
            metrics, traced = traced_replay(
                wl, defects + records, args.seconds / 2, (t1 - t0, t2 - t1)
            )
            checked = records + traced[len(defects):]
            defects_checked = defects + traced[:len(defects)]
        else:
            records, setup_times = closed_loop(
                wl, groups, args.seconds, args.seed, lambda: measure_setup(args), SETUP_RUNS
            )
            defects = [run_op(wl, op) for group in defect_groups for op in group]
            metrics = end_to_end(wl, records, statistics.median(setup_times))
            checked = records
            defects_checked = defects
    finally:
        wl.close()

    failed = sum(r.failure is not None for r in checked)
    n_listed = sum(map(len, groups))
    print(f"workload = {wl.name}")
    print("provenance = " + json.dumps(provenance(args), sort_keys=True))
    print("shares = " + json.dumps(shares(records), sort_keys=True))
    print("defect_shares = " + json.dumps(shares(defects), sort_keys=True))
    print(f"ops = {len(records)} timed ({len(records) / n_listed:.2f} passes over "
          f"{n_listed} ops), {len(checked)} checked")
    if not args.trace:
        print(f"setup probes = {len(setup_times)}")
    import spans

    for name, (value, unit) in metrics.items():
        label = " (computed)" if name in spans.COMPUTED else ""
        print(f"{name} = {value:.6g} {unit}{label}")
    print(f"failed_frac = {failed / len(checked):.6g} 1 ({failed} of {len(checked)})")
    from workloads import known_key

    recorded = [r for r in defects if known_key(r.op) in expected["known_failures"]]
    still = sum(r.failure is not None for r in recorded)
    print(f"known_defects = {still} of {len(recorded)} drawn inputs with a recorded failure "
          f"fail ({len(recorded) - still} pass now); their {len(defects)} ops of the "
          f"{len(defects) + n_listed} in the list are checked once, untimed")
    unknown = report_failures(checked + defects_checked, expected["known_failures"])
    print(json.dumps({
        "correct": unknown == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, then one table of every metric."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.splitlines()
        results[name] = json.loads(lines[-1])
        results[name]["failed_frac"] = results[name]["failed"] / results[name]["attempted"]
    names = list(results[WORKLOADS[0]]["metrics"])
    print("\n" + "metric".ljust(40) + "".join(w.rjust(14) for w in WORKLOADS))
    for name in names:
        row = [results[w]["metrics"][name]["value"] for w in WORKLOADS]
        unit = results[WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name} [{unit}]".ljust(40) + "".join(f"{v:14.6g}" for v in row))
    print("failed_frac [1]".ljust(40) + "".join(f"{results[w]['failed_frac']:14.6g}" for w in WORKLOADS))
    print("correct".ljust(40) + "".join(str(results[w]["correct"]).rjust(14) for w in WORKLOADS))
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "infoblotto", "__init__.py")):
        print(f"error: no infoblotto sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
