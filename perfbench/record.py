"""Record the outputs the benchmark checks against: ``data/expected.json``.

Run from the repository root at the commit whose behaviour is the reference:

    python3 perfbench/record.py

It stores the SHA-256 of every catalogued sweep CSV, and every input on
which the program fails at this commit, with the reason: each point of the
pools under the ``exact`` and ``certify`` checks, each point of the ``cli``
subset under the ``payoff``, ``strategy``, ``verify`` and ``simulate``
checks, and the CLI contract probes.  The benchmark times only ops whose
inputs the record does not name; it runs the recorded ones once a run,
untimed, lists each failure, and tells a known failure from a new one
(``correct``).  CLI point ops are recorded by calling ``cli.main`` in
this process with the same arguments and checks as the benchmark's
processes; a process that ends in an uncaught exception exits 1 with the
traceback on stderr, and so does the recording.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import workloads  # noqa: E402
from workloads import Op, check_certify, check_exact, failure_text  # noqa: E402


def _verdict(run, check, point):
    try:
        return check(run(point))
    except Exception as exc:  # every failure is recorded, whatever it is
        return failure_text(exc)


def _cli_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = workloads.cli.main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what the interpreter does with an uncaught one
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def main():
    digests = {}
    for spec in inputs.SURFACE_SPECS + inputs.CLI_SWEEP_SPECS:
        header, rows = workloads.cli.sweep_table(workloads.make_sweep_spec(spec))
        digests[spec[0]] = workloads.digest(workloads.csv_text(header, rows))

    known = {}
    pools = inputs.build_pools()
    points = inputs.all_points(pools)
    steps = (
        ("exact", workloads.run_exact, check_exact),
        ("certify", workloads.run_certify, check_certify),
    )
    for n, point in enumerate(points):
        for kind, run, check in steps:
            reason = _verdict(run, check, point)
            if reason is not None:
                known[f"{kind}|{inputs.point_key(point)}"] = reason
        if n % 200 == 0:
            print(f"{n}/{len(points)} points, {len(known)} failures", flush=True)

    tmp = os.path.join(ROOT, ".perfbench", "record-tmp")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    wl = workloads.CliWorkload({"digests": digests}, ROOT, env, tmp)
    try:
        cli_points = inputs.all_points(wl.pools)
        for point in cli_points:
            key = inputs.point_key(point)
            for kind in ("payoff", "strategy", "verify", "simulate"):
                op = Op(kind, key, {}, point)
                reason = wl.check(op, _cli_in_process(wl.argv(op)))
                if reason is not None:
                    known[workloads.known_key(op)] = reason
        print(f"{len(cli_points)} cli points, {len(known)} failures", flush=True)
        for probe in inputs.CLI_PROBES:
            op = Op("probe", probe[0], {}, probe)
            reason = wl.check(op, wl.execute(op))
            if reason is not None:
                known[workloads.known_key(op)] = reason
    finally:
        wl.close()

    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "expected.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as handle:
        json.dump({"digests": digests, "known_failures": known}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(points)} points, {len(known)} known failures -> {out}")


if __name__ == "__main__":
    main()
