"""Run one ``infoblotto`` CLI command with every layer traced.

    python3 perfbench/tracechild.py SPANS_FILE ARG...

Behaves like ``python -m infoblotto.cli ARG...`` (same output and exit
code) and writes the spans and the two import times to SPANS_FILE.
"""

import sys
import time

t0 = time.perf_counter()
import numpy as np  # noqa: E402

t1 = time.perf_counter()
import infoblotto.cli  # noqa: E402

t2 = time.perf_counter()

import spans  # noqa: E402


def main():
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.op_id = 0
    try:
        return infoblotto.cli.main(sys.argv[2:])
    finally:
        arrays = tracer.arrays()
        arrays["imports"] = np.array([t1 - t0, t2 - t1])
        spans.save(sys.argv[1], arrays)


if __name__ == "__main__":
    sys.exit(main())
