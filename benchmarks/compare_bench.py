#!/usr/bin/env python
"""Compare two benchmark payloads and fail on per-record regressions.

The CI ``bench-gate`` job runs the smoke benchmark and checks it against
the committed baseline::

    repro-aggregate bench --smoke --output BENCH_new.json
    python benchmarks/compare_bench.py BENCH_core.json BENCH_new.json

Records are matched on (protocol, backend, n_hosts, rounds) and compared
by best-of-repeats time (a mean carries the cold first repeat); a matched
record slower than ``--threshold`` (default 2x)
fails the gate, sub-``--min-seconds`` cells are reported but treated as
timer noise, and cells present on only one side (the smoke run times a
subset of the committed sizes) never gate.  Exit codes: 0 ok, 1 at least
one regression, 2 usage / unreadable payloads / no overlapping records.

The comparison logic lives in :mod:`repro.perf` (``compare_benchmarks``)
and is unit-tested in ``tests/test_bench_compare.py``.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.perf import add_compare_arguments, run_compare_command  # noqa: E402  (path bootstrap must run first)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="compare_bench",
        description="Fail when a benchmark record regressed past the threshold",
    )
    add_compare_arguments(parser)
    return run_compare_command(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
