"""Compare two ``bench/run.py`` result files: ``python3 bench/compare.py base.json change.json``.

One row per workload × end-to-end metric, with the ratio change/base and a
status:

``ok``          no worse than the base by more than the metric's bound
``REGRESSED``   worse by more than the bound
``unresolved``  within the bound, but the block-to-block spread of either
                side is wider than the bound, so "unchanged" cannot be
                claimed — unless every block of the change reads better
                than every block of the base, which is ``ok``

then the per-layer deltas and any ``sim.*`` count that changed.  Exits 1 on
a regression or a higher ``failed_frac``, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys

from metrics import END_TO_END


def worsening(better: str, base: float, change: float) -> float:
    """How much worse ``change`` is than ``base``, as a share of ``base``."""
    delta = (change - base) / base
    return delta if better == "lower" else -delta


def spread(blocks, metric: str) -> float:
    values = [block[metric] for block in blocks]
    return (max(values) - min(values)) / statistics.median(values)


def judge(metric, better, bound, base_row, change_row):
    base, change = base_row["end_to_end"][metric], change_row["end_to_end"][metric]
    worse = worsening(better, base, change)
    widest = max(spread(base_row["blocks"], metric), spread(change_row["blocks"], metric))
    base_blocks = [block[metric] for block in base_row["blocks"]]
    change_blocks = [block[metric] for block in change_row["blocks"]]
    if better == "lower":
        all_better = max(change_blocks) < min(base_blocks)
    else:
        all_better = min(change_blocks) > max(base_blocks)
    if worse > bound:
        status = "REGRESSED"
    elif widest > bound and not all_better:
        status = "unresolved"
    else:
        status = "ok"
    return base, change, worse, widest, status


def compare(base: dict, change: dict) -> int:
    regressed = False
    if base["environment"]["seed"] != change["environment"]["seed"]:
        print("note: the two runs used different seeds, so sim.* counts differ by construction")
    print(f"{'workload':<18}{'metric':<19}{'base':>13}{'change':>13}{'ratio':>8}"
          f"{'worse':>8}{'bound':>7}{'spread':>8}  status")
    for name, base_workload in base["workloads"].items():
        base_row, change_row = base_workload["timed"], change["workloads"][name]["timed"]
        if "end_to_end" in base_row and "end_to_end" in change_row:
            for metric, _unit, better, bound in END_TO_END:
                b, c, worse, widest, status = judge(metric, better, bound, base_row, change_row)
                regressed |= status == "REGRESSED"
                print(f"{name:<18}{metric:<19}{b:>13.6g}{c:>13.6g}{c / b:>8.3f}"
                      f"{worse:>+8.1%}{bound:>7.0%}{widest:>8.1%}  {status}")
        b, c = base_row["failed_frac"], change_row["failed_frac"]
        status = "REGRESSED" if c > b or "end_to_end" not in change_row else "ok"
        regressed |= status == "REGRESSED"
        print(f"{name:<18}{'failed_frac':<19}{b:>13.6g}{c:>13.6g}{'':>8}{'':>8}{'any':>7}{'':>8}  {status}")

    print("\nper-layer deltas (traced pass; value change/base, no bound)")
    for name, base_workload in base["workloads"].items():
        base_layers = base_workload["traced"]["per_layer"]
        change_layers = change["workloads"][name]["traced"]["per_layer"]
        for metric, cell in base_layers.items():
            b, c = cell["value"], change_layers[metric]["value"]
            if b == 0 and c == 0:
                continue
            if metric.startswith("sim."):
                if b != c:
                    print(f"{name:<18}{metric:<46}{b:>16.9g}{c:>16.9g}  CHANGED")
                continue
            ratio = f"{c / b:>8.3f}" if b else f"{'new':>8}"
            print(f"{name:<18}{metric:<46}{b:>16.6g}{c:>16.6g}{ratio}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            documents.append(json.load(handle))
    return compare(*documents)


if __name__ == "__main__":
    sys.exit(main())
