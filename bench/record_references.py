"""Record the reference values that have no closed form.

    python3 bench/record_references.py

Runs seed 0 of `cover_search`, `variational` and `small_batch` at both
sizes and writes bench/references.json.  Run it only on a commit whose
values are trusted: the benchmark then holds every later commit to them
(exact entries to 1e-9; heuristic entries may only go down).
"""

import csv
import json
import sys

import run


def main() -> int:
    lib = run.load_library()
    if lib is None:
        return 2
    workloads, _ = lib
    out = {}
    for size, small in (("full", False), ("small", True)):
        workloads.clear_library_caches()
        cover = {op.label: workloads.recorded_rows(op.call())
                 for op in workloads.cover_search(0, small, {})
                 if op.label.startswith("shift3")}
        workloads.clear_library_caches()
        (var_op,) = workloads.variational(0, small, {})
        best = var_op.call().estimates["best_measure"]
        workloads.clear_library_caches()
        (cli_op,) = [op for op in workloads.small_batch(0, small, {}) if op.label == "cli.run"]
        if cli_op.call() != 0:
            print("coverentropy run failed; nothing recorded", file=sys.stderr)
            return 1
        with open(workloads.WORK / "cli_out" / "summary.csv", newline="") as fh:
            summary = list(csv.reader(fh))
        out[size] = {
            "cover_search": cover,
            "variational": {"best_measure": workloads.recorded_rows(best)},
            "small_batch": {"cli_summary": summary},
        }
    run.REFERENCES.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
