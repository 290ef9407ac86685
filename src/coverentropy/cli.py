"""Batch front end: run experiment configs and the verification suites.

Exit codes: 0 success, 1 per-window identity violation or property failure,
2 configuration error (a malformed config, or an input a task cannot take,
such as a cover given as a conditioner), 3 budget refusal without a fallback.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

from . import (
    config as config_mod,
    dynamic_entropy,
    families,
    measures,
    principles,
    static_entropy,
    systems,
    verify,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

NINE = "{:.9f}"


class TaskFailure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fmt(x: float, scale: float) -> str:
    return NINE.format(x * scale)


def _task_files(outdir, stem, document, header, rows):
    """A task's JSON document and its CSV table."""
    (outdir / f"{stem}.json").write_text(document)
    with open(outdir / f"{stem}.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _estimate_files(est, outdir, stem, scale):
    rows = [[N, NINE.format(a), NINE.format(per)] for N, a, per in est.csv_rows(scale)]
    _task_files(outdir, stem, json.dumps(est.to_json_dict(), indent=2),
                ["N", "a_N", "a_N_over_N"], rows)


def _report_files(report, outdir, stem, scale):
    name, lhs, rhs, gap, verdict, n_max, tol = report.summary_row(scale)
    _task_files(outdir, stem, json.dumps(report.to_json_dict(), indent=2),
                ["check_name", "lhs", "rhs", "gap", "verdict", "n_max", "tolerance"],
                [[name, NINE.format(lhs), NINE.format(rhs), NINE.format(gap), verdict,
                  n_max, tol]])


# each kind's library call, as (module, name) so that the call finds a
# patched function; it takes the task's `config.TASK_KINDS` values in order
# and its set options as keywords
_CALLS = {
    "static": (static_entropy, "conditional_cover_entropy"),
    "count": (static_entropy, "covering_number"),
    "h_minus": (dynamic_entropy, "joined_cover_rate"),
    "h_plus": (dynamic_entropy, "refining_partition_rate"),
    "h_top": (dynamic_entropy, "covering_rate"),
    "power_check": (dynamic_entropy, "power_identity_check"),
    "factor_check": (principles, "factor_invariance_check"),
    "variational": (principles, "variational_search"),
    "minmax": (principles, "minmax_check"),
    "bracket": (principles, "cover_rate_bracket"),
    "ergodic_check": (principles, "ergodic_additivity_check"),
    "factor_cond": (principles, "factor_conditioned_profile"),
}


def _run_task(cfg, i, outdir, scale):
    kind = cfg.tasks[i]["kind"]
    stem = f"task_{i:02d}_{kind}"
    args, options = cfg.arguments(i), cfg.options(i)
    if kind in ("static", "count"):
        args[-2:] = families.align_windows(*args[-2:])
    elif kind == "ergodic_check":
        args[0] = measures.ergodic_decompose(args[0])
    elif kind in ("variational", "minmax"):
        args, options = [cfg.system, *args], dict(options, seed=cfg.seed)
    module, name = _CALLS[kind]
    result = getattr(module, name)(*args, **options)

    if kind == "static":
        row = ("conditional_cover_entropy", _fmt(result.nats, scale), result.method)
        doc = {"quantity": row[0], "value": result.nats, "method": result.method}
        _task_files(outdir, stem, json.dumps(doc), ["quantity", "value", "method"],
                    [row])
        return ("static", row[0], result.nats * scale, None, "ok", 1, None)

    if kind == "count":
        doc = {"quantity": "covering_number", "value": result}
        _task_files(outdir, stem, json.dumps(doc), ["quantity", "value"],
                    [["covering_number", result]])
        return ("count", "covering_number", float(result), None, "ok", 1, None)

    if kind in ("h_minus", "h_top", "h_plus"):
        est = result.estimate if kind == "h_plus" else result
        _estimate_files(est, outdir, stem, scale)
        return (kind, est.quantity, est.running_inf * scale,
                est.stabilization_gap * scale, est.exactness, est.n_max, None)

    if kind == "power_check":
        _task_files(outdir, stem, json.dumps(result.to_json_dict(), indent=2),
                    ["N", "base_side", "power_side", "gap"],
                    [[N, _fmt(a, scale), _fmt(b, scale), _fmt(abs(a - b), scale)]
                     for N, a, b in result.pairs])
        if result.verdict == "violated":
            raise TaskFailure(EXIT_VIOLATION, f"power identity violated (task {i})")
        return ("power_check", "power_identity", result.max_gap, None,
                result.verdict, len(result.pairs), result.tolerance)

    _report_files(result, outdir, stem, scale)
    if result.verdict == principles.VIOLATED:
        raise TaskFailure(EXIT_VIOLATION, f"{result.name} violated (task {i})")
    return (kind, result.name, result.lhs * scale, result.gap * scale,
            result.verdict, result.n_max, result.tolerance)


def run(config_path, output_dir, seed=None, n_max=None, tolerance=None,
        bits=False) -> int:
    """Execute the tasks of a config in declaration order; one CSV and one
    JSON per task plus a combined summary.  Deterministic given config and
    seed."""
    outdir = Path(output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        cfg = config_mod.load_config(config_path, seed, n_max, tolerance)
    except config_mod.ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    scale = 1.0 / math.log(2.0) if bits else 1.0

    rows = []
    status = EXIT_OK
    for i, task in enumerate(cfg.tasks):
        try:
            row = _run_task(cfg, i, outdir, scale)
            rows.append((i,) + row)
        except config_mod.ConfigError as e:
            print(f"task {i} config error: {e}", file=sys.stderr)
            return EXIT_CONFIG
        except families.UStarBudgetExceeded as e:
            print(f"task {i} budget refusal: {e}", file=sys.stderr)
            return EXIT_BUDGET
        except TaskFailure as e:
            print(f"task {i} failed: {e}", file=sys.stderr)
            rows.append((i, task["kind"], "FAILED", math.nan, math.nan,
                         "violated", 0, None))
            status = max(status, e.code)
        except (static_entropy.RouteDisagreement,
                dynamic_entropy.SubadditivityError) as e:
            print(f"task {i} identity violation: {e}", file=sys.stderr)
            rows.append((i, task["kind"], "FAILED", math.nan, math.nan,
                         "violated", 0, None))
            status = max(status, EXIT_VIOLATION)
        except (static_entropy.EntropyError, families.FamilyError,
                systems.SystemError, measures.MeasureError) as e:
            # RouteDisagreement, the EntropyError of a violation, is caught
            # above; what is left is an input the task cannot take, such as
            # a cover given as a conditioner
            print(f"task {i} input error: {e}", file=sys.stderr)
            return EXIT_CONFIG

    with open(outdir / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["task", "kind", "check_name", "value", "gap", "verdict",
                    "n_max", "tolerance"])
        for row in rows:
            w.writerow(row)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coverentropy",
        description="conditional cover entropy computations on symbolic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--n-max", type=int, default=None,
                       help="override every task's n_max")
    p_run.add_argument("--tolerance", type=float, default=None,
                       help="override every task's tolerance")
    p_run.add_argument("--bits", action="store_true",
                       help="report entropies in bits instead of nats")

    p_ver = sub.add_parser("verify", help="run the property and acceptance suites")
    p_ver.add_argument("--level", choices=["fast", "full"], default="fast")
    p_ver.add_argument("--seed", type=int, default=42)

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.out, args.seed, args.n_max,
                   args.tolerance, args.bits)
    return verify.verify_suite(args.level, args.seed)


if __name__ == "__main__":
    sys.exit(main())
