"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload cover_search --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of BENCHMARK.json with `--trace 1`.  The
lines before it give the same numbers for a reader, and a run record with
every raw sample goes to bench/results/.  See bench/README.md.
"""

import os

# one caller, one thread: hold BLAS at a single thread (never above nproc);
# this must happen before numpy is imported
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
REFERENCES = HERE / "references.json"
SETUP_PROBES = 3
SETUP_TIMEOUT_S = 60

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="reduced window sizes and counts (used by the smoke test)")
    ap.add_argument("--references", type=Path, default=REFERENCES,
                    help="recorded reference values")
    ap.add_argument("--setup-only", action="store_true",
                    help="import the library, build the inputs and exit (set-up probe)")
    return ap.parse_args(argv)


def load_library():
    """Import the library from the checkout's src/ (and the workloads that use
    it); None when the checkout holds no library."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import coverentropy
        import workloads
        import tracing
    except ImportError as exc:
        print(f"cannot import coverentropy from {src}: {exc}", file=sys.stderr)
        return None
    if not Path(coverentropy.__file__).resolve().is_relative_to(src):
        print(f"coverentropy comes from {coverentropy.__file__}, not {src}", file=sys.stderr)
        return None
    return workloads, tracing


def tail(samples):
    """The highest percentile with at least ten samples beyond it, or None."""
    rank = len(samples) - 10
    if rank < 1:
        return None
    return 100 * rank // len(samples), sorted(samples)[rank - 1]


def measure_setup(args):
    """Wall time of fresh processes that start the interpreter, import the
    library and build the workload's inputs; one sample per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--small"] if args.small else [])
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return samples


def run_pass(workloads, build, seed, small, refs, tracer=None):
    """Build fresh inputs (untimed), then time every op of one pass, traced
    when a tracer is given.  Returns (wall, cpu, [(op, result or exception)])."""
    workloads.clear_library_caches()
    ops = build(seed, small, refs)
    gc.collect()
    results = []
    if tracer is not None:
        tracer.install()
    try:
        c0, t0 = time.process_time(), time.perf_counter()
        for op in ops:
            try:
                results.append((op, op.call()))
            except Exception as exc:  # a failed operation is counted, never fatal
                results.append((op, exc))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, cpu, results


def assess(results):
    """Check every output; returns per-pass counts and the problems found."""
    failed, exact, entries, evals, problems = 0, 0, 0, 0, []
    for op, res in results:
        if isinstance(res, Exception):
            failed += 1
            problems.append(f"{op.label}: {type(res).__name__}: {res}")
            continue
        try:
            bad = op.check(res)
            e, t = op.entries(res)
            evals += op.evals(res)
        except Exception as exc:
            bad = [f"check raised {type(exc).__name__}: {exc}"]
            e = t = 0
        exact, entries = exact + e, entries + t
        if bad:
            failed += 1
            problems.extend(f"{op.label}: {b}" for b in bad)
    return {"ops": len(results), "failed": failed, "exact": exact,
            "entries": entries, "evals": evals}, problems


def environment(args):
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             text=True, capture_output=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    import numpy
    import scipy
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    lib = load_library()
    if lib is None:
        return 2
    workloads, tracing = lib
    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    size = "small" if args.small else "full"
    refs = json.loads(args.references.read_text()).get(size, {}).get(args.workload, {})
    if args.setup_only:
        build(args.seed, args.small, refs)
        return 0

    # the reference kernel is timed around the set-up probes and after every
    # pass; its mean time gives the host speed during this run
    host = reference.Reference()
    ref_s = [host.time()]
    setup_raw = measure_setup(args)
    ref_s.append(host.time())
    run_pass(workloads, build, args.seed, True, refs)  # warm-up

    tracer = tracing.Tracer() if args.trace else None
    samples, span_passes, layer_rows, problems = [], [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(samples) % 2 == 1
        wall, cpu, results = run_pass(workloads, build, args.seed, args.small, refs,
                                      tracer if traced else None)
        ref_s.append(host.time())
        counts, found = assess(results)
        problems.extend(found)
        samples.append({"wall_s": wall, "cpu_s": cpu, "traced": traced, **counts})
        inputs = {op.label: op.params for op, _ in results}
        if traced:
            spans = tracer.take()
            span_passes.append(spans)
            layer_rows.append(tracing.pass_metrics(spans, wall))  # raw seconds
        elapsed = time.perf_counter() - start
        need_traced = tracer is not None and not layer_rows
        # stop where the expected end of the next pass is further past the
        # deadline than the end of this one is before it
        if elapsed + median(s["wall_s"] for s in samples) / 2 > args.seconds \
                and not need_traced:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = [s for s in samples if not s["traced"]]
    untraced_walls = [s["wall_s"] for s in plain]
    # rescale the times to the host speed at which the kernel takes NOMINAL_S
    scale = reference.NOMINAL_S / (sum(ref_s) / len(ref_s))
    attempted = sum(s["ops"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    end_to_end = {
        "wall_s": median(untraced_walls) * scale,
        "setup_s": median(setup_raw) * scale,
        "peak_rss_mb": peak_rss_mb,
        "certified_fraction": (sum(s["exact"] for s in plain)
                               / max(1, sum(s["entries"] for s in plain))),
        "evals_per_s": median(s["evals"] / s["wall_s"] for s in plain) / scale,
    }
    layer = {}
    if tracer is not None:
        layer = {k: median(row[k] for row in layer_rows) for k in layer_rows[0]}
        layer["trace.overhead_s"] = layer["trace.wall_s"] - median(untraced_walls)
        layer["host.raw_wall_s"] = median(untraced_walls)
        layer["host.ref_s"] = sum(ref_s) / len(ref_s)

    RESULTS.mkdir(exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            f"-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    record = {
        "environment": environment(args),
        "inputs": inputs,
        "setup_samples_s": setup_raw,
        "reference_s": ref_s,
        "reference_nominal_s": reference.NOMINAL_S,
        "scale": scale,
        "passes": samples,
        "tail_wall_s": tail(untraced_walls),
        "end_to_end": end_to_end,
        "failed_fraction": failed / attempted,
        "per_layer": layer,
        "problems": problems,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if span_passes:
        tracing.write_spans(RESULTS / f"{stem}-spans.jsonl.gz", span_passes)

    for p in problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} passes={len(samples)} "
          f"(untraced {len(untraced_walls)}) record={RESULTS.name}/{stem}.json")
    for name, value in end_to_end.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_fraction {failed / attempted:.6g} ratio ({failed}/{attempted} operations)")
    print(f"unscaled wall_s {median(untraced_walls):.6g} s, setup_s {median(setup_raw):.6g} s; "
          f"reference kernel {sum(ref_s) / len(ref_s):.6g} s (nominal {reference.NOMINAL_S} s)")
    t = record["tail_wall_s"]
    print("unscaled wall_s tail: " + (f"p{t[0]} {t[1]:.6g} s" if t else
                                      f"n/a with {len(untraced_walls)} samples (needs 11)"))
    for name, value in layer.items():
        print(f"{name} {value:.6g} {units.get(name, '')}".rstrip())

    values = layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
