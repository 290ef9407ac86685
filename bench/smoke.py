"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at the reduced size (`--small`) and checks that the
last output line carries every end-to-end metric of BENCHMARK.json with its
unit, and that every output passed its check; runs one traced workload and
checks the per-layer metrics; feeds a deliberately wrong recorded reference
and checks that it is counted as a failure; and runs the benchmark in a
directory without the library, where it must fail without printing a result.
Exits 0 when all of that holds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(lines):
    return json.loads(lines[-1])


def main() -> int:
    failures = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            failures.append(what)

    for w in SPEC["workloads"]:
        name = w["name"]
        code, lines, err = bench("--workload", name, "--seed", "3", "--seconds", "1",
                                 "--trace", "0", "--small")
        expect(code == 0, f"{name}: exit 0 ({err.strip()[-300:]})")
        if code != 0:
            continue
        res = result_of(lines)
        for m in SPEC["end_to_end"]:
            got = res["metrics"].get(m["name"])
            expect(got is not None and got["unit"] == m["unit"] and got["value"] > 0,
                   f"{name}: {m['name']} = {got}")
        expect(set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]},
               f"{name}: no metric beyond BENCHMARK.json")
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
               f"{name}: {res['failed']}/{res['attempted']} operations failed")

    code, lines, _ = bench("--workload", "variational", "--seed", "0", "--seconds", "1",
                           "--trace", "1", "--small")
    res = result_of(lines) if code == 0 else {"metrics": {}}
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in res["metrics"]]
    expect(code == 0 and not missing, f"traced run reports every per-layer metric {missing}")
    for m in SPEC["per_layer"]:
        if m["name"] in res["metrics"]:
            print(f"      {m['name']} {res['metrics'][m['name']]['value']:.6g} {m['unit']}")

    # a wrong recorded reference must count as a failed operation
    refs = json.loads((HERE / "references.json").read_text())
    rows = refs["small"]["cover_search"]["shift3_0.joined_cover_rate"]
    rows[0][1] += 1e-6
    WORK.mkdir(exist_ok=True)
    tampered = WORK / "tampered_references.json"
    tampered.write_text(json.dumps(refs))
    code, lines, _ = bench("--workload", "cover_search", "--seed", "0", "--seconds", "1",
                           "--trace", "0", "--small", "--references", str(tampered))
    res = result_of(lines) if code == 0 else {"correct": True, "failed": 0}
    expect(code == 0 and not res["correct"] and res["failed"] > 0,
           f"wrong reference counted: failed {res['failed']}/{res.get('attempted')}")

    # without the library the benchmark must fail and print no result
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines, _ = bench("--workload", "cover_search", "--seed", "0", "--seconds", "1",
                           "--trace", "0", cwd=bare, script=bare / HERE.name / "run.py")
    expect(code != 0 and not any(line.startswith("{") for line in lines),
           f"no library: exit {code}, no result printed")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
