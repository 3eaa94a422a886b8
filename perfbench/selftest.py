"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced, each in a fresh
process, and validates what it emits: the last stdout line and the result
file against perfbench/schema.json, and the metric names against
BENCHMARK.json. Then runs the benchmark in a directory that holds only
BENCHMARK.json and perfbench/, where it must fail without printing a result.
Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
from run import RESULTS, ROOT, benchmark

HERE = Path(__file__).resolve().parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def main() -> int:
    schema = json.loads((HERE / "schema.json").read_text())
    bench = benchmark()
    jsonschema.Draft202012Validator.check_schema(schema)
    result_v = jsonschema.Draft202012Validator(schema)
    line_v = jsonschema.Draft202012Validator({"$ref": "#/$defs/last_line", "$defs": schema["$defs"]})
    names = {0: [m["name"] for m in bench["end_to_end"]], 1: [m["name"] for m in bench["per_layer"]]}
    workloads = [w["name"] for w in bench["workloads"]]

    for wl in workloads:
        for trace in (0, 1):
            proc = run(ROOT, wl, trace)
            if proc.returncode != 0:
                print(f"{wl} trace {trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            line_v.validate(last)
            if list(last["metrics"]) != names[trace]:
                print(f"{wl} trace {trace}: metrics differ from BENCHMARK.json", file=sys.stderr)
                return 1
            result = json.loads((RESULTS / f"{wl}-seed3-trace{trace}.json").read_text())
            result_v.validate(result)
            if result["workload"] != wl or not last["correct"]:
                print(f"{wl} trace {trace}: wrong workload or failed output check", file=sys.stderr)
                return 1
            print(f"ok  {wl:<14} trace {trace}  {len(last['metrics'])} metrics")

    bare = RESULTS / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, workloads[0], 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        print("without the program the benchmark must fail and print no result", file=sys.stderr)
        return 1
    print(f"ok  no program: exit {proc.returncode}, no result printed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
