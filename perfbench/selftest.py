"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Every workload at smoke size, with tracing off and on, ends with a
   result line naming exactly the metrics of BENCHMARK.json, with their
   units, and no job fails.
2. A packing with one bend perturbed counts as a failed job, so the
   failure ratio of the pass is above zero.
3. In a directory that holds only BENCHMARK.json and perfbench/, run.py
   exits non-zero without printing a result.

Exits 0 when all three hold.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd: Path, workload: str, trace: int, smoke: bool = True) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), *(["--smoke"] if smoke else [])]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metric_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            try:
                line = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{workload} trace {trace}: no result line (exit {proc.returncode})")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace {trace}: result keys {sorted(line)}")
            if got != want:
                problems.append(f"{workload} trace {trace}: metrics {got} != {want}")
            bad = [n for n, m in line["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
            if bad:
                problems.append(f"{workload} trace {trace}: non-numeric values for {bad}")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                problems.append(f"{workload} trace {trace}: {line['failed']} of {line['attempted']} jobs failed")
            for name in want:
                if f"  {name} " not in proc.stdout:
                    problems.append(f"{workload} trace {trace}: report lacks {name}")
            print(f"smoke {workload} trace {trace}: {line['attempted']} jobs, {line['failed']} failed")
    return problems


def check_corrupted_bend() -> list[str]:
    sys.path.insert(0, str(HERE))
    import worker  # puts src/ on the path
    from packinglab import InversiveVector
    from spans import NullTracer

    wl = worker.workloads.Gasket(ROOT, seed=1, smoke=True)
    jobs = wl.jobs()
    generate = jobs[0].run

    def perturbed(ctx, tracer):
        packing = generate(ctx, tracer)
        i = len(packing.spheres) // 2
        rec = packing.spheres[i]
        v = rec.vector
        packing.spheres[i] = dataclasses.replace(rec, vector=InversiveVector(v.cobend, v.bend + 1, v.bz))
        return packing

    jobs[0] = dataclasses.replace(jobs[0], run=perturbed)
    _, _, _, _, failures = worker.run_pass(jobs, NullTracer(), 0)
    ratio = len(failures) / len(jobs)
    print(f"corrupted bend: {len(failures)} of {len(jobs)} jobs failed, fail_ratio {ratio:.3f}")
    if not failures or not failures[0].startswith(jobs[0].name):
        return ["a perturbed bend did not fail the job that produced it"]
    return []


def check_bare_directory() -> list[str]:
    run_dir = HERE / "_run"
    run_dir.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run_dir))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_run", "__pycache__"))
        proc = run_bench(bare, "gasket", 0, smoke=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print(f"bare directory: exit {proc.returncode}, stdout {len(proc.stdout)} bytes")
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["run.py printed a result without the packinglab source"]
    return []


def main() -> int:
    problems = check_metric_names() + check_corrupted_bend() + check_bare_directory()
    for p in problems:
        print(f"FAIL {p}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
