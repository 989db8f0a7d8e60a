"""packinglab benchmark.

    python3 perfbench/run.py --workload {gasket,hexpyr,fields,tour} --seed N \
        --seconds S --trace 0|1 [--smoke]

Each run starts fresh worker processes, one at a time: SETUP_PROBES that only
set up, then one that sets up and measures.  setup_s is the median set-up
time of all of them.  The measuring worker repeats the workload's job list
for --seconds and checks every output outside the timed region.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with --trace 1
they are the per-layer ones, from a run whose passes alternate untraced and
traced.  The lines before it are a readable report, and the whole result,
with its machine record, is written to perfbench/_run/.

--smoke shrinks every input so that a run takes a few seconds; the
self-test uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gasket", "hexpyr", "fields", "tour")
SETUP_PROBES = 2
TIME_LIMIT_S = 170

END_TO_END = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "spheres_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "exactnum.mul_ns.d0": "ns",
    "exactnum.mul_ns.d3": "ns",
    "exactnum.add_ns.d0": "ns",
    "exactnum.add_ns.d3": "ns",
    "exactnum.cmp_ns.d0": "ns",
    "exactnum.cmp_ns.d3": "ns",
    "exactnum.parse_ns": "ns",
    "inversive.reflect_us": "us",
    "inversive.product_us": "us",
    "inversive.reflection_matrix_us": "us",
    "linalg.mat_mul_us": "us",
    "linalg.inverse_us": "us",
    "trace.overhead_s": "s",
}


class RunError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        # one BLAS thread: at most nproc, and no slow first lstsq call
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_worker(args, extra: list[str], deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *(["--smoke"] if args.smoke else []),
        *extra,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"worker exceeded the {TIME_LIMIT_S} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def report(args, result: dict) -> list[str]:
    out = [f"packinglab benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}"]
    stats = result["untraced"]
    out.append(
        f"  {stats['passes']} passes of {len(result['job_names'])} jobs, closed loop, one job at a time; "
        f"attempted {result['attempted']}, failed {result['failed']}, "
        f"fail_ratio {result['failed'] / result['attempted']:.4g}"
    )
    for name, unit in END_TO_END.items():
        if name in result["end_to_end"]:
            note = ""
            if name == "job_tail_s":
                note = f"  (p{stats['tail_percentile']:.1f} of {stats['jobs']} jobs)"
            if name == "wall_s":
                note = "  (job list, each job at its median over the passes)"
            out.append(f"  {name:16s} {result['end_to_end'][name]:12.6g} {unit}{note}")
    if args.trace:
        out.append(f"  traced passes: {result['traced']['passes']}; spans in {result['trace_file']}")
        out.append("  self time per pass by module (share of traced job time):")
        for module, secs in result["self_s"].items():
            out.append(f"    {module:12s} {secs:10.4f} s  {100 * result['self_share'][module]:5.1f} %")
        out.append("  module metrics per pass:")
        for name, value in sorted(result["module_metrics"].items()):
            out.append(f"    {name:36s} {value:.6g}")
        for name, unit in PER_LAYER.items():
            out.append(f"  {name:32s} {result['per_layer'][name]:12.6g} {unit}")
    out.append(f"  counters per pass: {json.dumps(result['counters'], sort_keys=True)}")
    for failure in result["failures"]:
        out.append(f"  FAILED {failure}")
    out.append(f"  machine: {json.dumps(result['machine'], sort_keys=True)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "packinglab" / "__init__.py").is_file():
        print(f"error: no packinglab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = [run_worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        result = run_worker(args, [], deadline)
    except (RunError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])
    stats = result["untraced"]
    result["end_to_end"] = {
        "wall_s": stats["wall_s"],
        "job_p50_s": stats["job_p50_s"],
        "job_tail_s": stats["job_tail_s"],
        "spheres_per_s": stats["spheres_per_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    result["setup_samples_s"] = setups
    result["fail_ratio"] = result["failed"] / result["attempted"]
    values = result["per_layer"] if args.trace else result["end_to_end"]
    units = PER_LAYER if args.trace else END_TO_END
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    run_dir = HERE / "_run"
    run_dir.mkdir(exist_ok=True)
    mode = "smoke" if args.smoke else "full"
    path = run_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}-{mode}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True))
    print("\n".join(report(args, result)))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
