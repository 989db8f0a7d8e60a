"""One workload in a fresh process: set up, run passes, check, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only] [--smoke]

run.py starts this process; it prints one JSON object as its last line.
Set-up time counts from the first statement of this file, so it covers the
import of packinglab, the fixtures, the tour's input files and the warm-up.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = HERE / "_run"
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from spans import NullTracer, Tracer, self_times  # noqa: E402
from speed import reference_unit, scale  # noqa: E402

MIN_PASSES = 5  # passes in every run without tracing
TAIL_JOBS = 2.5  # jobs per pass beyond the tail percentile


def run_pass(jobs, tracer, first_job_id):
    """One pass in a closed loop: each job starts when the last one ends.

    The reference unit runs before the first job and after each job, and
    then the job's check; neither is inside the job's latency.  Returns the
    scaled and raw latencies, the unit times, the work counters of the pass
    and its failures.
    """
    ctx = {}
    raw, units, counters, failures = [], [reference_unit()], {}, []
    for i, job in enumerate(jobs):
        tracer.job = first_job_id + i
        start = time.perf_counter()
        try:
            with tracer.span("job"):
                out = job.run(ctx, tracer)
        except Exception:
            raw.append(time.perf_counter() - start)
            units.append(reference_unit())
            failures.append(f"{job.name}: raised\n{traceback.format_exc(limit=4)}")
            continue
        raw.append(time.perf_counter() - start)
        units.append(reference_unit())
        try:
            problems, found = job.check(ctx, out)
        except Exception:
            problems, found = [f"check raised\n{traceback.format_exc(limit=4)}"], {}
        if problems:
            failures.append(f"{job.name}: {'; '.join(problems)}")
        for name, value in found.items():
            merge = max if name in workloads.MAX_COUNTERS else int.__add__
            counters[name] = merge(counters[name], value) if name in counters else value
    scaled = [scale(t, u0, u1) for t, u0, u1 in zip(raw, units, units[1:])]
    return scaled, raw, units, counters, failures


def job_stats(passes: list[list[float]]) -> dict:
    """Latency statistics of a list of passes of the same jobs.

    wall_s is the job list's time with each job at its median over the
    passes; p50 pools every job of every pass.  The tail is taken at
    percentile 100 * (1 - TAIL_JOBS / J) for J jobs per pass, which leaves
    TAIL_JOBS * passes >= 10 jobs beyond it.  Because the percentile depends
    only on the job list, the tail stays on the same job when a run fits
    one more pass, and it falls in the middle of that job's samples rather
    than on its slowest one.
    """
    jobs = len(passes[0])
    wall = sum(statistics.median(col) for col in zip(*passes))
    pooled = sorted(x for p in passes for x in p)
    n = len(pooled)
    pct = 100.0 * max(0.0, 1 - TAIL_JOBS / jobs)
    if TAIL_JOBS * len(passes) < 10:  # only in a traced run: the highest with ten beyond
        pct = 100.0 * max(0.0, (n - 10) / n)
    rank = max(1, math.ceil(pct / 100 * n - 1e-9))
    return {
        "wall_s": wall,
        "job_p50_s": statistics.median(pooled),
        "job_tail_s": pooled[rank - 1],
        "tail_percentile": pct,
        "jobs": n,
        "passes": len(passes),
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for base in (ROOT / "src" / "packinglab", HERE):
        for path in sorted(base.glob("*.py")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def ledger_problem(args, counters) -> str | None:
    """Counters of the same code and seed must repeat across runs."""
    key = f"{args.workload}-s{args.seed}-{'smoke' if args.smoke else 'full'}-{source_digest()}"
    path = RUN_DIR / "counters" / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        before = json.loads(path.read_text())
        if before != counters:
            return f"nondeterminism: counters {counters} differ from an earlier run's {before}"
        return None
    path.write_text(json.dumps(counters, sort_keys=True))
    return None


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    import numpy

    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def machine_record() -> dict:
    import mpmath
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
    }


def measure(wl, args) -> dict:
    """Repeat the pass until --seconds have gone by, always ending on a
    whole pass, and at least MIN_PASSES times.  With tracing on, passes
    alternate untraced and traced, at least one of each."""
    jobs = wl.jobs()
    tracer = Tracer()
    plain, traced, plain_raw, units, counters, failures = [], [], [], [], [], []
    job_scale = {}  # job id -> factor from raw to scaled seconds, for spans
    deadline = time.perf_counter() + args.seconds
    k = 0
    while True:
        with_trace = args.trace and k % 2 == 1
        lat, raw, unit, found, bad = run_pass(jobs, tracer if with_trace else NullTracer(), k * len(jobs))
        job_scale.update((k * len(jobs) + i, a / b) for i, (a, b) in enumerate(zip(lat, raw)) if b)
        (traced if with_trace else plain).append(lat)
        if not with_trace:
            plain_raw.append(raw)
        units += unit
        counters.append(found)
        failures += [f"pass {k}: {b}" for b in bad]
        k += 1
        if time.perf_counter() >= deadline and k >= (2 if args.trace else MIN_PASSES):
            break
    failed = len(failures)
    if any(c != counters[0] for c in counters):
        failures.append(f"nondeterminism: counters differ between passes: {counters}")
        failed += 1
    problem = ledger_problem(args, counters[0])
    if problem:
        failures.append(problem)
        failed += 1
    out = {
        "attempted": k * len(jobs),
        "failed": failed,
        "failures": failures[:20],
        "counters": counters[0],
        "job_names": [j.name for j in jobs],
        "job_samples_s": [list(col) for col in zip(*plain)],
        "job_raw_samples_s": [list(col) for col in zip(*plain_raw)],
        "untraced": job_stats(plain),
        "untraced_raw": job_stats(plain_raw),
        "reference_unit_quartiles_s": statistics.quantiles(units, n=4),
    }
    stats = out["untraced"]
    if "spheres" in counters[0]:
        stats["spheres_per_s"] = counters[0]["spheres"] / stats["wall_s"]
    if args.trace:
        out.update(traced_report(wl, jobs, tracer, job_scale, traced, counters[0], stats))
        out["failed"] += len(out["probe_failures"])
        out["failures"] += out["probe_failures"]
    return out


def traced_report(wl, jobs, tracer, job_scale, traced, counters, plain_stats) -> dict:
    import probes

    traced_stats = job_stats(traced)
    n = len(traced)
    rows = self_times(tracer.spans, job_scale)
    modules: dict[str, float] = {}
    for name, row in rows.items():
        module = "harness" if name == "job" else name.split(".", 1)[0]
        modules[module] = modules.get(module, 0.0) + row["self_s"]
    total = sum(modules.values())
    module_metrics = {f"{name}_s": row["total_s"] / n for name, row in rows.items() if name != "job"}
    module_metrics.update(counters)
    if "orbit.generate_s" in module_metrics:
        module_metrics["orbit.spheres_per_s"] = counters["orbit.spheres"] / module_metrics["orbit.generate_s"]
    if "localglobal.residue_orbit_s" in module_metrics:
        module_metrics["localglobal.vectors_per_s"] = (
            counters["localglobal.vectors"] / module_metrics["localglobal.residue_orbit_s"]
        )
    per_layer, probe_failures = probes.run_probes(wl.probe_material())
    per_layer["trace.overhead_s"] = traced_stats["wall_s"] - plain_stats["wall_s"]
    trace_path = RUN_DIR / f"trace-{wl.name}-s{wl.seed}.json"
    trace_path.write_text(json.dumps({"job_names": [j.name for j in jobs], "spans": tracer.as_records()}))
    return {
        "traced": traced_stats,
        "self_s": {m: s / n for m, s in sorted(modules.items(), key=lambda kv: -kv[1])},
        "self_share": {m: s / total for m, s in modules.items()},
        "module_metrics": module_metrics,
        "per_layer": per_layer,
        "probe_failures": probe_failures,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    import packinglab

    if Path(packinglab.__file__).resolve().parent != ROOT / "src" / "packinglab":
        print(f"packinglab imported from {packinglab.__file__}, not this checkout", file=sys.stderr)
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.smoke)
    setup_raw = time.perf_counter() - T_START
    unit = statistics.median(reference_unit() for _ in range(3))
    setup_s = scale(setup_raw, unit, unit)
    try:
        result = {} if args.setup_only else measure(wl, args)
    finally:
        wl.close()
    result["setup_s"] = setup_s
    result["setup_raw_s"] = setup_raw
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["machine"] = machine_record()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
