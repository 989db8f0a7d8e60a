"""Layer probes for the traced run: exactnum, inversive and linalg timed on
operands sampled from the workload's own coordinates and spheres.

Each probe times a batch of operations until the batch has run for at least
PROBE_S, five times, and reports the median scaled time per operation.
"""

from __future__ import annotations

import random
import statistics
import time

import oracles as O
from packinglab import QuadExt, inversive_product, reflection_matrix
from packinglab.linalg import inverse, mat_mul
from speed import reference_unit, scale

PROBE_S = 0.02
REPEATS = 5
BATCH = 256


def _per_op(fn, n: int) -> float:
    """Scaled seconds per operation (see speed.py), median of REPEATS."""
    times = []
    before = reference_unit()
    for _ in range(REPEATS):
        calls = 0
        start = time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= PROBE_S:
                break
        after = reference_unit()
        times.append(scale(elapsed, before, after) / (calls * n))
        before = after
    return statistics.median(times)


def _field(wall) -> int:
    return max(c.disc for c in wall.coords())


def run_probes(material: dict) -> tuple[dict, list[str]]:
    """Probe metrics by name, and any problem found on the way."""
    rng = random.Random(0)
    values = material["values"]
    by_disc = {d: [v for v in values if v.disc == d] for d in (0, 3)}
    metrics, problems = {}, []
    bound = material["bound"]
    for d, xs in by_disc.items():
        if not xs:
            problems.append(f"no d{d} operands to probe")
            continue
        pairs = [(rng.choice(xs), rng.choice(xs)) for _ in range(BATCH)]
        sample = [rng.choice(xs) for _ in range(BATCH)]
        metrics[f"exactnum.mul_ns.d{d}"] = _per_op(lambda: [x * y for x, y in pairs], BATCH) * 1e9
        metrics[f"exactnum.add_ns.d{d}"] = _per_op(lambda: [x + y for x, y in pairs], BATCH) * 1e9
        metrics[f"exactnum.cmp_ns.d{d}"] = _per_op(lambda: [abs(x) <= bound for x in sample], BATCH) * 1e9
    texts = [str(rng.choice(values)) for _ in range(BATCH)]
    metrics["exactnum.parse_ns"] = _per_op(lambda: [QuadExt.parse(s) for s in texts], BATCH) * 1e9

    pairs = material["pairs"]
    metrics["inversive.reflect_us"] = _per_op(lambda: [v.reflect(w) for v, w in pairs], len(pairs)) * 1e6
    metrics["inversive.product_us"] = _per_op(lambda: [inversive_product(v, w) for v, w in pairs], len(pairs)) * 1e6

    walls = material["walls"]
    metrics["inversive.reflection_matrix_us"] = (
        _per_op(lambda: [reflection_matrix(w) for w in walls], len(walls)) * 1e6
    )
    mats = [m.entries for m in (reflection_matrix(w) for w in sorted(walls, key=_field))]
    fields = sorted(_field(w) for w in walls)
    products = [(a, b) for a, b, fa, fb in zip(mats, mats[1:], fields, fields[1:]) if fa == fb]
    metrics["linalg.mat_mul_us"] = _per_op(lambda: [mat_mul(a, b) for a, b in products], len(products)) * 1e6
    metrics["linalg.inverse_us"] = _per_op(lambda: [inverse(m) for m in mats], len(mats)) * 1e6
    # a reflection is an involution, so each matrix is its own inverse
    exact = lambda m: [[O.exact(e) for e in row] for row in m]
    if any(exact(inverse(m)) != exact(m) for m in mats):
        problems.append("linalg.inverse of a reflection matrix is not the matrix itself")
    return metrics, problems
