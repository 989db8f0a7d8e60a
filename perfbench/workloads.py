"""The four benchmark workloads: seeded inputs, job lists and output checks.

A workload is built from the run seed and hands packinglab only the inputs
generated from it: bounds, moduli, solver seeds and random walls.  Its job
list is one pass; the runner repeats the pass.  A job is one request a user
would make (one library call, or one CLI command in the tour) and may open
several spans, one around each call into a packinglab module.

Each job has a check that runs outside the timed region.  It returns the
problems it found (none means the output is correct) and the work counters
of the output: spheres, bytes, vectors, iterations, decompositions.

Sizes are chosen so that a pass takes a few seconds on a 2-core x86 box
(Python 3.11), so a run of the benchmark's length holds several passes, and
so that the work in a pass barely depends on the seed: where the seed moves
one bound up it moves its partner down by the amount that keeps the work
level.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

import oracles as O
from spans import NullTracer
from packinglab import (
    QuadExt,
    bends_conjugate,
    bends_vector,
    certify_integral,
    enumerate_decompositions,
    generate_packing,
    generate_superpacking,
    gram_from_diagram,
    gram_matrix,
    guess_walls,
    inversive_product,
    parse_diagram,
    plane_from_normal_offset,
    q_matrix,
    realize,
    reflection_matrix,
    render_svg,
    residue_orbit,
    sphere_from_center_radius,
    verify_realization,
    vinberg_test,
    missing_bends,
)
from packinglab import cli, fixtures, serialize
from packinglab.coxeter import GramMatrix
from packinglab.geometrize import DisjointFree
from packinglab.linalg import mat_mul, transpose

# counters that combine across jobs by max rather than by sum
MAX_COUNTERS = {"orbit.max_word_length"}

SAMPLE = 64  # spheres kept per packing for the traced run's probes


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable  # run(ctx, tracer) -> output; ctx is shared along one pass
    check: Callable  # check(ctx, output) -> (problems, counters)


class Workload:
    """Common parts: seeded rng, probe material collected during checks."""

    name = ""

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.root = root
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.samples: list = []  # InversiveVectors from the workload's outputs

    def jobs(self) -> list[Job]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One pass of the same kinds of jobs at tiny sizes, unchecked."""
        ctx = {}
        for job in self._tiny_jobs():
            job.run(ctx, NullTracer())

    def _tiny_jobs(self) -> list[Job]:
        raise NotImplementedError

    def probe_material(self) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _keep_sample(self, vectors) -> None:
        if not self.samples:
            vectors = list(vectors)
            self.samples = random.Random(len(vectors)).sample(vectors, min(SAMPLE, len(vectors)))


def _bend_problems(packing, bound, want_integral) -> list[str]:
    """Q(v) = -1, |bend| <= bound unless a plane, no duplicates, integrality."""
    out = []
    seen = set()
    bound = O.exact(bound)
    for rec in packing.spheres:
        c = O.coords(rec.vector)
        if not O.same(O.product(c, c), O.MINUS_ONE):
            out.append(f"sphere off the quadric: bend {rec.vector.bend}")
        size = c[1] if O.sign(c[1]) >= 0 else O.neg(c[1])
        if O.sign(c[1]) != 0 and O.sign(O.add(bound, O.neg(size))) < 0:
            out.append(f"bend {rec.vector.bend} beyond the bound")
        seen.add(tuple(c))
    if len(seen) != len(packing.spheres):
        out.append("duplicate coordinates")
    integral = all(O.is_integer(O.exact(r.vector.bend)) for r in packing.spheres)
    if integral != want_integral:
        out.append(f"packing integral={integral}, expected {want_integral}")
    return out[:5]


def _certify_problems(packing, report) -> list[str]:
    integral = all(O.is_integer(O.exact(r.vector.bend)) for r in packing.spheres)
    out = []
    if report.integral != integral:
        out.append(f"certify says integral={report.integral}, bends say {integral}")
    if any(O.is_integer(O.exact(w.vector.bend)) for w in report.witnesses):
        out.append("an integral bend reported as a witness")
    if not integral and not report.witnesses:
        out.append("non-integral packing without a witness")
    return out


def _dump_problems(packing, text) -> list[str]:
    doc = json.loads(text)
    bends = [O.parse_exact(s["bend"]) for s in doc["spheres"]]
    if bends != [O.exact(r.vector.bend) for r in packing.spheres]:
        return ["dumped bends differ from the packing"]
    return []


def _max_word(packing) -> int:
    return max(r.word_length for r in packing.spheres)


# -- gasket -------------------------------------------------------------------


class Gasket(Workload):
    """Rational Apollonian packing: orbit, exactnum over Q, reflect,
    serialize, render and the residue BFS carry the load."""

    name = "gasket"

    def __init__(self, root, seed, smoke):
        super().__init__(root, seed, smoke)
        delta = self.rng.uniform(-1.0, 1.0)
        small, large = (40, 80) if smoke else (200, 500)
        # cost grows like bound^1.45; the large bound moves against the
        # small one so that a pass does the same work for every seed, and
        # the moves are small so that no single job's cost moves much
        self.bounds = (round(small * (1 + 0.05 * delta)), round(large * (1 - 0.014 * delta)))
        moduli = [24, 48] if smoke else [120, 240]
        self.rng.shuffle(moduli)
        self.scans = {m: self.rng.randint(self.bounds[1] // 2, self.bounds[1]) for m in moduli}
        self.moduli = tuple(moduli)
        self.system = fixtures.apollonian_system()
        self.cluster = self.system.cluster_walls()
        self.cocluster = self.system.cocluster_walls()
        self.warm_up()

    def _tiny_jobs(self):
        return self._make_jobs((20,), (24,), {24: 20})

    def jobs(self):
        return self._make_jobs(self.bounds, self.moduli, self.scans)

    def _make_jobs(self, bounds, moduli, scans):
        jobs = []
        for b in bounds:
            jobs += [
                Job(f"generate b={b}", partial(self._generate, b), partial(self._check_generate, b)),
                Job(f"certify b={b}", partial(self._certify, b), partial(self._check_certify, b)),
                Job(f"dumps b={b}", partial(self._dumps, b), partial(self._check_dumps, b)),
                Job(f"loads b={b}", partial(self._loads, b), partial(self._check_loads, b)),
                Job(f"render b={b}", partial(self._render, b), partial(self._check_render, b)),
            ]
        jobs.append(Job("bends_conjugate", self._conjugate, self._check_conjugate))
        for m in moduli:
            jobs += [
                Job(f"residue m={m}", partial(self._residue, m), partial(self._check_residue, m)),
                Job(
                    f"missing m={m}",
                    partial(self._missing, m, max(bounds), scans[m]),
                    partial(self._check_missing, m, max(bounds), scans[m]),
                ),
            ]
        return jobs

    def _generate(self, b, ctx, tr):
        with tr.span("orbit.generate"):
            ctx["packing", b] = generate_packing(self.system, QuadExt(b), max_word=600)
        return ctx["packing", b]

    def _check_generate(self, b, ctx, p):
        got = sorted(O.exact(r.vector.bend) for r in p.spheres)
        problems = []
        if any(x[1] for x in got) or [x[0] for x in got] != list(O.gasket_bends(self.root, b)):
            problems.append(f"bends at bound {b} differ from the Descartes oracle")
        if not p.saturated:
            problems.append(f"packing at bound {b} not saturated")
        self._keep_sample(r.vector for r in p.spheres)
        return problems, {"orbit.spheres": len(p.spheres), "orbit.max_word_length": _max_word(p)}

    def _certify(self, b, ctx, tr):
        with tr.span("orbit.certify"):
            return certify_integral(ctx["packing", b])

    def _check_certify(self, b, ctx, report):
        p = ctx["packing", b]
        problems = _certify_problems(p, report)
        if not report.integral:
            problems.append(f"gasket at bound {b} not integral")
        return problems, {"spheres": len(p.spheres)}

    def _dumps(self, b, ctx, tr):
        with tr.span("serialize.dumps"):
            ctx["text", b] = serialize.dumps(ctx["packing", b])
        return ctx["text", b]

    def _check_dumps(self, b, ctx, text):
        return _dump_problems(ctx["packing", b], text), {"serialize.bytes": len(text)}

    def _loads(self, b, ctx, tr):
        with tr.span("serialize.loads"):
            return serialize.loads(ctx["text", b])

    def _check_loads(self, b, ctx, q):
        p = ctx["packing", b]
        meta = lambda x: (x.saturated, O.exact(x.bend_bound), x.max_word, x.generator_idx, x.dim, x.boundary_walls)
        recs = lambda x: [(tuple(O.coords(r.vector)), r.word_length, r.parent_generator) for r in x.spheres]
        if meta(p) != meta(q) or recs(p) != recs(q):
            return [f"loads(dumps(p)) differs from p at bound {b}"], {}
        return [], {}

    def _render(self, b, ctx, tr):
        with tr.span("render.svg"):
            return render_svg(ctx["packing", b], labels=True)

    def _check_render(self, b, ctx, svg):
        p = ctx["packing", b]
        want = O.drawn_circles(
            (O.exact(r.vector.bend)[0], [O.exact(c)[0] for c in r.vector.bz]) for r in p.spheres
        )
        problems = []
        if svg.count("<circle ") != want or svg.count("<text ") != want:
            problems.append(f"svg at bound {b} draws {svg.count('<circle ')} circles, expected {want}")
        if not (svg.startswith("<?xml") and svg.endswith("</svg>\n")):
            problems.append("svg is not a complete document")
        return problems, {"render.svg_bytes": len(svg)}

    def _conjugate(self, ctx, tr):
        with tr.span("inversive.reflection_matrix"):
            refls = [reflection_matrix(w) for w in self.cocluster]
        with tr.span("arithmetic.bends_conjugate"):
            ctx["gens"] = [bends_conjugate(r, self.cluster) for r in refls]
            ctx["start"] = bends_vector(self.cluster)
        return ctx["gens"]

    def _check_conjugate(self, ctx, gens):
        start = tuple(int(O.exact(b)[0]) for b in ctx["start"])
        entries = [[O.exact(e) for e in row] for g in gens for row in g]
        if not all(O.is_integer(e) for row in entries for e in row):
            return ["bends conjugates are not integer matrices"], {}
        images = {
            tuple(sum(int(O.exact(g[r][c])[0]) * start[c] for c in range(4)) for r in range(4))
            for g in gens
        }
        if images != O.descartes_moves(start):
            return ["bends conjugates are not the Descartes moves"], {}
        return [], {}

    def _residue(self, m, ctx, tr):
        with tr.span("localglobal.residue_orbit"):
            ctx["orbit", m] = residue_orbit(ctx["gens"], ctx["start"], m)
        return ctx["orbit", m]

    def _check_residue(self, m, ctx, orbit):
        start = tuple(int(O.exact(b)[0]) for b in ctx["start"])
        residues, count = O.descartes_residues(start, m)
        problems = []
        if orbit.residues != residues or orbit.vector_count != count:
            problems.append(f"residue orbit mod {m} differs from the Descartes orbit")
        for key, p in ctx.items():
            if key[0] == "packing":
                if any(int(O.exact(r.vector.bend)[0]) % m not in residues for r in p.spheres):
                    problems.append(f"a bend at bound {key[1]} is not admissible mod {m}")
        return problems, {"localglobal.vectors": orbit.vector_count}

    def _missing(self, m, b, scan, ctx, tr):
        with tr.span("orbit.bends_list"):
            bends = [x for x in ctx["packing", b].bends_list() if x.sign() > 0]
        with tr.span("localglobal.missing_bends"):
            return missing_bends(bends, ctx["orbit", m], bound=scan)

    def _check_missing(self, m, b, scan, ctx, got):
        start = tuple(int(O.exact(x)[0]) for x in ctx["start"])
        residues, _ = O.descartes_residues(start, m)
        present = {int(x) for x in O.gasket_bends(self.root, b)}
        if got != O.missing(present, residues, m, scan):
            return [f"missing bends mod {m} differ from the oracle"], {}
        return [], {}

    def probe_material(self):
        hexpyr = fixtures.hexpyr_system()
        return {
            "values": [c for v in self.samples for c in v.coords()]
            + [c for w in hexpyr.walls for c in w.coords()],
            "bound": QuadExt(self.bounds[1]),
            "pairs": [(v, w) for v in self.samples for w in self.cocluster],
            "walls": self.samples,
        }


# -- hexpyr -------------------------------------------------------------------


class Hexpyr(Workload):
    """The orbit layer over Q(sqrt 3): surd coordinates, 14 generators in the
    superpacking, and most children pruned by the bound."""

    name = "hexpyr"

    def __init__(self, root, seed, smoke):
        super().__init__(root, seed, smoke)
        self.system = fixtures.hexpyr_system()
        if smoke:
            self.runs = [("packing", 20, 400), ("super", 12, 3), ("super", 14, 3)]
        else:
            b3 = self.rng.randint(28, 32)
            # word length 4 costs about twice as much per unit of bound
            b4 = round(30 - 0.48 * (b3 - 30))
            self.runs = [("packing", 60, 400), ("super", b3, 3), ("super", b4, 4)]
        self.warm_up()

    def _tiny_jobs(self):
        return self._make_jobs([("packing", 10, 400), ("super", 6, 2)])

    def jobs(self):
        return self._make_jobs(self.runs)

    def _make_jobs(self, runs):
        jobs = []
        for run in runs:
            label = "{} b={} w={}".format(*run)
            jobs += [
                Job(f"generate {label}", partial(self._generate, run), partial(self._check_generate, run)),
                Job(f"certify {label}", partial(self._certify, run), partial(self._check_certify, run)),
                Job(f"dumps {label}", partial(self._dumps, run), partial(self._check_dumps, run)),
            ]
        return jobs

    def _generate(self, run, ctx, tr):
        kind, bound, word = run
        make = generate_packing if kind == "packing" else generate_superpacking
        with tr.span("orbit.generate"):
            ctx[run] = make(self.system, QuadExt(bound), max_word=word)
        return ctx[run]

    def _check_generate(self, run, ctx, p):
        # The superpacking must pick up a non-integral bend; the packing's
        # sphere count and saturation flag are not asserted, because the
        # bend pruning is known to miss spheres of this system.
        problems = _bend_problems(p, QuadExt(run[1]), want_integral=run[0] == "packing")
        self._keep_sample(r.vector for r in p.spheres)
        return problems, {"orbit.spheres": len(p.spheres), "orbit.max_word_length": _max_word(p)}

    def _certify(self, run, ctx, tr):
        with tr.span("orbit.certify"):
            return certify_integral(ctx[run])

    def _check_certify(self, run, ctx, report):
        return _certify_problems(ctx[run], report), {"spheres": len(ctx[run].spheres)}

    def _dumps(self, run, ctx, tr):
        with tr.span("serialize.dumps"):
            return serialize.dumps(ctx[run])

    def _check_dumps(self, run, ctx, text):
        return _dump_problems(ctx[run], text), {"serialize.bytes": len(text)}

    def probe_material(self):
        return {
            "values": [c for v in self.samples for c in v.coords()],
            "bound": QuadExt(60),
            "pairs": [(v, w) for v in self.samples[:16] for w in self.system.walls],
            "walls": self.samples,
        }


# -- fields -------------------------------------------------------------------


# random walls drawn as in acceptance criterion 7 (tests/test_acceptance.py)


def _random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _random_exact(rng, d):
    if d == 0:
        return QuadExt(_random_rational(rng))
    return QuadExt(_random_rational(rng)) + QuadExt.sqrt(d) * _random_rational(rng)


def _random_wall(rng, d):
    if d == 0 and rng.random() < 0.1:
        nx, ny = rng.choice([(0, 1), (1, 0), (Fraction(3, 5), Fraction(4, 5))])
        return plane_from_normal_offset((nx, ny), _random_rational(rng))
    while True:
        r = _random_exact(rng, d)
        if r:
            return sphere_from_center_radius((_random_exact(rng, d), _random_exact(rng, d)), r)


def _sub_gram(gram, idx) -> GramMatrix:
    return GramMatrix.from_rows([[gram.entries[i][j] for j in idx] for i in idx])


class Fields(Workload):
    """Exact algebra with the orbit module bypassed: linalg, arithmetic,
    coxeter, structure and geometrize carry the load."""

    name = "fields"

    def __init__(self, root, seed, smoke):
        super().__init__(root, seed, smoke)
        rounds, self.batches = (7, 1) if smoke else (63, 7)
        cycle = (0, 0, 0, 0, 2, 3, 5)
        self.rounds = [
            tuple(_random_wall(self.rng, cycle[k % 7]) for _ in range(3)) for k in range(rounds)
        ]
        self.q = q_matrix(2)
        hexpyr = fixtures.hexpyr_expected_gram()
        apollonian = gram_matrix(list(fixtures.apollonian_system().walls))
        long_len, sub_len = (4, 4) if smoke else (8, 7)
        self.vinberg = [
            ("hexpyr", hexpyr, long_len),
            ("apollonian", apollonian, long_len),
            ("hexpyr cluster", _sub_gram(hexpyr, range(7)), sub_len),
            ("hexpyr cocluster", _sub_gram(hexpyr, range(7, 14)), sub_len),
        ]
        self.hexpyr_walls = list(fixtures.hexpyr_system().walls)
        self.hexpyr_gram = hexpyr
        draw = lambda: self.rng.randrange(2**31)
        tetra, cubo = fixtures.tetrahedron_target(), fixtures.cuboctahedron_target()
        counts = (1, 1) if smoke else (2, 3)
        self.targets = [("tetrahedron", tetra, 0, draw()) for _ in range(counts[0])] + [
            ("cuboctahedron", cubo, 6, draw()) for _ in range(counts[1])
        ]
        self.warm_up()

    def _tiny_jobs(self):
        return [
            Job("invariance", partial(self._invariance, self.rounds[:7]), None),
            Job("vinberg", partial(self._vinberg, self.vinberg[0][1], 3), None),
            Job("decompose", partial(self._decompose, fixtures.EISENSTEIN_DIAGRAM), None),
            Job("realize", partial(self._geometrize, fixtures.tetrahedron_target(), 0, 0), None),
            Job("realize", partial(self._geometrize, fixtures.cuboctahedron_target(), 6, 0), None),
        ]

    def jobs(self):
        per = len(self.rounds) // self.batches
        jobs = [
            Job(f"invariance {k}", partial(self._invariance, batch), self._check_invariance)
            for k, batch in enumerate(self.rounds[i : i + per] for i in range(0, len(self.rounds), per))
        ]
        jobs.append(Job("gram hexpyr", self._gram, self._check_gram))
        for label, gram, max_len in self.vinberg:
            jobs.append(
                Job(
                    f"vinberg {label} len={max_len}",
                    partial(self._vinberg, gram, max_len),
                    partial(self._check_vinberg, gram, max_len),
                )
            )
        for label, text in (("cox6", fixtures.COX6_DIAGRAM), ("eisenstein", fixtures.EISENSTEIN_DIAGRAM)):
            jobs.append(Job(f"decompose {label}", partial(self._decompose, text), partial(self._check_decompose, label)))
        jobs.append(Job("decompose hexpyr", self._decompose_hexpyr, partial(self._check_decompose, "hexpyr")))
        for label, spec, d, seed in self.targets:
            jobs.append(
                Job(f"geometrize {label} seed={seed}", partial(self._geometrize, spec, d, seed), partial(self._check_geometrize, spec))
            )
        return jobs

    def _invariance(self, rounds, ctx, tr):
        out = []
        for s, u, v in rounds:
            with tr.span("inversive.reflection_matrix"):
                m = reflection_matrix(s)
            with tr.span("inversive.apply"):
                mu, mv, ms = m.apply(u), m.apply(v), m.apply(s)
            with tr.span("inversive.product"):
                products = (
                    inversive_product(mu, mv),
                    inversive_product(u, v),
                    inversive_product(mu, ms),
                    inversive_product(u, s),
                )
            with tr.span("linalg.mat_mul"):
                square = mat_mul(m.entries, m.entries)
                form = mat_mul(mat_mul(m.entries, self.q), transpose(m.entries))
            out.append((products, square, form))
        return out

    def _check_invariance(self, ctx, results):
        ex = lambda m: [[O.exact(e) for e in row] for row in m]
        eye = [[O.ONE if i == j else O.ZERO for j in range(4)] for i in range(4)]
        q = ex(self.q)
        failed = 0
        for products, square, form in results:
            p = [O.exact(x) for x in products]
            failed += (p[0] != p[1]) + (p[2] != p[3]) + (ex(square) != eye) + (ex(form) != q)
        problems = [f"{failed} invariance identities fail"] if failed else []
        return problems, {"spheres": 3 * len(results)}

    def _gram(self, ctx, tr):
        with tr.span("arithmetic.gram"):
            return gram_matrix(self.hexpyr_walls)

    def _check_gram(self, ctx, gram):
        ex = lambda g: [[O.exact(e) for e in row] for row in g.entries]
        walls = [O.coords(w) for w in self.hexpyr_walls]
        direct = [[O.product(u, v) for v in walls] for u in walls]
        if ex(gram) != ex(self.hexpyr_gram) or ex(gram) != direct:
            return ["hexpyr Gram differs from the reference"], {}
        return [], {}

    def _vinberg(self, gram, max_len, ctx, tr):
        with tr.span("arithmetic.vinberg"):
            return str(vinberg_test(gram, max_len=max_len))

    def _check_vinberg(self, gram, max_len, ctx, text):
        want = O.vinberg_text([[O.exact(e) for e in row] for row in gram.entries], max_len)
        return ([] if text == want else [f"vinberg text {text!r}, expected {want!r}"]), {}

    def _decompose(self, text, ctx, tr):
        with tr.span("coxeter.parse"):
            diagram = parse_diagram(text)
        with tr.span("coxeter.gram"):
            gram = gram_from_diagram(diagram)
        with tr.span("structure.decompose"):
            return gram, enumerate_decompositions(gram)

    def _decompose_hexpyr(self, ctx, tr):
        with tr.span("structure.decompose"):
            return self.hexpyr_gram, enumerate_decompositions(self.hexpyr_gram)

    def _check_decompose(self, label, ctx, out):
        gram, decs = out
        want = O.decompositions([[O.exact(e) for e in row] for row in gram.entries])
        got = {frozenset(d.cluster) for d in decs}
        problems = [] if got == want and len(decs) == len(want) else [f"{label} decompositions differ from brute force"]
        if label == "cox6" and frozenset({0}) not in got:
            problems.append("cox6 lacks the cluster {1}")
        if label == "eisenstein" and sorted(tuple(c) for c in got if len(c) == 1) != [(0,), (2,)]:
            problems.append("eisenstein singleton clusters are not {1} and {3}")
        return problems, {"structure.decompositions": len(decs)}

    def _geometrize(self, spec, d, seed, ctx, tr):
        with tr.span("geometrize.realize"):
            numeric = realize(spec, seed=seed)
        with tr.span("geometrize.guess"):
            walls = guess_walls(numeric, d, 64, 1e-18)
        with tr.span("geometrize.verify"):
            report = verify_realization(walls, spec)
        return numeric.iterations, walls, report

    def _check_geometrize(self, spec, ctx, out):
        iterations, walls, report = out
        problems = [] if report.ok else ["verify_realization rejects the guessed walls"]
        targets = [
            (i, j, "free" if isinstance(t, DisjointFree) else O.exact(t.value))
            for (i, j), t in sorted(spec.targets.items())
        ]
        problems += O.wall_problems([O.coords(w) for w in walls], targets)[:3]
        self._keep_sample(walls)
        return problems, {"geometrize.iterations": iterations, "spheres": len(walls)}

    def probe_material(self):
        walls = [w for r in self.rounds for w in r]
        return {
            "values": [c for w in walls for c in w.coords()],
            "bound": QuadExt(1000),
            "pairs": [(u, s) for s, u, _ in self.rounds],
            "walls": walls,
        }


# -- tour ---------------------------------------------------------------------


class Tour(Workload):
    """The README CLI tour, run in-process through cli.main, one job per
    command.  Output files go to a scratch directory inside the checkout."""

    name = "tour"

    def __init__(self, root, seed, smoke):
        super().__init__(root, seed, smoke)
        run_dir = root / "perfbench" / "_run"
        run_dir.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="tour-", dir=run_dir))
        self.sizes = (
            {"bound": 30, "scan": 30, "super": 12, "word": 3}
            if smoke
            else {"bound": 100, "scan": 100, "super": 30, "word": 3}
        )
        self.seeds = (self.rng.randrange(2**31), self.rng.randrange(2**31))
        for name, out in (
            ("apollonian", "apollonian.json"),
            ("hexpyr", "hexpyr.json"),
            ("cox6", "cox6.cox"),
            ("hexpyr-gram", "hexpyr.gram.json"),
            ("tetrahedron", "tetra.json"),
            ("cuboctahedron", "cubocta.json"),
        ):
            built = fixtures.REGISTRY[name].build()
            self._path(out).write_text(built if isinstance(built, str) else serialize.dumps(built))
        self.warm_up()

    def _path(self, name) -> Path:
        return self.dir / name

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _tiny_jobs(self):
        p = lambda n: str(self._path(n))
        argvs = [
            ["orbit", p("apollonian.json"), "--bound", "20", "--max-word", "600", "--out", p("warm.json")],
            ["certify", p("warm.json")],
            ["render", p("warm.json"), "--out", p("warm.svg"), "--labels"],
            ["lg-scan", p("apollonian.json"), "--bound", "20", "--max-word", "600", "--modulus", "8", "--scan-bound", "20"],
            ["decompose", p("cox6.cox")],
            ["geometrize", p("tetra.json"), "--d", "0", "--out", p("warm_system.json")],
        ]
        return [Job(a[0], partial(self._cli, a), None) for a in argvs]

    def _cli(self, argv, ctx, tr):
        out, err = io.StringIO(), io.StringIO()
        with tr.span(f"cli.{argv[0]}"), redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def jobs(self):
        p = lambda n: str(self._path(n))
        s = self.sizes
        steps = [
            (["fixtures"], self._check_listing),
            (["fixtures", "apollonian", "--out", p("apollonian.json")], None),
            (["fixtures", "hexpyr", "--out", p("hexpyr.json")], None),
            (
                ["orbit", p("apollonian.json"), "--bound", str(s["bound"]), "--max-word", "600", "--out", p("packing.json")],
                self._check_gasket,
            ),
            (["certify", p("packing.json")], self._check_certify_gasket),
            (["render", p("packing.json"), "--out", p("gasket.svg"), "--labels"], self._check_render),
            (
                ["lg-scan", p("apollonian.json"), "--bound", str(s["bound"]), "--max-word", "600",
                 "--modulus", "24", "--scan-bound", str(s["scan"])],
                self._check_lg_scan,
            ),
            (
                ["orbit", p("hexpyr.json"), "--bound", str(s["super"]), "--max-word", str(s["word"]),
                 "--super", "--out", p("super.json")],
                self._check_super,
            ),
            (["certify", p("super.json")], self._check_certify_super),
            (["fixtures", "cox6", "--out", p("cox6.cox")], None),
            (["decompose", p("cox6.cox")], self._check_decompose),
            (["fixtures", "hexpyr-gram", "--out", p("hexpyr.gram.json")], None),
            (["arith", p("hexpyr.gram.json")], self._check_arith),
            (["fixtures", "tetrahedron", "--out", p("tetra.json")], None),
            (
                ["geometrize", p("tetra.json"), "--d", "0", "--seed", str(self.seeds[0]), "--out", p("system.json")],
                partial(self._check_geometrize, "tetra.json", "system.json"),
            ),
            (["fixtures", "cuboctahedron", "--out", p("cubocta.json")], None),
            (
                ["geometrize", p("cubocta.json"), "--d", "6", "--seed", str(self.seeds[1]), "--out", p("cubocta_system.json")],
                partial(self._check_geometrize, "cubocta.json", "cubocta_system.json"),
            ),
        ]
        return [
            Job(" ".join(a[:2]) if a[0] == "fixtures" else a[0], partial(self._cli, a), partial(self._check, a, c))
            for a, c in steps
        ]

    def _check(self, argv, check, ctx, out):
        code, stdout, stderr = out
        if code != 0:
            return [f"{' '.join(argv[:2])} exited {code}: {stderr.strip()[:200]}"], {}
        if check is None:  # a fixture export: the file must be there
            return ([] if Path(argv[-1]).stat().st_size else [f"{argv[-1]} is empty"]), {}
        return check(stdout, stderr)

    def _check_listing(self, stdout, stderr):
        names = {line.split()[0] for line in stdout.splitlines() if line.strip()}
        want = {"apollonian", "hexpyr", "hexpyr-gram", "cox6", "eisenstein-subgroup", "tetrahedron", "cuboctahedron"}
        return ([] if want <= names else ["fixture listing is incomplete"]), {}

    def _packing_doc(self, name):
        return json.loads(self._path(name).read_text())

    def _check_gasket(self, stdout, stderr):
        summary = json.loads(stdout)
        doc = self._packing_doc("packing.json")
        got = sorted(O.parse_exact(s["bend"])[0] for s in doc["spheres"])
        problems = []
        if got != list(O.gasket_bends(self.root, self.sizes["bound"])) or summary["spheres"] != len(got):
            problems.append("tour gasket differs from the Descartes oracle")
        if not summary["saturated"]:
            problems.append("tour gasket not saturated")
        return problems, {"spheres": summary["spheres"], "orbit.spheres": summary["spheres"]}

    def _check_certify_gasket(self, stdout, stderr):
        doc = json.loads(stdout)
        return ([] if doc == {"integral": True, "witnesses": []} else ["tour gasket not certified integral"]), {}

    def _check_render(self, stdout, stderr):
        doc = self._packing_doc("packing.json")
        spheres = [
            (O.parse_exact(s["bend"])[0], [O.parse_exact(c)[0] for c in s["bz"]]) for s in doc["spheres"]
        ]
        svg = self._path("gasket.svg").read_text()
        want = O.drawn_circles(spheres)
        return ([] if svg.count("<circle ") == want else ["tour svg circle count is wrong"]), {
            "render.svg_bytes": len(svg)
        }

    def _check_lg_scan(self, stdout, stderr):
        doc = json.loads(stdout)
        residues, _ = O.descartes_residues((-1, 2, 2, 3), 24)
        present = {int(b) for b in O.gasket_bends(self.root, self.sizes["bound"])}
        want = O.missing(present, residues, 24, self.sizes["scan"])
        ok = set(doc["admissible_residues"]) == residues and doc["missing"] == want and doc["saturated"]
        return ([] if ok else ["lg-scan differs from the Descartes oracle"]), {}

    def _check_super(self, stdout, stderr):
        summary = json.loads(stdout)
        doc = self._packing_doc("super.json")
        bends = [O.parse_exact(s["bend"]) for s in doc["spheres"]]
        problems = [] if summary["spheres"] == len(bends) > 0 else ["super summary disagrees with super.json"]
        if all(O.is_integer(b) for b in bends):
            problems.append("tour superpacking has no non-integral bend")
        return problems, {"spheres": summary["spheres"], "orbit.spheres": summary["spheres"]}

    def _check_certify_super(self, stdout, stderr):
        doc = json.loads(stdout)
        witnesses = [O.parse_exact(w["bend"]) for w in doc["witnesses"]]
        ok = doc["integral"] is False and witnesses and not any(O.is_integer(b) for b in witnesses)
        return ([] if ok else ["tour superpacking witness is wrong"]), {}

    def _check_decompose(self, stdout, stderr):
        gram = gram_from_diagram(parse_diagram(self._path("cox6.cox").read_text()))
        want = O.decompositions([[O.exact(e) for e in row] for row in gram.entries])
        lines = {line for line in stdout.splitlines() if line}
        expected = {O.format_decomposition(c, gram.size) for c in want}
        return ([] if lines == expected and "C={1} C^={2,3,4,5,6}" in lines else ["tour decompose output is wrong"]), {}

    def _check_arith(self, stdout, stderr):
        doc = self._packing_doc("hexpyr.gram.json")
        entries = [[O.parse_exact(e) for e in row] for row in doc["entries"]]
        want = O.vinberg_text(entries, 8)
        return ([] if stdout == f"{want}\n" else [f"tour arith printed {stdout!r}"]), {}

    def _check_geometrize(self, target_name, system_name, stdout, stderr):
        report = json.loads(stderr.strip().splitlines()[-1])
        target = self._packing_doc(target_name)
        system = self._packing_doc(system_name)
        walls = [
            [O.parse_exact(w["cobend"]), O.parse_exact(w["bend"])] + [O.parse_exact(c) for c in w["bz"]]
            for w in system["walls"]
        ]
        targets = [
            (t["i"], t["j"], "free" if t["value"] == "free" else O.parse_exact(t["value"]))
            for t in target["targets"]
        ]
        problems = O.wall_problems(walls, targets)[:3]
        if report.get("verified") is not True:
            problems.append("geometrize did not report verified")
        return problems, {"geometrize.iterations": report["iterations"], "spheres": len(walls)}

    def probe_material(self):
        from packinglab.serialize import load

        packing = load(self._path("packing.json"))
        superpacking = load(self._path("super.json"))
        gens = fixtures.apollonian_system().cocluster_walls()
        spheres = packing.vectors()[:SAMPLE] + superpacking.vectors()[:SAMPLE]
        return {
            "values": [c for v in spheres for c in v.coords()],
            "bound": QuadExt(self.sizes["bound"]),
            "pairs": [(v, w) for v in packing.vectors()[:SAMPLE] for w in gens],
            "walls": spheres,
        }


WORKLOADS = {w.name: w for w in (Gasket, Hexpyr, Fields, Tour)}
