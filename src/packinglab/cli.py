"""Command-line front end.

Domain failures print a one-line JSON object on stderr and exit 1; argparse
usage errors keep their conventional exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import serialize
from .arithmetic import bends_conjugate, bends_vector, vinberg_test
from .coxeter import gram_from_diagram, parse_diagram, print_diagram
from .errors import PackingLabError, ParameterError
from .exactnum import QuadExt
from .fixtures import REGISTRY
from .geometrize import (
    check_denominator_bound, check_discriminant, cluster_split, guess_walls, realize, verify_realization
)
from .inversive import reflection_matrix
from .localglobal import missing_bends, residue_orbit
from .orbit import WallSystem, generate_packing, generate_superpacking
from .packing import certify_integral
from .render import Viewport, render_svg
from .structure import enumerate_decompositions


def _load(path: str, kind: str):
    doc = serialize.load(path)
    if not isinstance(doc, serialize.KINDS[kind][0]):
        raise serialize.FormatError(f"{path} does not hold a {kind} document")
    return doc


def _bound(text: str) -> QuadExt:
    try:
        return QuadExt.parse(text)
    except ValueError as exc:
        raise ParameterError(f"--bound: {exc}") from None


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _gram_from_path(path: str):
    if path.endswith(".cox"):
        return gram_from_diagram(parse_diagram(serialize.read_text(path)))
    return _load(path, "gram")


def cmd_parse(args) -> int:
    diagram = parse_diagram(serialize.read_text(args.diagram))
    gram = gram_from_diagram(diagram)
    _write_or_print(serialize.dumps(gram), args.out)
    return 0


def cmd_decompose(args) -> int:
    gram = _gram_from_path(args.input)
    decs = enumerate_decompositions(gram)
    for d in decs:
        print(d)
    if not decs:
        print("no admissible decompositions")
    return 0


def cmd_orbit(args) -> int:
    system = _load(args.system, "system")
    make = generate_superpacking if args.super else generate_packing
    packing = make(system, _bound(args.bound), max_word=args.max_word)
    if args.out:
        serialize.save(packing, args.out)
    summary = {
        "spheres": len(packing.codes),
        "saturated": packing.saturated,
        "bend_bound": str(packing.bend_bound),
        "max_word": packing.max_word,
        "min_bend": str(packing.record(0).vector.bend) if len(packing.codes) else None,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_certify(args) -> int:
    packing = _load(args.packing, "packing")
    report = certify_integral(packing)
    witnesses = [
        {"bend": str(rec.vector.bend), "word_length": rec.word_length}
        for rec in report.witnesses
    ]
    doc = {"integral": report.integral, "witnesses": witnesses}
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_arith(args) -> int:
    gram = _gram_from_path(args.input)
    verdict = vinberg_test(gram, max_len=args.max_len)
    print(verdict)
    return 0


def cmd_geometrize(args) -> int:
    spec = _load(args.target, "target")
    # a d or a --denom the guess would refuse is refused before realize runs
    check_discriminant(args.d)
    check_denominator_bound(args.denom)
    system = realize(spec, seed=args.seed, tol=args.tol)
    guess_tol = max(args.tol, 1e-18)
    walls = guess_walls(system, args.d, args.denom, guess_tol)
    report = verify_realization(walls, spec)
    if not report.ok:
        raise PackingLabError("guessed walls fail exact verification: " + "; ".join(report.mismatches))
    if args.cluster:
        cluster = tuple(sorted(args.cluster))
        cocluster = tuple(i for i in range(spec.wall_count) if i not in set(cluster))
    else:
        cluster, cocluster = cluster_split(spec)
    out_system = WallSystem(walls=tuple(walls), cluster_idx=cluster, cocluster_idx=cocluster)
    _write_or_print(serialize.dumps(out_system), args.out)
    print(
        json.dumps(
            {"residual": system.residual, "iterations": system.iterations, "verified": True},
            sort_keys=True,
        ),
        file=sys.stderr,
    )
    return 0


def cmd_render(args) -> int:
    packing = _load(args.packing, "packing")
    vp = Viewport(
        center=(args.center[0], args.center[1]),
        half_width=args.half_width,
        size_px=args.size,
        min_radius_px=args.min_radius,
    )
    svg = render_svg(packing, vp, labels=args.labels, stroke_width=args.stroke_width)
    _write_or_print(svg, args.out)
    return 0


def cmd_lg_scan(args) -> int:
    system = _load(args.system, "system")
    bound = _bound(args.bound)
    if args.scan_bound > bound:
        # bends over --bound are never generated, so the scan would call them missing
        raise ParameterError(f"--scan-bound {args.scan_bound} exceeds --bound {bound}")
    cluster = system.cluster_walls()
    refls = [reflection_matrix(w) for w in system.cocluster_walls()]
    gens = [bends_conjugate(r, cluster) for r in refls]
    # a modulus the BFS refuses is refused before the packing is grown
    orbit = residue_orbit(gens, bends_vector(cluster), args.modulus)
    packing = generate_packing(system, bound, max_word=args.max_word)
    if certify_integral(packing).integral:
        whole = packing.codes[:, 2] // packing.codes[:, -1]
        bends = whole[whole > 0].tolist()
    else:  # missing_bends names the first positive bend that is not an integer
        bends = [b for b in packing.bends_list() if b.sign() > 0]
    # an unsaturated packing may lack bends under the bound, so none are called missing
    missing = missing_bends(bends, orbit, bound=args.scan_bound) if packing.saturated else None
    doc = {
        "modulus": args.modulus,
        "admissible_residues": sorted(orbit.residues),
        "scanned_up_to": args.scan_bound,
        "missing": missing,
        "saturated": packing.saturated,
    }
    print(json.dumps(doc, sort_keys=True))
    return 0


def cmd_fixtures(args) -> int:
    if args.name is None:
        for f in sorted(REGISTRY.values(), key=lambda f: f.name):
            print(f"{f.name:24s} {f.kind:8s} {f.description}")
        return 0
    fixture = REGISTRY.get(args.name)
    if fixture is None:
        raise PackingLabError(f"unknown fixture {args.name!r}; run with no name to list them")
    built = fixture.build()
    text = built if isinstance(built, str) else serialize.dumps(built)
    _write_or_print(text, args.out)
    return 0


def cmd_show(args) -> int:
    diagram = parse_diagram(serialize.read_text(args.diagram))
    sys.stdout.write(print_diagram(diagram))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="packinglab",
        description="exact crystallographic sphere-packing toolkit",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="diagram file to Gram matrix JSON")
    p.add_argument("diagram")
    p.add_argument("--out")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("show", help="echo a parsed diagram back in canonical form")
    p.add_argument("diagram")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("decompose", help="list admissible cluster/cocluster splits")
    p.add_argument("input", help=".cox diagram or gram JSON")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("orbit", help="grow a packing from a wall system")
    p.add_argument("system")
    p.add_argument("--bound", required=True, help="max |bend| kept (exact string)")
    p.add_argument("--max-word", type=int, default=64)
    p.add_argument("--super", action="store_true", help="reflect through every wall")
    p.add_argument("--out")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("certify", help="check every bend in a packing is a rational integer")
    p.add_argument("packing")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("arith", help="cycle test for arithmeticity of a Gram matrix")
    p.add_argument("input", help=".cox diagram or gram JSON")
    p.add_argument("--max-len", type=int, default=8)
    p.set_defaults(func=cmd_arith)

    p = sub.add_parser("geometrize", help="solve a target spec and snap to exact coordinates")
    p.add_argument("target")
    p.add_argument("--d", type=int, required=True, help="square-free field discriminant, 0 for rational")
    p.add_argument("--denom", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cluster", type=int, nargs="*", help="0-based wall indices for the cluster")
    p.add_argument("--out")
    p.set_defaults(func=cmd_geometrize)

    p = sub.add_parser("render", help="packing JSON to SVG")
    p.add_argument("packing")
    p.add_argument("--out")
    p.add_argument("--center", type=float, nargs=2, default=(0.0, 0.0))
    p.add_argument("--half-width", type=float, default=1.6)
    p.add_argument("--size", type=int, default=640)
    p.add_argument("--min-radius", type=float, default=0.5)
    p.add_argument("--stroke-width", type=float, default=1.0)
    p.add_argument("--labels", action="store_true")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("lg-scan", help="residue classes of bends and missing admissible bends")
    p.add_argument("system")
    p.add_argument("--bound", required=True)
    p.add_argument("--max-word", type=int, default=64)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--scan-bound", type=int, required=True)
    p.set_defaults(func=cmd_lg_scan)

    p = sub.add_parser("fixtures", help="list built-in inputs or export one")
    p.add_argument("name", nargs="?")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fixtures)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PackingLabError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "OSError", "message": str(exc)}, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
