"""JSON round-tripping for wall systems, Gram matrices, packings, targets.

Every exact value travels as its string form ("1/2", "2*sqrt(3)", ...) so
files stay human-readable and nothing is lost to floats.  All documents carry
"format": 1 and a string "kind", and are laid out as json.dumps(doc,
indent=2, sort_keys=True) lays them out.

KINDS is the one table of document kinds: kind -> (class, *_text,
*_from_obj).  dumps finds the writer by class; loads is the only place that
reads a document's kind and format marker, and the only place that turns a
KeyError, TypeError or ValueError raised by a loader (a missing key, a value
of the wrong type, a constructor's check) into FormatError("bad <kind>
document: ...").  Each loader is a plain constructor call.

The walls of a system and the spheres of a packing are most of a document,
and one vector writer, _with_vectors, lays them out: only the small document
head goes through json.dumps, and each vector is written directly, with one
str() and one string encoding per distinct coordinate value.  The tests hold
it byte for byte to the dict-plus-json.dumps layout it replaced
(tests/serialize_oracle.py).

Every vector of a system or packing document (one wall or sphere) is checked
on load by _vectors, which parses each distinct literal of the document once:
its cobend, bend and bz coordinates are string literals, there are exactly
dim + 2 of them for the document's dim, they lie in one quadratic field,
and Q(v) = -1 (InversiveVector.validate, run on every vector).  A failure
is a FormatError that names the wall or sphere.  The other fields of a
packing (its ints, its saturated flag, each sphere's word_length and
parent_generator) are checked by the Packing constructor.
"""

from __future__ import annotations

import json
from itertools import zip_longest
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .coxeter import GramMatrix
from .errors import PackingLabError
from .exactnum import DiscMismatch, QuadExt
from .geometrize import DisjointFree, Exact, TargetSpec
from .inversive import InversiveVector, inversive_product
from .orbit import Packing, SphereRecord, WallSystem

FORMAT = 1


class FormatError(PackingLabError):
    pass


def _text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# one wall or sphere at depth 2 of a document: bend, bz, cobend, then the tail
_VECTOR = '    {\n      "bend": %s,\n      "bz": %s,\n      "cobend": %s%s\n    }'
_SPHERE_TAIL = ',\n      "parent_generator": %s,\n      "word_length": %s'


def _with_vectors(head: dict, key: str, vectors, tails=()) -> str:
    """The text of head with head[key] the list of vectors; tails[i], if
    given, is the text of vector i's keys that sort after "cobend"."""
    text = _text({**head, key: []})
    if not vectors:
        return text
    literals: dict[QuadExt, str] = {}

    def literal(x: QuadExt) -> str:
        s = literals.get(x)
        if s is None:
            s = literals[x] = encode_basestring_ascii(str(x))
        return s

    items = []
    for v, tail in zip_longest(vectors, tails, fillvalue=""):
        bz = ",\n        ".join(map(literal, v.bz))
        bz = f"[\n        {bz}\n      ]" if bz else "[]"
        items.append(_VECTOR % (literal(v.bend), bz, literal(v.cobend), tail))
    before, opening, after = text.partition(f'\n  "{key}": [')  # after starts with "]"
    return before + opening + "\n" + ",\n".join(items) + "\n  " + after


def _vectors(objs, dim, what: str) -> list[InversiveVector]:
    """The checked vectors of a document's wall or sphere objects."""
    parsed: dict[str, QuadExt] = {}
    out = []
    for i, obj in enumerate(objs, start=1):
        try:
            bz = obj["bz"]
            if not isinstance(bz, list) or len(bz) != dim:
                raise FormatError(f"{what} {i}: bz is not a list of dim = {dim!r} coordinates")
            coords = []
            for s in (obj["cobend"], obj["bend"], *bz):
                x = parsed.get(s) if type(s) is str else None
                if x is None:
                    x = parsed[s] = QuadExt.parse(s)  # a non-string raises TypeError
                coords.append(x)
            v = InversiveVector.from_coords(coords)
            on_quadric = v.validate()
        except (KeyError, TypeError, ValueError, DiscMismatch) as exc:
            raise FormatError(f"{what} {i}: {type(exc).__name__}: {exc}") from exc
        if not on_quadric:
            raise FormatError(f"{what} {i}: Q(v) = {inversive_product(v, v)} != -1")
        out.append(v)
    return out


def system_text(system: WallSystem) -> str:
    head = {
        "format": FORMAT,
        "kind": "system",
        "dim": system.dim,
        "cluster": sorted(system.cluster_idx),
        "cocluster": sorted(system.cocluster_idx),
    }
    return _with_vectors(head, "walls", system.walls)


def system_from_obj(doc: dict) -> WallSystem:
    return WallSystem(
        walls=_vectors(doc["walls"], doc["dim"], "wall"),
        cluster_idx=frozenset(doc["cluster"]),
        cocluster_idx=frozenset(doc["cocluster"]),
    )


def gram_text(gram: GramMatrix) -> str:
    return _text({
        "format": FORMAT,
        "kind": "gram",
        "size": gram.size,
        "entries": [[str(e) for e in row] for row in gram.entries],
        "placeholders": sorted([i, j] for (i, j) in gram.placeholders),
        "signature_hint": gram.signature_hint,
    })


def gram_from_obj(doc: dict) -> GramMatrix:
    entries = doc.get("entries")
    k = len(entries) if isinstance(entries, list) else -1
    if k < 0 or any(
        not isinstance(row, list) or len(row) != k or not all(isinstance(e, str) for e in row)
        for row in entries
    ):
        raise FormatError("bad gram document: 'entries' must be a square list of lists of strings")
    rows = [[QuadExt.parse(s) for s in row] for row in entries]
    discs = sorted({x.disc for row in rows for x in row} - {0})
    if len(discs) > 1:
        raise FormatError(
            "bad gram document: entries need more than one quadratic field: "
            + ", ".join(f"sqrt({d})" for d in discs)
        )
    placeholders = frozenset((i, j) for i, j in doc.get("placeholders", []))
    for i, j in placeholders:
        if not (isinstance(i, int) and isinstance(j, int) and 0 <= i < k and 0 <= j < k):
            raise FormatError(f"placeholder pair [{i}, {j}] out of range for {k} walls")
    return GramMatrix.from_rows(rows, placeholders=placeholders,
                                signature_hint=doc.get("signature_hint"))


def packing_text(packing: Packing) -> str:
    head = {
        "format": FORMAT,
        "kind": "packing",
        "dim": packing.dim,
        "bend_bound": str(packing.bend_bound),
        "max_word": packing.max_word,
        "saturated": packing.saturated,
        "boundary_walls": packing.boundary_walls,
        "generators": sorted(packing.generator_idx),
    }
    tails = [
        _SPHERE_TAIL % ("null" if r.parent_generator is None else r.parent_generator, r.word_length)
        for r in packing.spheres
    ]
    return _with_vectors(head, "spheres", packing.vectors(), tails)


def packing_from_obj(doc: dict) -> Packing:
    vectors = _vectors(doc["spheres"], doc["dim"], "sphere")
    spheres = [
        SphereRecord(
            vector=v,
            word_length=o["word_length"],
            parent_generator=o["parent_generator"],
        )
        for v, o in zip(vectors, doc["spheres"])
    ]
    return Packing(
        spheres=spheres,
        saturated=doc["saturated"],
        bend_bound=QuadExt.parse(doc["bend_bound"]),
        max_word=doc["max_word"],
        generator_idx=tuple(doc["generators"]),
        dim=doc["dim"],
        boundary_walls=doc.get("boundary_walls", 0),
    )


def target_text(spec: TargetSpec) -> str:
    targets = []
    for (i, j), t in sorted(spec.targets.items()):
        value = str(t.value) if isinstance(t, Exact) else "free"
        targets.append({"i": i, "j": j, "value": value})
    doc = {
        "format": FORMAT,
        "kind": "target",
        "dim": spec.dim,
        "wall_count": spec.wall_count,
        "targets": targets,
    }
    if spec.init_hint is not None:
        doc["init_hint"] = [list(row) for row in spec.init_hint]
    return _text(doc)


def target_from_obj(doc: dict) -> TargetSpec:
    targets: dict[tuple[int, int], Exact | DisjointFree] = {}
    for o in doc["targets"]:
        key = (o["i"], o["j"])
        targets[key] = DisjointFree() if o["value"] == "free" else Exact(QuadExt.parse(o["value"]))
    hint = doc.get("init_hint")
    return TargetSpec(
        doc["wall_count"],
        targets,
        dim=doc.get("dim", 2),
        init_hint=tuple(map(tuple, hint)) if hint else None,
    )


KINDS = {
    "system": (WallSystem, system_text, system_from_obj),
    "gram": (GramMatrix, gram_text, gram_from_obj),
    "packing": (Packing, packing_text, packing_from_obj),
    "target": (TargetSpec, target_text, target_from_obj),
}


def dumps(obj) -> str:
    for cls, dump, _ in KINDS.values():
        if isinstance(obj, cls):
            return dump(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if not isinstance(kind, str) or kind not in KINDS:
        raise FormatError(f"unknown document kind {kind!r}")
    if doc.get("format") != FORMAT:
        raise FormatError(f"unsupported format marker {doc.get('format')!r}")
    try:
        return KINDS[kind][2](doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad {kind} document: {type(exc).__name__}: {exc}") from exc


def save(obj, path) -> None:
    Path(path).write_text(dumps(obj))


def load(path):
    return loads(Path(path).read_text())
