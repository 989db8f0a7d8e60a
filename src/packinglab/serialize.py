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
and they travel as int codes (InversiveVector.code): a packing holds its
spheres that way, and each wall of a system holds its own.  One vector writer,
_with_vectors, lays them out: only the small document head goes through
json.dumps, and each vector is written directly from its code row, with one
exactnum.triple_str and one string encoding per distinct (a, b, den).  The
tests hold it byte for byte to the dict-plus-json.dumps layout it replaced
(tests/serialize_oracle.py).

Every vector of a system or packing document (one wall or sphere) is checked
on load by _vectors, which parses each distinct literal of the document once
(QuadExt is built there, once per literal): its cobend, bend and bz
coordinates are string literals, there are exactly dim + 2 of them for the
document's dim, and they lie in one quadratic field, as do all the vectors
of the document.  The literals' triples are encoded into one code array
(exactnum.encode_rows), and Q(v) = -1 is decided for every vector at once by
inversive.q_is_minus_one on its columns.  A failure is a FormatError that
names the first wall or sphere that fails.  A system decodes its walls into
InversiveVectors; a packing keeps the codes.  The other fields of a packing
(its ints, its saturated flag, each sphere's word_length and
parent_generator) are checked by the Packing constructor.
"""

from __future__ import annotations

import json
from itertools import zip_longest
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .coxeter import GramMatrix
from .errors import PackingLabError
from .exactnum import DiscMismatch, QuadExt, encode_rows, field_disc, int_array, triple_str
from .geometrize import DisjointFree, Exact, TargetSpec
from .inversive import InversiveVector, decode_rows, inversive_product, q_is_minus_one
from .orbit import WallSystem
from .packing import Packing

FORMAT = 1


class FormatError(PackingLabError):
    pass


def _text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# one wall or sphere at depth 2 of a document: bend, bz, cobend, then the tail
_VECTOR = '    {\n      "bend": %s,\n      "bz": %s,\n      "cobend": %s%s\n    }'
_SPHERE_TAIL = ',\n      "parent_generator": %s,\n      "word_length": %s'


def _with_vectors(head: dict, key: str, codes: np.ndarray, d: int, tails=()) -> str:
    """The text of head with head[key] the list of vectors whose int codes
    in Q(sqrt(d)) are the rows of codes; tails[i], if given, is the text of
    vector i's keys that sort after "cobend"."""
    text = _text({**head, key: []})
    if not len(codes):
        return text
    cols = codes.T.tolist()
    den = cols.pop()
    keys = [list(zip(a, b, den)) for a, b in zip(cols[0::2], cols[1::2])]  # (a, b, den) per coordinate
    texts = {k: encode_basestring_ascii(triple_str(*k, d)) for k in set().union(*keys)}
    cobend, bend, *bz = (list(map(texts.__getitem__, k)) for k in keys)
    slots = ",\n        ".join(["%s"] * len(bz))
    vector = _VECTOR % ("%s", f"[\n        {slots}\n      ]" if bz else "[]", "%s", "%s")
    items = [vector % row for row in zip_longest(bend, *bz, cobend, tails, fillvalue="")]
    before, opening, after = text.partition(f'\n  "{key}": [')  # after starts with "]"
    return before + opening + "\n" + ",\n".join(items) + "\n  " + after


def _vectors(objs, dim, what: str) -> tuple[np.ndarray, int]:
    """The int codes and field of a document's wall or sphere objects,
    checked: each distinct literal is parsed once, and Q(v) = -1 is decided
    for every vector at once, on the codes' columns."""
    index: dict[str, int] = {}
    values: list[QuadExt] = []
    at = []
    error = None
    for i, obj in enumerate(objs, start=1):
        try:
            bz = obj["bz"]
            if not isinstance(bz, list) or len(bz) != dim:
                raise FormatError(f"{what} {i}: bz is not a list of dim = {dim!r} coordinates")
            row = []
            for s in (obj["cobend"], obj["bend"], *bz):
                j = index.get(s) if type(s) is str else None
                if j is None:
                    values.append(QuadExt.parse(s))  # a non-string raises TypeError
                    j = index[s] = len(values) - 1
                row.append(j)
        except (KeyError, TypeError, ValueError) as exc:
            error = FormatError(f"{what} {i}: {type(exc).__name__}: {exc}")
            break
        at.append(row)
    d = 0
    if len({x._d for x in values} - {0}) > 1:
        # the first vector in two fields, or in another field than those before it
        for i, row in enumerate(at, start=1):
            try:
                d = field_disc([*(values[j]._d for j in row), d])
            except DiscMismatch as exc:
                error = FormatError(f"{what} {i}: {type(exc).__name__}: {exc}")
                del at[i - 1 :]
                break
    else:
        d = field_disc([x._d for x in values])
    at = np.array(at, dtype=np.intp).reshape(len(at), -1 if at else 0)
    codes = encode_rows(values, at)
    off = np.flatnonzero(~q_is_minus_one(codes.T, d)) if len(codes) else ()
    if len(off):  # the first vector that fails is the one named
        v = InversiveVector.from_code(codes[off[0]].tolist(), d)
        raise FormatError(f"{what} {off[0] + 1}: Q(v) = {inversive_product(v, v)} != -1")
    if error is not None:
        raise error
    return codes, d


def system_text(system: WallSystem) -> str:
    head = {
        "format": FORMAT,
        "kind": "system",
        "dim": system.dim,
        "cluster": sorted(system.cluster_idx),
        "cocluster": sorted(system.cocluster_idx),
    }
    codes = int_array([w.code for w in system.walls])
    return _with_vectors(head, "walls", codes, field_disc(w.d for w in system.walls))


def system_from_obj(doc: dict) -> WallSystem:
    return WallSystem(
        walls=decode_rows(*_vectors(doc["walls"], doc["dim"], "wall")),
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
    size = doc.get("size")
    if type(size) is not int or size != k:
        raise FormatError(f"bad gram document: 'size' is {size!r}, but 'entries' has {k} rows")
    rows = [[QuadExt.parse(s) for s in row] for row in entries]
    discs = sorted({x._d for row in rows for x in row} - {0})
    if len(discs) > 1:
        raise FormatError(
            "bad gram document: entries need more than one quadratic field: "
            + ", ".join(f"sqrt({d})" for d in discs)
        )
    placeholders = doc.get("placeholders", [])
    for pair in placeholders:
        if not (
            isinstance(pair, list) and len(pair) == 2 and pair[0] != pair[1]
            and all(type(i) is int and 0 <= i < k for i in pair)
        ):
            raise FormatError(
                f"bad gram document: placeholder pair {pair!r} is not two distinct wall indices below {k}"
            )
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
        _SPHERE_TAIL % ("null" if g is None else g, n)
        for g, n in zip(packing.parents, packing.word_lengths)
    ]
    return _with_vectors(head, "spheres", packing.codes, packing.d, tails)


def packing_from_obj(doc: dict) -> Packing:
    codes, d = _vectors(doc["spheres"], doc["dim"], "sphere")
    return Packing.from_codes(
        codes=codes,
        d=d,
        word_lengths=[o["word_length"] for o in doc["spheres"]],
        parents=[o["parent_generator"] for o in doc["spheres"]],
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
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
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


def read_text(path) -> str:
    """An input file's text, decoded as UTF-8 whatever the locale; bytes
    that are not UTF-8 are a FormatError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def load(path):
    return loads(read_text(path))
