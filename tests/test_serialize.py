"""JSON round-trips for every document kind."""

import json
import random

import pytest

from packinglab import serialize
from packinglab.coxeter import gram_from_diagram, parse_diagram
from packinglab.errors import ParameterError
from packinglab.exactnum import QuadExt
from packinglab.fixtures import (
    COX6_DIAGRAM,
    REGISTRY,
    apollonian_system,
    cuboctahedron_target,
    hexpyr_expected_gram,
    hexpyr_system,
    tetrahedron_target,
)
from packinglab.inversive import plane_from_normal_offset, sphere_from_center_radius
from packinglab.orbit import (
    Packing,
    SphereRecord,
    WallSystem,
    generate_packing,
    generate_superpacking,
)
from packinglab.serialize import FormatError

from serialize_oracle import oracle_dumps


def test_system_round_trip_rational():
    sysm = apollonian_system()
    again = serialize.loads(serialize.dumps(sysm))
    assert again == sysm


def test_system_round_trip_with_surds():
    sysm = hexpyr_system()
    again = serialize.loads(serialize.dumps(sysm))
    assert again.walls == sysm.walls
    assert again.cluster_idx == sysm.cluster_idx
    assert again.cocluster_idx == sysm.cocluster_idx


def test_gram_round_trip_keeps_placeholders():
    gram = gram_from_diagram(parse_diagram(COX6_DIAGRAM))
    again = serialize.loads(serialize.dumps(gram))
    assert again.entries == gram.entries
    assert again.placeholders == gram.placeholders


def test_gram_round_trip_hexpyr():
    gram = hexpyr_expected_gram()
    assert serialize.loads(serialize.dumps(gram)).entries == gram.entries


def test_packing_round_trip():
    p = generate_packing(apollonian_system(), QuadExt(20), max_word=64)
    again = serialize.loads(serialize.dumps(p))
    assert [r.vector for r in again.spheres] == [r.vector for r in p.spheres]
    assert [r.word_length for r in again.spheres] == [r.word_length for r in p.spheres]
    assert again.saturated == p.saturated
    assert again.bend_bound == p.bend_bound
    assert again.generator_idx == p.generator_idx


def _dim3_system():
    sqrt3 = QuadExt.sqrt(3)
    spheres = [sphere_from_center_radius(c, 1) for c in [(0, 0, 0), (2, 0, 0), (1, sqrt3, 0)]]
    planes = [plane_from_normal_offset(n, 1) for n in [(0, 0, 1), (0, 0, -1)]]
    return WallSystem(walls=(*spheres, *planes), cluster_idx=(0, 1, 2), cocluster_idx=(3, 4))


_ORACLE_DOCS = {
    **{f"apollonian-{b}": (lambda b=b: generate_packing(apollonian_system(), QuadExt(b), max_word=600))
       for b in (1, 3, 10, 50, 200)},
    "hexpyr-packing": lambda: generate_packing(hexpyr_system(), QuadExt(30), max_word=64),
    "hexpyr-super": lambda: generate_superpacking(hexpyr_system(), QuadExt(30), max_word=3),
    "no-spheres": lambda: Packing(spheres=[], saturated=True, bend_bound=QuadExt(0), max_word=0,
                                  generator_idx=(), dim=2),
    "dim3-system": _dim3_system,
    "dim3-packing": lambda: generate_packing(_dim3_system(), QuadExt(1), max_word=3),
    **{f"fixture-{f.name}": f.build for f in REGISTRY.values() if f.kind == "system"},
}


@pytest.mark.parametrize("name", sorted(_ORACLE_DOCS))
def test_dumps_matches_oracle_layout(name):
    x = _ORACLE_DOCS[name]()
    text = serialize.dumps(x)
    assert text == oracle_dumps(x)
    again = serialize.loads(text)
    assert serialize.dumps(again) == text
    if isinstance(x, Packing):
        assert again.spheres == x.spheres
    else:
        assert again == x


@pytest.mark.parametrize(
    "word_length, parent, message",
    [
        (True, None, "sphere 5: word_length"),
        (1.0, None, "sphere 5: word_length"),
        (1, "4", "sphere 5: parent_generator"),
        (1, 4.0, "sphere 5: parent_generator"),
    ],
)
def test_packing_refuses_record_fields_dumps_cannot_write(word_length, parent, message):
    p = generate_packing(apollonian_system(), QuadExt(3), max_word=64)
    spheres = list(p.spheres)
    assert len(spheres) == 5
    spheres[-1] = SphereRecord(spheres[-1].vector, word_length, parent)
    with pytest.raises(ParameterError, match=message):
        Packing(spheres, p.saturated, p.bend_bound, p.max_word, p.generator_idx, p.dim, p.boundary_walls)


def test_target_round_trip_with_hint():
    spec = cuboctahedron_target()
    again = serialize.loads(serialize.dumps(spec))
    assert again.wall_count == spec.wall_count
    assert again.targets == spec.targets
    assert again.init_hint == spec.init_hint


def test_target_round_trip_without_hint():
    spec = tetrahedron_target()
    from packinglab.geometrize import TargetSpec

    bare = TargetSpec(spec.wall_count, dict(spec.targets))
    again = serialize.loads(serialize.dumps(bare))
    assert again.targets == bare.targets
    assert again.init_hint is None


def test_dumps_is_deterministic():
    sysm = apollonian_system()
    assert serialize.dumps(sysm) == serialize.dumps(sysm)


def test_save_load(tmp_path):
    path = tmp_path / "sys.json"
    serialize.save(apollonian_system(), path)
    assert serialize.load(path) == apollonian_system()


def test_missing_format_rejected():
    doc = json.loads(serialize.dumps(apollonian_system()))
    del doc["format"]
    with pytest.raises(FormatError):
        serialize.loads(json.dumps(doc))


def test_future_format_rejected():
    doc = json.loads(serialize.dumps(apollonian_system()))
    doc["format"] = 99
    with pytest.raises(FormatError):
        serialize.loads(json.dumps(doc))


def test_unknown_kind_rejected():
    with pytest.raises(FormatError):
        serialize.loads(json.dumps({"format": 1, "kind": "mystery"}))


def test_json_nested_too_deep_is_format_error():
    with pytest.raises(FormatError, match="^invalid JSON: "):
        serialize.loads('{"kind": ' + "[" * 200_000 + "]" * 200_000 + "}")


def test_file_not_utf8_is_format_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"kind": "\xff"}')
    with pytest.raises(FormatError, match="is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"):
        serialize.load(bad)


@pytest.mark.parametrize(
    "build, edit, prefix",
    [
        (apollonian_system, lambda doc: doc.update(cluster=[0.0, 1, 2, 3]),
         "bad system document: ParameterError: "),
        (hexpyr_expected_gram, lambda doc: doc["entries"][0].__setitem__(1, "2"),
         "bad gram document: ValueError: "),
        (lambda: generate_packing(apollonian_system(), QuadExt(3), max_word=64),
         lambda doc: doc.pop("saturated"), "bad packing document: KeyError: "),
        (tetrahedron_target, lambda doc: doc["targets"][0].update(value=1),
         "bad target document: TypeError: "),
    ],
    ids=["system", "gram", "packing", "target"],
)
def test_loader_error_names_the_kind(build, edit, prefix):
    doc = json.loads(serialize.dumps(build()))
    edit(doc)
    with pytest.raises(FormatError) as exc:
        serialize.loads(json.dumps(doc))
    assert str(exc.value).startswith(prefix)


def test_gram_in_two_fields_is_refused():
    doc = json.loads(serialize.dumps(hexpyr_expected_gram()))
    doc["entries"][0][1] = doc["entries"][1][0] = "1*sqrt(2)"
    with pytest.raises(FormatError, match=r"more than one quadratic field: sqrt\(2\), sqrt\(3\)$"):
        serialize.loads(json.dumps(doc))


def test_bad_number_strings_surface_clearly():
    doc = json.loads(serialize.dumps(apollonian_system()))
    doc["walls"][0]["bend"] = "not-a-number"
    with pytest.raises(Exception):
        serialize.loads(json.dumps(doc))


def _sites(node, path=()):
    """(path of the container, key) of every value in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path, key
        yield from _sites(child, path + (key,))


_FUZZ_DOCS = {
    "hexpyr-system": hexpyr_system,
    "apollonian-packing": lambda: generate_packing(apollonian_system(), QuadExt(10), max_word=64),
    "hexpyr-gram": hexpyr_expected_gram,
    "tetrahedron-target": tetrahedron_target,
}
_DELETE = object()
_EDITS = [_DELETE, None, 0, 1.5, "x", [], {}, ["0"], True]


@pytest.mark.parametrize("name", sorted(_FUZZ_DOCS))
def test_one_edit_loads_or_is_format_error(name):
    text = serialize.dumps(_FUZZ_DOCS[name]())
    sites = list(_sites(json.loads(text)))
    rng = random.Random(f"one-edit {name}")
    for _ in range(1000):
        doc = json.loads(text)
        path, key = rng.choice(sites)
        edit = rng.choice(_EDITS)
        node = doc
        for k in path:
            node = node[k]
        if edit is _DELETE:
            del node[key]
        else:
            node[key] = edit
        try:
            serialize.loads(json.dumps(doc))
        except FormatError:
            pass
        except Exception as exc:
            what = "deleted" if edit is _DELETE else f"set to {edit!r}"
            pytest.fail(f"{[*path, key]} {what}: {type(exc).__name__}: {exc}")


_LITERAL_EDITS = [None, 0, 1.5, [], {}, "x", "1/0", "1*sqrt(2)", "1*sqrt(10000000000037)", "-0"]


def _load_error(doc):
    try:
        serialize.loads(json.dumps(doc))
    except FormatError as exc:
        return str(exc)
    return None


def test_one_edit_literal_shared_with_other_spheres():
    """A literal edited where its old value stays unedited in other spheres,
    so the loader's per-document parse memo already holds that value.  A
    literal that does not parse fails with the parser's own error; any other
    edit fails as the edited sphere fails alone.  The first sphere that
    fails is the one named."""
    text = serialize.dumps(generate_packing(apollonian_system(), QuadExt(10), max_word=64))
    sites: dict[str, list] = {}
    for i, o in enumerate(json.loads(text)["spheres"]):
        for key in ("cobend", "bend"):
            sites.setdefault(o[key], []).append((i, key, None))
        for j, s in enumerate(o["bz"]):
            sites.setdefault(s, []).append((i, "bz", j))
    # two edits leave a value that sits in three spheres unedited in one of them
    shared = sorted(v for v, at in sites.items() if len({i for i, _, _ in at}) >= 3)
    rng = random.Random("shared literal")
    for _ in range(300):
        old = rng.choice(shared)
        new = rng.choice(_LITERAL_EDITS + sorted(sites))
        places = sorted(rng.sample(sites[old], rng.choice([1, 2])))
        doc = json.loads(text)
        for i, key, j in places:
            if j is None:
                doc["spheres"][i][key] = new
            else:
                doc["spheres"][i][key][j] = new
        try:
            QuadExt.parse(new)
        except (TypeError, ValueError) as exc:
            want = f"sphere {places[0][0] + 1}: {type(exc).__name__}: {exc}"
        else:
            want = None
            for i in sorted({i for i, _, _ in places}):
                err = _load_error(dict(doc, spheres=[doc["spheres"][i]]))
                if err is not None:
                    assert err.startswith("sphere 1: "), err
                    want = f"sphere {i + 1}: {err[len('sphere 1: '):]}"
                    break
        assert _load_error(doc) == want, (old, new, places)
