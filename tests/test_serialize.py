"""JSON round-trips for every document kind."""

import json
import random

import pytest

from packinglab import serialize
from packinglab.coxeter import gram_from_diagram, parse_diagram
from packinglab.exactnum import QuadExt
from packinglab.fixtures import (
    COX6_DIAGRAM,
    apollonian_system,
    cuboctahedron_target,
    hexpyr_expected_gram,
    hexpyr_system,
    tetrahedron_target,
)
from packinglab.orbit import generate_packing
from packinglab.serialize import FormatError


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
