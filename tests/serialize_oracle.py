"""System and packing documents as packinglab first wrote them, as an oracle.

This is the dict layout `serialize.dumps` used before it wrote vectors
itself: one dict per wall or sphere, the whole document through
`json.dumps(..., indent=2, sort_keys=True)`.  The writer under test must give
the same text, byte for byte.
"""

import json

from packinglab.orbit import Packing, WallSystem


def _vector_to_obj(v) -> dict:
    return {
        "cobend": str(v.cobend),
        "bend": str(v.bend),
        "bz": [str(c) for c in v.bz],
    }


def system_to_obj(system: WallSystem) -> dict:
    return {
        "format": 1,
        "kind": "system",
        "dim": system.dim,
        "walls": [_vector_to_obj(w) for w in system.walls],
        "cluster": sorted(system.cluster_idx),
        "cocluster": sorted(system.cocluster_idx),
    }


def packing_to_obj(packing: Packing) -> dict:
    spheres = []
    for rec in packing.spheres:
        obj = _vector_to_obj(rec.vector)
        obj["word_length"] = rec.word_length
        obj["parent_generator"] = rec.parent_generator
        spheres.append(obj)
    return {
        "format": 1,
        "kind": "packing",
        "dim": packing.dim,
        "bend_bound": str(packing.bend_bound),
        "max_word": packing.max_word,
        "saturated": packing.saturated,
        "boundary_walls": packing.boundary_walls,
        "generators": sorted(packing.generator_idx),
        "spheres": spheres,
    }


def oracle_obj(x) -> dict:
    return system_to_obj(x) if isinstance(x, WallSystem) else packing_to_obj(x)


def oracle_dumps(x) -> str:
    return json.dumps(oracle_obj(x), indent=2, sort_keys=True) + "\n"
