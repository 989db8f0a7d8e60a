"""The orbit closure computed on QuadExt coordinates, as an oracle.

This is the closure as packinglab first wrote it: the same breadth-first
search, dedup, bend pruning and final ordering as `orbit._closure`, but with
every coordinate a QuadExt and every reflection `InversiveVector.reflect`.
The kernel under test runs on int tuples instead; the two must agree on
every field of the Packing, record order included.
"""

from collections import deque

from packinglab.linalg import as_quad
from packinglab.orbit import FrontierOverflow, Packing, SphereRecord


def closure(walls, generator_idx, seed_idx, bend_bound, max_word, frontier_cap=1_000_000):
    generators = [(g, walls[g]) for g in generator_idx]
    kept = {}
    seen_over_bound = set()
    queue = deque()
    for i in seed_idx:
        rec = SphereRecord(walls[i], 0, None)
        key = rec.vector.coords()
        if key not in kept:
            kept[key] = rec
            queue.append(rec)
    plane_count = 0
    capped = False
    while queue:
        rec = queue.popleft()
        if rec.word_length >= max_word:
            capped = True
            continue
        for g, wall in generators:
            child = rec.vector.reflect(wall)
            key = child.coords()
            if key in kept or key in seen_over_bound:
                continue
            is_plane = not child.bend
            if is_plane or abs(child.bend) <= bend_bound:
                new = SphereRecord(child, rec.word_length + 1, g)
                plane_count += is_plane
                kept[key] = new
                queue.append(new)
                if len(queue) > frontier_cap:
                    raise FrontierOverflow(f"frontier exceeded {frontier_cap} spheres")
            else:
                seen_over_bound.add(key)
    ordered = sorted(kept.values(), key=lambda r: (r.vector.bend,) + r.vector.coords())
    return Packing(
        spheres=ordered,
        saturated=not capped,
        bend_bound=bend_bound,
        max_word=max_word,
        generator_idx=tuple(generator_idx),
        dim=walls[0].dim,
        boundary_walls=plane_count,
    )


def generate_packing(system, bend_bound, max_word, frontier_cap=1_000_000):
    return closure(system.walls, system.cocluster_idx, system.cluster_idx,
                   as_quad(bend_bound), max_word, frontier_cap)


def generate_superpacking(system, bend_bound, max_word, frontier_cap=1_000_000):
    return closure(system.walls, tuple(range(len(system.walls))), system.cluster_idx,
                   as_quad(bend_bound), max_word, frontier_cap)
