"""The residue BFS as packinglab first wrote it, as an oracle.

One tuple per vector, a deque for the queue and a set for the seen vectors,
every image computed with Python ints.  The kernel under test runs level by
level on packed int64 keys instead; the two must agree on the residues and
on the number of vectors in the orbit.
"""

from collections import deque

from packinglab.localglobal import ResidueOrbit, _as_int


def residue_orbit(generators, start, modulus):
    if modulus < 1:
        raise ValueError("modulus must be positive")
    k = len(start)
    mats = []
    for g, mat in enumerate(generators):
        rows = [[_as_int(e, f"generator {g + 1} entry") % modulus for e in row] for row in mat]
        if len(rows) != k or any(len(r) != k for r in rows):
            raise ValueError(f"generator {g + 1} is not {k}x{k}")
        mats.append(rows)
    start_vec = tuple(_as_int(b, "bend") % modulus for b in start)

    seen = {start_vec}
    residues = set(start_vec)
    queue = deque([start_vec])
    while queue:
        vec = queue.popleft()
        for mat in mats:
            img = tuple(
                sum(mat[r][c] * vec[c] for c in range(k)) % modulus for r in range(k)
            )
            if img not in seen:
                seen.add(img)
                residues.update(img)
                queue.append(img)
    return ResidueOrbit(modulus=modulus, residues=frozenset(residues), vector_count=len(seen))
