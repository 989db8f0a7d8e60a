"""The QuadExt verify_realization that the int-code one replaced, as an oracle.

Every product is an inversive_product of QuadExt coordinates and every
comparison is a QuadExt one.  The verifier under test encodes each wall once
and decides the same checks on ints; the two must agree on ok and on every
mismatch message, in order.
"""

from packinglab.geometrize import Exact, TargetSpec, VerificationReport
from packinglab.inversive import inversive_product


def verify_realization(walls, spec: TargetSpec) -> VerificationReport:
    """Exact check: unit diagonal, every exact target met, free pairs disjoint.

    Accepts a WallSystem or any sequence of exact wall vectors.
    """
    walls = list(getattr(walls, "walls", walls))
    mismatches = []
    if len(walls) != spec.wall_count:
        return VerificationReport(False, [f"expected {spec.wall_count} walls, got {len(walls)}"])
    for i, w in enumerate(walls):
        if not w.validate():
            mismatches.append(f"wall {i + 1}: Q(v) = {inversive_product(w, w)} != -1")
    for (i, j), t in sorted(spec.targets.items()):
        prod = inversive_product(walls[i], walls[j])
        if isinstance(t, Exact):
            if prod != t.value:
                mismatches.append(f"pair ({i + 1},{j + 1}): {prod} != {t.value}")
        else:
            if not prod > 1:
                mismatches.append(f"pair ({i + 1},{j + 1}): {prod} is not > 1")
    return VerificationReport(not mismatches, mismatches)
