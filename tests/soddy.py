"""The Soddy sphere packing's 10-wall system in dimension 3, for tests.

The cluster is Soddy's root quintuple of mutually tangent spheres, bends
(-1, 2, 2, 3, 3): the outer unit sphere, radius-1/2 spheres at (+-1/2, 0, 0)
and radius-1/3 spheres at (0, sqrt(3)/3, +-1/3).  The cocluster holds the
five dual spheres w_i = (sum_j v_j - 3 v_i) / (2 sqrt(3)); w_i is orthogonal
to every cluster sphere but v_i.  All coordinates lie in Q(sqrt(3)).

Twice the Gram matrix has 2 between cluster spheres, 1 between dual
spheres, 2*sqrt(3) between v_i and w_i and 0 elsewhere: its surd edges are
the matching v_i - w_i, a cut between the cluster and the cocluster, so
every cyclic product is a rational integer.
"""

from fractions import Fraction

from packinglab.arithmetic import gram_matrix
from packinglab.exactnum import QuadExt
from packinglab.inversive import InversiveVector, sphere_from_center_radius


def soddy_walls() -> list[InversiveVector]:
    """The five cluster spheres, then their five duals."""
    third, half = Fraction(1, 3), Fraction(1, 2)
    cluster = [
        sphere_from_center_radius((0, 0, 0), -1),
        sphere_from_center_radius((half, 0, 0), half),
        sphere_from_center_radius((-half, 0, 0), half),
        sphere_from_center_radius((0, QuadExt.sqrt(3) / 3, third), third),
        sphere_from_center_radius((0, QuadExt.sqrt(3) / 3, -third), third),
    ]
    total = [sum(col, QuadExt(0)) for col in zip(*(v.coords() for v in cluster))]
    scale = QuadExt.sqrt(3) * 2
    duals = [
        InversiveVector.from_coords((t - 3 * x) / scale for t, x in zip(total, v.coords()))
        for v in cluster
    ]
    return cluster + duals


def soddy_gram():
    return gram_matrix(soddy_walls())
