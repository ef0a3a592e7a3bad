"""Level-l subdivision of the closed regular d-simplex.

Everything is done in barycentric coordinates: a point is a (d+1)-tuple of
rationals summing to 1, and the simplex corners are the coordinate unit
vectors.  The upward cells of the subdivision are exactly the images of the
simplex under the maps z -> z/l + a/l, where the anchor a runs over the
nonnegative integer (d+1)-tuples summing to l-1.  Downward cells are never
materialized.

Cell indexing is 0-based internally: cells 0..d are the corner cells (cell i
fixes corner i), the remaining cells follow in lexicographic order of their
anchor tuples.  The word layer of the gasket module exposes 1-based letters
to match the textual encoding "i^l".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import InvalidParameterError


def cell_count(d: int, l: int) -> int:
    """Number of upward cells: l(l+1)...(l+d-1) / d!."""
    _check_params(d, l)
    num = 1
    for k in range(d):
        num *= l + k
    return num // factorial(d)


def _check_params(d: int, l: int) -> None:
    if d < 2:
        raise InvalidParameterError(f"simplex dimension must be >= 2, got {d}")
    if l < 2:
        raise InvalidParameterError(f"subdivision level must be >= 2, got {l}")


def _anchors(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _anchors(total - head, parts - 1):
            yield (head,) + rest


@dataclass
class SimplexSubdivision:
    """Combinatorics and exact geometry of one subdivision level.

    cells holds the affine offsets a/l of the cell maps z -> z/l + a/l as
    tuples of Fractions.  cell_vertices[i] lists the global ids of cell i's
    vertices, ordered as the images of the simplex corners p_0..p_d.
    """

    d: int
    l: int
    cells: list = field(repr=False)
    vertices: list = field(repr=False)          # id -> coordinate tuple
    vertex_index: dict = field(repr=False)      # coordinate tuple -> id
    cell_vertices: list = field(repr=False)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    def boundary_vertex_ids(self) -> list:
        """Ids of the d+1 original simplex corners."""
        one = Fraction(1)
        zero = Fraction(0)
        ids = []
        for i in range(self.d + 1):
            corner = tuple(one if k == i else zero for k in range(self.d + 1))
            ids.append(self.vertex_index[corner])
        return ids


@lru_cache(maxsize=None)
def subdivide(d: int, l: int) -> SimplexSubdivision:
    """Enumerate the upward cells, their maps and the identified vertex set."""
    _check_params(d, l)
    corner_anchors = [tuple(l - 1 if k == i else 0 for k in range(d + 1)) for i in range(d + 1)]
    corner_set = set(corner_anchors)
    rest = sorted(a for a in _anchors(l - 1, d + 1) if a not in corner_set)
    anchors = corner_anchors + rest
    assert len(anchors) == cell_count(d, l)

    cells = [tuple(Fraction(ak, l) for ak in a) for a in anchors]
    vertex_index: dict = {}
    vertices: list = []
    cell_vertices = []
    for a in anchors:
        ids = []
        for i in range(d + 1):
            coord = tuple(Fraction(a[k] + (1 if k == i else 0), l) for k in range(d + 1))
            vid = vertex_index.get(coord)
            if vid is None:
                vid = len(vertices)
                vertex_index[coord] = vid
                vertices.append(coord)
            ids.append(vid)
        cell_vertices.append(tuple(ids))
    return SimplexSubdivision(
        d=d,
        l=l,
        cells=cells,
        vertices=vertices,
        vertex_index=vertex_index,
        cell_vertices=cell_vertices,
    )


def vertex_table(s: SimplexSubdivision) -> list:
    """(vertex id, exact coordinates, boundary flag) for every vertex.

    The boundary flag marks exactly the d+1 original simplex corners.
    """
    boundary = set(s.boundary_vertex_ids())
    return [(vid, coord, vid in boundary) for vid, coord in enumerate(s.vertices)]
