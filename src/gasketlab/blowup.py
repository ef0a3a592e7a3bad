"""Blow-up / push-forward diagnostic: transport per-cell energy masses of a
rescaled harmonic pair into the plane and bin the resulting weighted cloud.

Per depth-m subcell the pushed point is the image under the rescaled pair of
the subcell's vertex average, and the weight is e^2 times the subcell's
combined energy mass, where e is the mean over the subcell's corners of the
equilibrium potential of the inner-set capacity problem.  That potential
needs no solve.  On the depth-N network below the word the inner-set pins fix
every vertex: 0 on the word's corners and 1 everywhere else.  Below depth N
cells meet only at their corners, so inside a cell the potential is the
harmonic extension of its corner values, e_child = A_letter e_parent.  Only
pairs (two harmonic directions) are supported; that is the shape the
limiting-measure argument consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegenerateBasisError, InvalidParameterError
from .capacity import default_inner_depth
from .energy import basis_from_vectors
from .exactla import mat_vec, quad
from .gasket import DEFAULT_WORD_BUDGET, GasketSpec, Word, walk
from .harmonic import base_form, extension_matrices


@dataclass
class BlowupCloud:
    """Weighted planar points pushed forward from the depth-m subcells."""

    word: Word
    depth: int
    inner_depth: int
    alpha: float
    points: np.ndarray = field(repr=False)       # (n, 2) floats in the unit disk
    weights: list = field(repr=False)            # e^2 * mass, exact
    masses: list = field(repr=False)
    e_means: list = field(repr=False)
    total_mass: Fraction = Fraction(0)

    @property
    def n_points(self) -> int:
        return len(self.weights)


def blowup_cloud(
    spec: GasketSpec,
    word: Word,
    b1,
    b2,
    m: int,
    N: int | None = None,
    budget: int = DEFAULT_WORD_BUDGET,
) -> BlowupCloud:
    """Build the weighted cloud for the harmonic pair (b1, b2) below `word`.

    The walk carries the potential at each cell's corners: down to depth N
    the corner cell i keeps its parent's value at corner i and every other
    corner value is 1; deeper the values follow the extension matrices.
    Masses are root normalized.
    """
    basis = basis_from_vectors(spec.d, [b1, b2])
    if basis.size != 2:
        raise DegenerateBasisError("exactly two harmonic directions are required")
    if N is None:
        N = default_inner_depth(spec)
    if N < 1:
        raise InvalidParameterError(f"inner-set depth must be >= 1, got {N}")

    d = spec.d
    Q = base_form(d)
    one = Fraction(1)
    u1 = [Fraction(x) for x in b1]
    u2 = [Fraction(x) for x in b2]

    def step(state, letter):
        to_n, inv_r, v1, v2, e = state
        i, l = letter
        data = extension_matrices(d, l)
        A = data.A[i - 1]
        if to_n > 0:
            # a child's corner is a corner of its parent only at corner i of
            # the corner cell i; a new vertex is no corner of the word, so 1
            e = [x if k == i - 1 else one for k, x in enumerate(e)]
        elif min(e) != max(e):  # A is row-stochastic, so it keeps a constant
            e = mat_vec(A, e)
        return to_n - 1, inv_r / data.r, mat_vec(A, v1), mat_vec(A, v2), e

    cells = []  # (values1, values2, e_mean, mass)
    start = (N, one, u1, u2, [Fraction(0)] * (d + 1))
    for _, (_, inv_r, v1, v2, e) in walk(spec, m, start, step, root=word, budget=budget):
        mass = inv_r * (quad(Q.M, v1) + quad(Q.M, v2))  # (1/2) sum of 2/r_w masses
        cells.append((v1, v2, sum(e) / (d + 1), mass))

    # normalization: 1 / max vertex norm of the pair, exact comparison first
    max_sq = Fraction(0)
    for v1, v2, _, _ in cells:
        for kdx in range(d + 1):
            sq = v1[kdx] * v1[kdx] + v2[kdx] * v2[kdx]
            if sq > max_sq:
                max_sq = sq
    if max_sq == 0:
        raise DegenerateBasisError("the harmonic pair vanishes on the cell")
    alpha = 1.0 / math.sqrt(float(max_sq))

    points = np.empty((len(cells), 2))
    weights, masses, e_means = [], [], []
    total = Fraction(0)
    for idx, (v1, v2, e_mean, mass) in enumerate(cells):
        h1 = sum(v1) / (d + 1)
        h2 = sum(v2) / (d + 1)
        points[idx, 0] = alpha * float(h1)
        points[idx, 1] = alpha * float(h2)
        w = e_mean * e_mean * mass
        weights.append(w)
        masses.append(mass)
        e_means.append(e_mean)
        total += w
    return BlowupCloud(
        word=word,
        depth=m,
        inner_depth=N,
        alpha=alpha,
        points=points,
        weights=weights,
        masses=masses,
        e_means=e_means,
        total_mass=total,
    )


def density_grid(cloud: BlowupCloud, resolution: int) -> np.ndarray:
    """Cell-averaged mass histogram of the cloud on [-1, 1]^2.

    Bins nest under doubling (floor binning on aligned edges), so a coarse
    grid equals the 2x2 block sums of the doubled one.
    """
    if resolution < 8:
        raise InvalidParameterError(f"resolution must be >= 8, got {resolution}")
    grid = np.zeros((resolution, resolution))
    if cloud.n_points == 0:
        return grid
    pts = cloud.points
    ix = np.clip(((pts[:, 0] + 1.0) / 2.0 * resolution).astype(int), 0, resolution - 1)
    iy = np.clip(((pts[:, 1] + 1.0) / 2.0 * resolution).astype(int), 0, resolution - 1)
    w = np.array([float(x) for x in cloud.weights])
    np.add.at(grid, (ix, iy), w)
    return grid
