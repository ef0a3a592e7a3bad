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
from .exactla import integer_form, mat_vec
from .gasket import DEFAULT_WORD_BUDGET, GasketSpec, Word, _exact_sum, walk
from .harmonic import extension_matrices


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
    n = d + 1
    # the state holds integer numerators over its denominators den and e_den
    pair, den0 = integer_form(basis.raw[0] + basis.raw[1])

    def step(state, letter):
        to_n, ir_num, ir_den, v1, v2, den, e, e_den = state
        i, l = letter
        data = extension_matrices(d, l)
        M = data.M[i - 1]
        if to_n > 0:
            # a child's corner is a corner of its parent only at corner i of
            # the corner cell i; a new vertex is no corner of the word, so 1
            e = [x if k == i - 1 else e_den for k, x in enumerate(e)]
        elif min(e) != max(e):  # A is row-stochastic, so it keeps a constant
            e, e_den = mat_vec(M, e), e_den * data.D
        r = data.r
        return (
            to_n - 1, ir_num * r.denominator, ir_den * r.numerator,
            mat_vec(M, v1), mat_vec(M, v2), den * data.D, e, e_den,
        )

    def q(v):  # Q(v, v) for the base form Q = (d+1) I - J
        s = sum(v)
        return n * sum(x * x for x in v) - s * s

    sums, e_means, masses, weights = [], [], [], []
    by_den: dict = {}  # the weights' numerators tallied by their denominators
    max_num, max_den = 0, 1  # the largest squared vertex norm of the pair
    start = (N, 1, 1, pair[:n], pair[n:], den0, [0] * n, 1)
    for _, (_, ir_num, ir_den, v1, v2, den, e, e_den) in walk(spec, m, start, step, root=word, budget=budget):
        den_sq = den * den
        for x, y in zip(v1, v2):
            sq = x * x + y * y
            if sq * max_den > max_num * den_sq:
                max_num, max_den = sq, den_sq
        # mass is (1/2) sum of the 2/r_w energy masses; weight is e_mean^2 mass
        mass_num, mass_den = ir_num * (q(v1) + q(v2)), ir_den * den_sq
        mean_num, mean_den = sum(e), n * e_den
        w_num, w_den = mean_num * mean_num * mass_num, mean_den * mean_den * mass_den
        by_den[w_den] = by_den.get(w_den, 0) + w_num
        sums.append((sum(v1), sum(v2), n * den))
        e_means.append(Fraction(mean_num, mean_den))
        masses.append(Fraction(mass_num, mass_den))
        weights.append(Fraction(w_num, w_den))
    if max_num == 0:
        raise DegenerateBasisError("the harmonic pair vanishes on the cell")
    total = _exact_sum(by_den)
    # int / int is correctly rounded, so these floats are those of the reduced fractions
    try:
        norm = math.sqrt(max_num / max_den)
        float(total)  # every weight is at most the total, so all weights have floats
    except OverflowError:
        raise InvalidParameterError("the harmonic pair is too large for floating point") from None
    if norm == 0.0:
        raise InvalidParameterError("the harmonic pair is too small for floating point")
    alpha = 1.0 / norm

    points = np.empty((len(sums), 2))
    for idx, (s1, s2, h_den) in enumerate(sums):
        points[idx, 0] = alpha * (s1 / h_den)
        points[idx, 1] = alpha * (s2 / h_den)
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
    try:
        grid = np.zeros((resolution, resolution))
    except (ValueError, MemoryError):  # numpy refuses the allocation
        raise InvalidParameterError(f"resolution {resolution} needs a grid too large to allocate") from None
    if cloud.n_points == 0:
        return grid
    pts = cloud.points
    ix = np.clip(((pts[:, 0] + 1.0) / 2.0 * resolution).astype(int), 0, resolution - 1)
    iy = np.clip(((pts[:, 1] + 1.0) / 2.0 * resolution).astype(int), 0, resolution - 1)
    w = np.array([float(x) for x in cloud.weights])
    np.add.at(grid, (ix, iy), w)
    return grid
