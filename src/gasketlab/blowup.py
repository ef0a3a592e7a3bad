"""Blow-up / push-forward diagnostic: transport per-cell energy masses of a
rescaled harmonic pair into the plane and bin the resulting weighted cloud.

Per depth-m subcell the pushed point is the image under the rescaled pair of
the subcell's vertex average, and the weight is e^2 times the subcell's
combined energy mass, where e is the discrete equilibrium potential of the
inner-set capacity problem.  Only pairs (two harmonic directions) are
supported; that is the shape the limiting-measure argument consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import DegenerateBasisError, InvalidParameterError
from .capacity import _capacities, default_inner_depth, inner_set_pins
from .energy import basis_from_vectors
from .exactla import mat_vec, quad
from .gasket import DEFAULT_WORD_BUDGET, GasketSpec, Word, _root_affine, affine_step, cell_corners, walk
from .harmonic import base_form, extension_matrices


@dataclass
class BlowupCloud:
    """Weighted planar points pushed forward from the depth-m subcells."""

    word: Word
    depth: int
    inner_depth: int
    refinement: int
    alpha: float
    points: np.ndarray = field(repr=False)       # (n, 2) floats in the unit disk
    weights: list = field(repr=False)            # e^2 * mass, exact in rational mode
    masses: list = field(repr=False)
    e_means: list = field(repr=False)
    total_mass: Fraction | float = Fraction(0)
    mode: str = "exact"

    @property
    def n_points(self) -> int:
        return len(self.weights)


def blowup_cloud(
    spec: GasketSpec,
    word: Word,
    b1,
    b2,
    m: int,
    K: int = 0,
    N: int | None = None,
    mode: str = "auto",
    budget: int = DEFAULT_WORD_BUDGET,
) -> BlowupCloud:
    """Build the weighted cloud for the harmonic pair (b1, b2) below `word`.

    The equilibrium potential is solved at refinement max(K, m - N) so its
    values exist at every depth-m vertex; masses are root normalized.
    """
    basis = basis_from_vectors(spec.d, [b1, b2])
    if basis.size != 2:
        raise DegenerateBasisError("exactly two harmonic directions are required")
    if m < 0:
        raise InvalidParameterError(f"depth must be >= 0, got {m}")
    if N is None:
        N = default_inner_depth(spec)
    k_eff = max(K, m - N)
    pins = partial(inner_set_pins, spec, word, N)
    cap = _capacities("inner-set", spec, word, N, k_eff, pins, mode, budget, finest_only=True)
    net = cap.finest_network
    pots = cap.finest_potentials
    exact = cap.mode == "exact"

    d = spec.d
    Q = base_form(d)
    u1 = [Fraction(x) for x in b1]
    u2 = [Fraction(x) for x in b2]

    def step(state, letter):
        affine, inv_r, v1, v2 = state
        data = extension_matrices(d, letter[1])
        A = data.A[letter[0] - 1]
        return affine_step(affine, letter), inv_r / data.r, mat_vec(A, v1), mat_vec(A, v2)

    cells = []  # (values1, values2, e_mean, mass)
    start = (_root_affine(spec, word), Fraction(1), u1, u2)
    for _, (affine, inv_r, v1, v2) in walk(spec, m, start, step, root=word, budget=budget):
        e_mean = sum(pots[net.coord_index[coord]] for coord in cell_corners(affine)) / (d + 1)
        mass = inv_r * (quad(Q.M, v1) + quad(Q.M, v2))  # (1/2) sum of 2/r_w masses
        cells.append((v1, v2, e_mean, mass))

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
    total = Fraction(0) if exact else 0.0
    for idx, (v1, v2, e_mean, mass) in enumerate(cells):
        h1 = sum(v1) / (d + 1)
        h2 = sum(v2) / (d + 1)
        points[idx, 0] = alpha * float(h1)
        points[idx, 1] = alpha * float(h2)
        if exact:
            w = e_mean * e_mean * mass
        else:
            w = float(e_mean) * float(e_mean) * float(mass)
        weights.append(w)
        masses.append(mass)
        e_means.append(e_mean)
        total += w
    return BlowupCloud(
        word=word,
        depth=m,
        inner_depth=N,
        refinement=k_eff,
        alpha=alpha,
        points=points,
        weights=weights,
        masses=masses,
        e_means=e_means,
        total_mass=total,
        mode=cap.mode,
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
