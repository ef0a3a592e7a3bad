"""Harmonic structure of one subdivision level: base form, renormalization
factor, extension matrices and their eigenstructure.

All computations here are exact rational.  The matrices involved are small
(side d+1 or the vertex count of one subdivision level), so exactness is
cheap and the golden values carry no tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import (
    EigenRelationError,
    InvalidParameterError,
    ProportionalityError,
)
from .exactla import adjacency_from_edges, back_substitute, eliminate, mat_vec, quad
from .subdivision import SimplexSubdivision, subdivide


@dataclass
class QuadraticForm:
    """Graph-Laplacian quadratic form Q(f,g) = f . M . g on n vertices."""

    n: int
    M: list = field(repr=False)

    def __call__(self, f, g=None) -> Fraction:
        return quad(self.M, list(f), None if g is None else list(g))


def base_form(d: int) -> QuadraticForm:
    """Laplacian of the complete graph on the d+1 simplex corners, unit edges."""
    if d < 2:
        raise InvalidParameterError(f"simplex dimension must be >= 2, got {d}")
    n = d + 1
    M = [[Fraction(d) if i == j else Fraction(-1) for j in range(n)] for i in range(n)]
    return QuadraticForm(n=n, M=M)


def level_form(s: SimplexSubdivision) -> QuadraticForm:
    """Laplacian on the level vertex set; each cell contributes a complete
    graph with unit conductances (shared edges would accumulate, but distinct
    upward cells in fact never share an edge)."""
    n = s.n_vertices
    M = [[Fraction(0)] * n for _ in range(n)]
    for ids in s.cell_vertices:
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                i, j = ids[a], ids[b]
                M[i][i] += 1
                M[j][j] += 1
                M[i][j] -= 1
                M[j][i] -= 1
    return QuadraticForm(n=n, M=M)


# --- eigenvector frame for corner matrices ----------------------------------


def ones_vector(d: int) -> list:
    return [Fraction(1)] * (d + 1)


def check_corner(d: int, corner: int) -> None:
    """Refuse a corner index outside 1..d+1."""
    if not 1 <= corner <= d + 1:
        raise InvalidParameterError(f"corner must be in 1..{d + 1}")


def dual_vector(d: int, i: int) -> list:
    """Left r-eigenvector of the i-th corner matrix (1-based i)."""
    return [Fraction(-d) if k == i - 1 else Fraction(1) for k in range(d + 1)]


def principal_vector(d: int, i: int) -> list:
    """Right r-eigenvector of the i-th corner matrix (1-based i)."""
    return [Fraction(0) if k == i - 1 else Fraction(1, d) for k in range(d + 1)]


def partner_index(d: int, i: int) -> int:
    """The distinguished second corner i' used to span the secondary space."""
    return i + 1 if i <= d else 1


def secondary_vectors(d: int, i: int) -> list:
    """The d-1 secondary eigendirections of the i-th corner matrix."""
    ip = partner_index(d, i)
    vecs = []
    for j in range(1, d + 2):
        if j in (i, ip):
            continue
        v = [Fraction(0)] * (d + 1)
        v[ip - 1] = Fraction(1)
        v[j - 1] = Fraction(-1)
        vecs.append(v)
    return vecs


@dataclass
class HarmonicCellData:
    """Per-(d,l) harmonic data: factor r, all N(l) extension matrices, and the
    secondary eigenvalue s of the corner matrices (exact; s has multiplicity
    d-1 so it is always rational).

    The walks read each A[i] as the integer matrix M[i] = D A[i] over the
    level's one denominator D, the lcm of the entries' denominators, so they
    carry integer numerators and never reduce a fraction."""

    d: int
    l: int
    r: Fraction
    A: list = field(repr=False)
    s: Fraction = Fraction(0)
    M: list = field(default_factory=list, repr=False)
    D: int = 1

    @property
    def theta_term(self) -> Fraction:
        return abs(self.s) / self.r


@lru_cache(maxsize=None)
def _level_solve(d: int, l: int):
    """One exact elimination per (d,l): returns (subdivision, harmonic value
    table H, renormalization factor r, boundary Schur Laplacian)."""
    s = subdivide(d, l)
    edges = []
    for ids in s.cell_vertices:
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                edges.append((ids[a], ids[b], Fraction(1)))
    adj = adjacency_from_edges(edges)
    boundary = s.boundary_vertex_ids()
    reduced, steps = eliminate(adj, boundary)

    # Schur proportionality: every boundary pair must carry one conductance r.
    vals = set()
    for a in range(len(boundary)):
        for b in range(a + 1, len(boundary)):
            vals.add(reduced[boundary[a]].get(boundary[b], Fraction(0)))
    if len(vals) != 1:
        raise ProportionalityError(
            f"trace of level form is not a multiple of the base form at d={d}, l={l}: {sorted(vals)}"
        )
    r = vals.pop()
    if not (0 < r < 1):
        raise ProportionalityError(f"renormalization factor out of (0,1): {r}")

    # Harmonic extension of each boundary basis vector, via back substitution.
    H = [[Fraction(0)] * (d + 1) for _ in range(s.n_vertices)]
    for k, b in enumerate(boundary):
        values = {bb: Fraction(1) if bb == b else Fraction(0) for bb in boundary}
        full = back_substitute(steps, values)
        for vid, val in full.items():
            H[vid][k] = val
    return s, H, r, reduced


def renormalization_factor(d: int, l: int) -> Fraction:
    """The exact r with (boundary trace of the level form) = r * (base form)."""
    if d < 2 or l < 2:
        raise InvalidParameterError(f"need d >= 2 and l >= 2, got d={d}, l={l}")
    return _level_solve(d, l)[2]


def _verify_cell_data(data: HarmonicCellData) -> None:
    d, r, s = data.d, data.r, data.s
    Q = base_form(d)
    one = ones_vector(d)
    for idx, (A, M) in enumerate(zip(data.A, data.M, strict=True)):
        if M != [[data.D * x for x in row] for row in A]:
            raise EigenRelationError(f"integer extension matrix {idx} != D A")
        for row in A:
            if sum(row) != 1:
                raise EigenRelationError(f"row sum != 1 in extension matrix {idx}")
            if any(x < 0 or x > 1 for x in row):
                raise EigenRelationError(f"entry outside [0,1] in extension matrix {idx}")
    if not abs(s) < r:
        raise EigenRelationError(f"secondary eigenvalue |s|={abs(s)} not below r={r}")
    for i in range(1, d + 2):
        A = data.A[i - 1]
        At = [list(col) for col in zip(*A)]
        v = principal_vector(d, i)
        u = dual_vector(d, i)
        if mat_vec(A, one) != one:
            raise EigenRelationError(f"corner {i}: A 1 != 1")
        if mat_vec(A, v) != [r * x for x in v]:
            raise EigenRelationError(f"corner {i}: A v != r v")
        if mat_vec(At, u) != [r * x for x in u]:
            raise EigenRelationError(f"corner {i}: A^T u != r u")
        for y in secondary_vectors(d, i):
            if mat_vec(A, y) != [s * x for x in y]:
                raise EigenRelationError(f"corner {i}: A y != s y")
            if Q(v, y) != 0:
                raise EigenRelationError(f"corner {i}: Q(v, y) != 0")
    # Energy decomposition on the standard basis, hence everywhere by bilinearity.
    n = d + 1
    for k in range(n):
        e = [Fraction(1) if t == k else Fraction(0) for t in range(n)]
        total = sum(Q(mat_vec(A, e)) for A in data.A)
        if total != r * Q(e):
            raise EigenRelationError(f"energy decomposition fails on basis vector {k}")


@lru_cache(maxsize=None)
def extension_matrices(d: int, l: int) -> HarmonicCellData:
    """All N(l) harmonic-extension matrices plus the spectral constants.

    Every exact invariant (row stochasticity, eigen relations, energy
    decomposition) is verified at construction time.
    """
    if d < 2 or l < 2:
        raise InvalidParameterError(f"need d >= 2 and l >= 2, got d={d}, l={l}")
    s, H, r, _ = _level_solve(d, l)
    mats = []
    for ids in s.cell_vertices:
        mats.append([list(H[vid]) for vid in ids])
    trace = sum(mats[0][k][k] for k in range(d + 1))
    sec = (trace - 1 - r) / (d - 1)
    D = math.lcm(*(x.denominator for A in mats for row in A for x in row))
    ints = [[[x.numerator * (D // x.denominator) for x in row] for row in A] for A in mats]
    data = HarmonicCellData(d=d, l=l, r=r, A=mats, s=sec, M=ints, D=D)
    _verify_cell_data(data)
    return data


def spectral_data(d: int, l: int) -> dict:
    """Exact spectral report for the corner matrices of one level."""
    data = extension_matrices(d, l)

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    checks = {}
    for i in range(1, d + 2):
        u = dual_vector(d, i)
        got = dot(u, ones_vector(d))
        checks[f"u{i}.1"] = got
        if got != 0:
            raise EigenRelationError(f"(u_{i}, 1) != 0")
        got = dot(u, principal_vector(d, i))
        checks[f"u{i}.v{i}"] = got
        if got != 1:
            raise EigenRelationError(f"(u_{i}, v_{i}) != 1")
        for k, y in enumerate(secondary_vectors(d, i)):
            got = dot(u, y)
            checks[f"u{i}.y{i}_{k}"] = got
            if got != 0:
                raise EigenRelationError(f"(u_{i}, y_{i},{k}) != 0")
    return {
        "d": d,
        "l": l,
        "r": data.r,
        "s": data.s,
        "theta_term": data.theta_term,
        "eigenvalues": [Fraction(1), data.r, data.s],
        "secondary_multiplicity": d - 1,
        "inner_products": checks,
    }


def theta(d: int, levels) -> Fraction:
    """max over the level set of |s/r| (the uniform contraction rate)."""
    return max(extension_matrices(d, l).theta_term for l in levels)
