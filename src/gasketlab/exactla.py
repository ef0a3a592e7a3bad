"""Exact rational linear algebra helpers.

Dense matrices are lists of lists of Fraction; vectors are lists of Fraction.
Conductance networks are adjacency dicts {v: {u: c}} with positive rational
edge weights, interpreted as graph Laplacians.  Everything here is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .errors import DisconnectedNetworkError

Vec = list
Mat = list


def mat_vec(m: Mat, v: Vec) -> Vec:
    return [sum(row[j] * v[j] for j in range(len(v))) for row in m]


def integer_form(vec: Vec) -> tuple:
    """(numerators, den) with vec[k] == numerators[k] / den, where den is the
    lcm of the entries' denominators."""
    vec = [Fraction(x) for x in vec]
    den = math.lcm(*(x.denominator for x in vec))
    return [x.numerator * (den // x.denominator) for x in vec], den


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, k, p = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(p)] for i in range(n)]


def mat_t(m: Mat) -> Mat:
    return [list(col) for col in zip(*m)]


def identity(n: int) -> Mat:
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def quad(m: Mat, u: Vec, v: Vec | None = None) -> Fraction:
    """u . M . v (v defaults to u)."""
    if v is None:
        v = u
    mv = mat_vec(m, v)
    return sum(u[i] * mv[i] for i in range(len(u)))


def det(m: Mat) -> Fraction:
    """Determinant by fraction-preserving Gaussian elimination."""
    n = len(m)
    a = [row[:] for row in m]
    d = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            d = -d
        d *= a[c][c]
        inv = Fraction(1) / a[c][c]
        for r in range(c + 1, n):
            if a[r][c] != 0:
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return d


def is_psd(m: Mat) -> bool:
    """Exact PSD test: a symmetric matrix is PSD iff every principal minor is >= 0.

    Intended for small matrices (size <= 6 or so); the number of minors is
    2^n - 1.
    """
    n = len(m)
    for size in range(1, n + 1):
        for idx in combinations(range(n), size):
            sub = [[m[i][j] for j in idx] for i in idx]
            if det(sub) < 0:
                return False
    return True


# --- sparse conductance networks -------------------------------------------


def adjacency_from_edges(edges) -> dict:
    """Build {v: {u: c}} from an iterable of (i, j, c); parallel edges add."""
    adj: dict = {}
    for i, j, c in edges:
        adj.setdefault(i, {})
        adj.setdefault(j, {})
        adj[i][j] = adj[i].get(j, 0) + c
        adj[j][i] = adj[j].get(i, 0) + c
    return adj


def connected_components(adj: dict) -> list:
    seen = set()
    comps = []
    for start in adj:
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        comps.append(comp)
    return comps


def eliminate(adj: dict, keep) -> tuple[dict, list]:
    """Exact star-mesh (Schur) elimination of all vertices not in `keep`.

    Returns (reduced adjacency on `keep`, steps).  Each step is
    (vertex, {neighbor: weight}) with weights summing to 1; the eliminated
    vertex's harmonic value is the weight-average of its neighbors' values,
    usable for back substitution in reverse order.

    Elimination order is minimum degree, ties broken by vertex key, which
    keeps fill-in small on finitely ramified networks.  The Schur complement
    itself is order independent.
    """
    keep = set(keep)
    work = {v: dict(nbrs) for v, nbrs in adj.items()}
    steps = []
    todo = {v for v in work if v not in keep}
    while todo:
        v = min(todo, key=lambda x: (len(work[x]), x))
        todo.discard(v)
        nbrs = work.pop(v)
        total = sum(nbrs.values())
        if total == 0:
            raise DisconnectedNetworkError("isolated vertex during elimination")
        inv = Fraction(1) / total
        coeffs = {u: c * inv for u, c in nbrs.items()}
        steps.append((v, coeffs))
        items = list(nbrs.items())
        for u, _ in items:
            work[u].pop(v, None)
        for (u1, c1), (u2, c2) in combinations(items, 2):
            w = c1 * c2 * inv
            work[u1][u2] = work[u1].get(u2, 0) + w
            work[u2][u1] = work[u2].get(u1, 0) + w
    return work, steps


def back_substitute(steps: list, values: dict) -> dict:
    """Fill in eliminated vertices' harmonic values from kept-vertex values."""
    out = dict(values)
    for v, coeffs in reversed(steps):
        out[v] = sum(c * out[u] for u, c in coeffs.items())
    return out


def edge_energy(adj: dict, values: dict) -> Fraction:
    """Sum c_ij (x_i - x_j)^2 over the edges of the adjacency."""
    total = 0
    for v, nbrs in adj.items():
        for u, c in nbrs.items():
            if u > v:
                d = values[v] - values[u]
                total += c * d * d
    return total
