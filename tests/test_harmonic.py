import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gasketlab.energy import _exact_cell_record, _resolve_basis, kusuoka_distribution
from gasketlab.errors import InvalidParameterError
from gasketlab.gasket import GasketSpec, chain_matrix, harmonic_values, iter_words, measure_totals
from gasketlab.exactla import adjacency_from_edges, det, eliminate, mat_mul, mat_t, mat_vec
from gasketlab.harmonic import (
    _level_solve,
    base_form,
    dual_vector,
    extension_matrices,
    level_form,
    ones_vector,
    principal_vector,
    renormalization_factor,
    secondary_vectors,
    spectral_data,
    theta,
)
from gasketlab.subdivision import cell_count, subdivide, vertex_table


def brute_force_edge_sum(d, f):
    """Independent oracle: sum (f_p - f_q)^2 over all vertex pairs of the
    complete graph."""
    return sum((f[p] - f[q]) ** 2 for p, q in combinations(range(d + 1), 2))


def test_base_form_examples():
    Q = base_form(2)
    assert Q([1, 0, 0]) == 2
    assert Q([5, 5, 5]) == 0
    Q3 = base_form(3)
    f = [Fraction(1), Fraction(1), Fraction(0), Fraction(0)]
    assert Q3(f) == brute_force_edge_sum(3, f) == 4
    with pytest.raises(InvalidParameterError):
        base_form(1)


def test_level_form_edge_count_and_indicator():
    s = subdivide(2, 2)
    Q2 = level_form(s)
    # 3 cells x 3 edges, no shared edges: total degree = 2 * 9
    assert sum(Q2.M[i][i] for i in range(s.n_vertices)) == 2 * 9
    f = [1 if b else 0 for _, _, b in vertex_table(s)]
    g = [Fraction(x) for x in f]
    # brute force over the 9 cell edges
    total = 0
    for ids in s.cell_vertices:
        for a, b in combinations(range(3), 2):
            total += (g[ids[a]] - g[ids[b]]) ** 2
    assert Q2(g) == total == 6
    assert Q2([3] * s.n_vertices) == 0


@pytest.mark.parametrize("l,expect", [(2, Fraction(3, 5)), (3, Fraction(7, 15)), (4, Fraction(41, 103))])
def test_renormalization_golden_d2(l, expect):
    assert renormalization_factor(2, l) == expect


def test_renormalization_d3_independent_float_oracle():
    # frozen from the exact Schur computation, cross-checked below
    assert renormalization_factor(3, 2) == Fraction(2, 3)

    # independent path: conjugate-gradient minimization of the level form over
    # extensions of three independent boundary vectors
    from scipy.sparse.linalg import cg

    s = subdivide(3, 2)
    Q = level_form(s)
    L = np.array([[float(x) for x in row] for row in Q.M])
    boundary = s.boundary_vertex_ids()
    interior = [v for v in range(s.n_vertices) if v not in boundary]
    Q0 = base_form(3)
    for bvec in ([1, 0, 0, 0], [0, 1, 0, 0], [1, 2, 3, 0]):
        x = np.zeros(s.n_vertices)
        for k, b in enumerate(boundary):
            x[b] = bvec[k]
        A = L[np.ix_(interior, interior)]
        rhs = -L[np.ix_(interior, boundary)] @ x[boundary]
        sol, info = cg(A, rhs, rtol=1e-14, atol=0.0, maxiter=10000)
        assert info == 0
        x[interior] = sol
        min_energy = x @ L @ x
        ratio = min_energy / float(Q0([Fraction(v) for v in bvec]))
        assert abs(ratio - 2.0 / 3.0) < 1e-10


def test_renormalization_decreasing_in_level():
    rs = [renormalization_factor(2, l) for l in (2, 3, 4)]
    assert rs[0] > rs[1] > rs[2]


def test_schur_proportionality_range():
    for d in (2, 3):
        for l in (2, 3):
            s, _, r, reduced = _level_solve(d, l)
            boundary = s.boundary_vertex_ids()
            for a, b in combinations(boundary, 2):
                assert reduced[a][b] == r
            assert 0 < r < 1


def test_schur_result_independent_of_elimination_order():
    # relabel the vertices (reverses the min-degree tie-breaking) and compare
    s = subdivide(2, 3)
    edges = []
    for ids in s.cell_vertices:
        for a, b in combinations(ids, 2):
            edges.append((a, b, Fraction(1)))
    n = s.n_vertices
    boundary = s.boundary_vertex_ids()
    adj1 = adjacency_from_edges(edges)
    red1, _ = eliminate(adj1, boundary)
    relabel = {v: n - 1 - v for v in range(n)}
    adj2 = adjacency_from_edges([(relabel[a], relabel[b], c) for a, b, c in edges])
    red2, _ = eliminate(adj2, [relabel[b] for b in boundary])
    for a, b in combinations(boundary, 2):
        assert red1[a][b] == red2[relabel[a]][relabel[b]]


def test_extension_matrix_classical_corner():
    data = extension_matrices(2, 2)
    A1 = data.A[0]
    assert A1[0] == [Fraction(1), Fraction(0), Fraction(0)]
    # recompute the interior solve independently in floats
    s = subdivide(2, 2)
    Q = level_form(s)
    L = np.array([[float(x) for x in row] for row in Q.M])
    boundary = s.boundary_vertex_ids()
    interior = [v for v in range(s.n_vertices) if v not in boundary]
    for k in range(3):
        x = np.zeros(s.n_vertices)
        x[boundary[k]] = 1.0
        x[interior] = np.linalg.solve(
            L[np.ix_(interior, interior)], -L[np.ix_(interior, boundary)] @ x[boundary]
        )
        for cell in range(3):
            for row, vid in enumerate(s.cell_vertices[cell]):
                assert abs(float(data.A[cell][row][k]) - x[vid]) < 1e-12


def test_extension_matrices_are_stochastic_with_entries_in_unit_interval():
    for d, l in product((2, 3, 4), range(2, 6)):
        data = extension_matrices(d, l)
        for A in data.A:
            for row in A:
                assert sum(row) == 1
                assert all(0 <= x <= 1 for x in row)


def test_energy_decomposition_identity():
    for d, l in [(2, 2), (2, 3), (3, 2)]:
        data = extension_matrices(d, l)
        Q = base_form(d)
        for k in range(d + 1):
            e = [Fraction(1) if t == k else Fraction(0) for t in range(d + 1)]
            total = sum(Q(mat_vec(A, e)) for A in data.A)
            assert total / data.r == Q(e)


def test_eigen_relations_exact():
    for d, l in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        data = extension_matrices(d, l)
        r, s = data.r, data.s
        assert abs(s) < r < 1
        for i in range(1, d + 2):
            A = data.A[i - 1]
            At = [list(col) for col in zip(*A)]
            assert mat_vec(A, ones_vector(d)) == ones_vector(d)
            v = principal_vector(d, i)
            assert mat_vec(A, v) == [r * x for x in v]
            u = dual_vector(d, i)
            assert mat_vec(At, u) == [r * x for x in u]
            for y in secondary_vectors(d, i):
                assert mat_vec(A, y) == [s * x for x in y]


def test_secondary_eigenvalue_from_determinant_and_trace():
    # two independent exact identities: product and sum of the eigenvalues
    from gasketlab.exactla import det

    for d, l in [(2, 2), (2, 3), (3, 2)]:
        data = extension_matrices(d, l)
        A1 = data.A[0]
        trace = sum(A1[i][i] for i in range(d + 1))
        assert data.s == (trace - 1 - data.r) / (d - 1)
        assert det(A1) == data.r * data.s ** (d - 1)


def test_spectral_report_and_inner_products():
    rep = spectral_data(2, 2)
    assert rep["r"] == Fraction(3, 5)
    assert abs(rep["s"]) < Fraction(3, 5)
    assert rep["inner_products"]["u1.1"] == 0
    assert rep["inner_products"]["u1.v1"] == 1
    u1 = dual_vector(2, 1)
    v1 = principal_vector(2, 1)
    assert u1 == [Fraction(-2), Fraction(1), Fraction(1)]
    assert v1 == [Fraction(0), Fraction(1, 2), Fraction(1, 2)]
    assert theta(2, (2, 3)) == max(Fraction(1, 5) / Fraction(3, 5), Fraction(1, 15) / Fraction(7, 15))
    assert theta(2, (2, 3)) < 1


# --- properties across d in {2, 3, 4} and l in {2..5} ----------------------------

PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def boundary_data(draw):
    """(d, l, u) with u a rational boundary vector."""
    d = draw(st.sampled_from([2, 3, 4]))
    l = draw(st.integers(2, 5))
    u = draw(st.lists(st.fractions(-10, 10, max_denominator=50), min_size=d + 1, max_size=d + 1))
    return d, l, u


@PROPERTY
@given(boundary_data())
def test_cell_energies_sum_to_r_times_the_energy(case):
    d, l, u = case
    data = extension_matrices(d, l)
    Q = base_form(d)
    assert sum(Q(mat_vec(A, u)) for A in data.A) == data.r * Q(u)


@st.composite
def small_trees(draw, max_words=300):
    """(spec, m) with at most max_words words at depth m."""
    d = draw(st.sampled_from([2, 3, 4]))
    levels = sorted(draw(st.lists(st.integers(2, 5), min_size=1, max_size=3, unique=True)))
    labeling = None
    if len(levels) > 1:
        weights = {l: float(draw(st.integers(1, 3))) for l in levels}
        labeling = {"type": "seeded", "seed": draw(st.integers(0, 2**32)), "weights": weights}
    widest = max(cell_count(d, l) for l in levels)
    deepest = 0
    while widest ** (deepest + 1) <= max_words:
        deepest += 1
    return GasketSpec(d, levels, labeling), draw(st.integers(0, deepest))


@PROPERTY
@given(small_trees())
def test_kusuoka_masses_sum_to_the_root_mass(case):
    spec, m = case
    root = kusuoka_distribution(spec, 0)[0].nu_mass
    assert sum(c.nu_mass for c in kusuoka_distribution(spec, m)) == root


# --- integer-numerator transport against the Fraction product of A -------------

non_unit_fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(2, 40))


@st.composite
def transport_cases(draw):
    """(spec, m, u, v) with a seeded or homogeneous spec of at most 100 words
    at depth m >= 1, maybe per-letter weights, and rational boundary data u, v."""
    spec, m = draw(small_trees(max_words=100))
    m = max(m, 1)  # every level has at most 70 cells, so depth 1 fits
    if draw(st.booleans()):
        per_letter = {}
        for l in spec.levels:
            ints = draw(st.lists(st.integers(1, 9), min_size=cell_count(spec.d, l), max_size=cell_count(spec.d, l)))
            per_letter[l] = [Fraction(x, sum(ints)) for x in ints]
        spec = GasketSpec(spec.d, spec.levels, spec.labeling, {"per_letter": per_letter})
    vectors = [draw(st.lists(non_unit_fractions, min_size=spec.d + 1, max_size=spec.d + 1)) for _ in range(2)]
    return spec, m, vectors[0], vectors[1]


@settings(max_examples=25, deadline=None)
@given(transport_cases())
@example((
    GasketSpec(3, [2, 3], {"type": "seeded", "seed": 3, "weights": {2: 1.0, 3: 1.0}}),
    2,
    [Fraction(1, 3), Fraction(-2, 7), Fraction(5, 2), Fraction(0)],
    [Fraction(3, 4), Fraction(1, 6), Fraction(0), Fraction(-1, 9)],
))
@example((
    GasketSpec(
        2, [2, 4], {"type": "seeded", "seed": 5, "weights": {2: 1.0, 4: 1.0}},
        {"per_letter": {2: [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], 4: [Fraction(k, 55) for k in range(1, 11)]}},
    ),
    2,
    [Fraction(2, 3), Fraction(0), Fraction(-5, 4)],
    [Fraction(1, 5), Fraction(7, 2), Fraction(1, 3)],
))
def test_integer_transport_is_the_fraction_chain_product(case):
    spec, m, u, v = case
    d = spec.d
    for l in spec.levels:
        data = extension_matrices(d, l)
        assert data.D == math.lcm(*(x.denominator for A in data.A for row in A for x in row))
        assert data.M == [[[data.D * x for x in row] for row in A] for A in data.A]
        assert all(type(x) is int for M in data.M for row in M for x in row)

    words = list(iter_words(spec, m))
    values = harmonic_values(spec, m, u)
    assert list(values) == [w for w, _, _ in words]
    for w, _, _ in words:
        assert values[w] == mat_vec(chain_matrix(spec, w), u)
    assert measure_totals(spec, m) == [sum(mu for _, _, mu in iter_words(spec, k)) for k in range(m + 1)]

    Q = base_form(d)
    assume(det([[Q(a, b) for b in (u, v)] for a in (u, v)]) != 0)
    for vectors in (None, [u, v]):
        basis, normalized = _resolve_basis(d, vectors)
        G = basis.exact_columns()
        expect = [
            _exact_cell_record(w, mat_mul(chain_matrix(spec, w), G), 1, r_w, basis, normalized)
            for w, r_w, _ in words
        ]
        got = kusuoka_distribution(spec, m, basis=vectors)
        assert got == expect
        if not normalized:
            for rec, (w, r_w, _) in zip(got, words):
                cols = mat_t(mat_mul(chain_matrix(spec, w), G))
                assert rec.B == [[2 * Q(a, b) / r_w for b in cols] for a in cols]
