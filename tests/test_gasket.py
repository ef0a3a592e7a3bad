from fractions import Fraction

import numpy as np
import pytest

from gasketlab.errors import (
    BudgetExceededError,
    DisconnectedNetworkError,
    EmptyBoundaryError,
    InadmissibleWordError,
    InvalidParameterError,
    SpecSemanticError,
)
from gasketlab.exactla import connected_components, edge_energy, identity, mat_mul
from gasketlab.gasket import (
    ConductanceNetwork,
    GasketSpec,
    chain_matrix,
    dirichlet_solve,
    encode_word,
    enumerate_words,
    harmonic_values,
    level_network,
    measure_totals,
    parse_word,
)
from gasketlab.harmonic import base_form, extension_matrices


@pytest.fixture(scope="module")
def sg():
    return GasketSpec(2, [2])


@pytest.fixture(scope="module")
def mixed():
    return GasketSpec(2, [2, 3], {"type": "explicit", "entries": {"": 3}, "default": 2})


def test_word_encoding_roundtrip():
    w = ((3, 3), (1, 2))
    assert encode_word(w) == "3^3.1^2"
    assert parse_word("3^3.1^2") == w
    assert parse_word("") == ()
    with pytest.raises(InadmissibleWordError):
        parse_word("3^")


def test_spec_validation_errors():
    with pytest.raises(SpecSemanticError):
        GasketSpec(2, [])
    with pytest.raises(SpecSemanticError):
        GasketSpec(2, [2, 3])  # multi-level needs an explicit or seeded labeling
    with pytest.raises(SpecSemanticError):
        GasketSpec(2, [2, 3], {"type": "explicit", "entries": {"": 5}, "default": 2})
    with pytest.raises(SpecSemanticError):
        GasketSpec(2, [2, 3], {"type": "seeded", "seed": 1, "weights": {2: 1.0}})


def test_enumerate_words_standard(sg):
    words = enumerate_words(sg, 2)
    assert len(words) == 9
    for w, r, mu in words:
        assert r == Fraction(9, 25)
        assert mu == Fraction(1, 9)
    assert [encode_word(w) for w, _, _ in words[:3]] == ["1^2.1^2", "1^2.2^2", "1^2.3^2"]


def test_enumerate_words_mixed_root(mixed):
    assert len(enumerate_words(mixed, 1)) == 6  # root label 3: N(3) children
    depth2 = enumerate_words(mixed, 2)
    assert len(depth2) == 18  # every depth-1 word labeled 2

def test_enumerate_words_root_and_budget(sg):
    words = enumerate_words(sg, 0)
    assert words == [((), Fraction(1), Fraction(1))]
    with pytest.raises(BudgetExceededError):
        enumerate_words(sg, 5, budget=10)


@pytest.mark.parametrize("budget", [0, -3])
def test_walk_rejects_a_budget_below_one(sg, budget):
    # checked up front, even where the walk would yield the root alone
    for m in (0, 2):
        with pytest.raises(InvalidParameterError, match=f"^budget must be >= 1, got {budget}$"):
            enumerate_words(sg, m, budget=budget)


def test_measure_conservation(sg, mixed):
    assert measure_totals(sg, 5)[5] == 1
    assert measure_totals(mixed, 4)[4] == 1
    seeded = GasketSpec(2, [2, 3], {"type": "seeded", "seed": 7, "weights": {2: 0.5, 3: 0.5}})
    totals = measure_totals(seeded, 5)
    assert all(t == 1 for t in totals)


def test_per_letter_measure():
    spec = GasketSpec(
        2,
        [2],
        measure={"per_letter": {2: [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]}},
    )
    words = enumerate_words(spec, 2)
    assert sum(mu for _, _, mu in words) == 1
    assert words[0][2] == Fraction(1, 4)  # word 1^2.1^2
    with pytest.raises(SpecSemanticError):
        GasketSpec(2, [2], measure={"per_letter": {2: [Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)]}})


def test_seeded_labeling_is_pure_and_reproducible():
    spec1 = GasketSpec(2, [2, 3], {"type": "seeded", "seed": 1, "weights": {2: 1.0, 3: 1.0}})
    spec2 = GasketSpec(2, [2, 3], {"type": "seeded", "seed": 1, "weights": {2: 1.0, 3: 1.0}})
    words1 = enumerate_words(spec1, 3)
    words2 = enumerate_words(spec2, 3)
    assert [encode_word(w) for w, _, _ in words1] == [encode_word(w) for w, _, _ in words2]
    for w, _, _ in words1[:20]:
        assert spec1.label_of(w) == spec1.label_of(tuple(w))
    spec3 = GasketSpec(2, [2, 3], {"type": "seeded", "seed": 2, "weights": {2: 1.0, 3: 1.0}})
    assert [w for w, _, _ in enumerate_words(spec3, 3)] != [w for w, _, _ in words1]


def test_chain_matrix_identity_base_and_noncommutation(sg):
    assert chain_matrix(sg, ()) == identity(3)
    data = extension_matrices(2, 2)
    assert chain_matrix(sg, ((2, 2),)) == data.A[1]
    # appending a letter multiplies on the left
    w12 = chain_matrix(sg, ((1, 2), (2, 2)))
    assert w12 == mat_mul(data.A[1], data.A[0])
    w21 = chain_matrix(sg, ((2, 2), (1, 2)))
    assert w12 != w21
    # non-corner cells exist from level 3 on; they do not commute either
    spec3 = GasketSpec(2, [3])
    d3 = extension_matrices(2, 3)
    a, b = d3.A[3], d3.A[4]
    assert mat_mul(a, b) != mat_mul(b, a)
    with pytest.raises(InadmissibleWordError):
        chain_matrix(sg, ((1, 3),))
    with pytest.raises(InadmissibleWordError):
        chain_matrix(sg, ((4, 2),))


def test_level_network_examples(sg):
    net1 = level_network(sg, 1)
    assert net1.n_vertices == 6
    assert len(net1.edges) == 9
    assert all(c == Fraction(5, 3) for c in net1.edges.values())
    net2 = level_network(sg, 2)
    assert net2.n_vertices == 15
    net0 = level_network(sg, 0)
    assert net0.n_vertices == 3
    assert all(c == 1 for c in net0.edges.values())
    assert len(net0.edges) == 3
    assert len(connected_components(net1.adjacency())) == 1


def test_level_network_below_root_word(sg):
    net = level_network(sg, 1, root=((1, 2),))
    assert net.n_vertices == 6
    assert net.root_r == Fraction(3, 5)
    assert all(c == Fraction(5, 3) for c in net.edges.values())
    half = Fraction(1, 2)
    expected_corners = {
        (Fraction(1), Fraction(0), Fraction(0)),
        (half, half, Fraction(0)),
        (half, Fraction(0), half),
    }
    assert {net.coords[v] for v in net.boundary} == expected_corners


def test_harmonic_values_and_energy(sg):
    u = [Fraction(1), Fraction(0), Fraction(0)]
    Q = base_form(2)
    vals = harmonic_values(sg, 1, u)
    data = extension_matrices(2, 2)
    assert vals[((1, 2),)] == [sum(row[j] * u[j] for j in range(3)) for row in data.A[0]]
    const = harmonic_values(sg, 2, [Fraction(4), Fraction(4), Fraction(4)])
    assert all(v == [4, 4, 4] for v in const.values())
    for m in range(0, 5):
        net = level_network(sg, m)
        hv = harmonic_values(sg, m, u)
        total = Fraction(0)
        for word, ids, weight in net.cells:
            v = hv[word]
            for a in range(3):
                for b in range(a + 1, 3):
                    total += weight * (v[a] - v[b]) ** 2
        assert total == Q(u)


def test_harmonic_values_refuse_float_data(sg):
    with pytest.raises(InvalidParameterError):
        harmonic_values(sg, 1, [1.0, 0, 0])
    assert harmonic_values(sg, 0, [1, Fraction(1, 2), 0]) == {(): [1, Fraction(1, 2), 0]}


def test_harmonic_values_respect_maximum_principle(sg):
    u = [Fraction(3), Fraction(-1), Fraction(2)]
    for word, vec in harmonic_values(sg, 3, u).items():
        assert min(u) <= min(vec) and max(vec) <= max(u)


def test_self_similar_energy_decomposition(sg):
    # energy of depth-(m+1) data = sum over depth-1 branches of branch energy
    rng = np.random.RandomState(5)
    m = 2
    net_full = level_network(sg, m + 1)
    values = {i: Fraction(int(x)) for i, x in enumerate(rng.randint(-10, 10, net_full.n_vertices))}
    total = Fraction(0)
    for (i, j), c in net_full.edges.items():
        total += c * (values[i] - values[j]) ** 2
    branch_sum = Fraction(0)
    r = Fraction(3, 5)
    for i in (1, 2, 3):
        bnet = level_network(sg, m, root=((i, 2),))
        be = Fraction(0)
        for (a, b), c in bnet.edges.items():
            va = values[net_full.coord_index[bnet.coords[a]]]
            vb = values[net_full.coord_index[bnet.coords[b]]]
            be += c * (va - vb) ** 2
        branch_sum += be / r
    assert branch_sum == total


def test_dirichlet_triangle_oracle(sg):
    net = level_network(sg, 0)
    b0, b1, b2 = net.boundary
    vals, energy, mode = dirichlet_solve(net, {b0: Fraction(1), b1: Fraction(0)})
    assert vals[b2] == Fraction(1, 2)
    assert energy == Fraction(3, 2)
    # brute-force grid minimization over the single free variable
    grid = np.linspace(-1.0, 2.0, 3001)
    energies = (grid - 1.0) ** 2 + grid**2 + 1.0
    best = grid[np.argmin(energies)]
    assert abs(best - 0.5) < 1e-3
    assert energies.min() >= 1.5 - 1e-9


def test_dirichlet_all_boundary_and_constant(sg):
    net = level_network(sg, 0)
    full = {v: Fraction(v) for v in range(3)}
    vals, energy, mode = dirichlet_solve(net, full)
    assert mode == "direct"
    assert energy == sum((full[i] - full[j]) ** 2 for (i, j) in net.edges)
    cvals, cenergy, _ = dirichlet_solve(net, {0: Fraction(2), 1: Fraction(2), 2: Fraction(2)})
    assert cenergy == 0
    assert all(v == 2 for v in cvals.values())


def test_dirichlet_exact_matches_float(sg):
    net = level_network(sg, 3)
    bmap = {net.boundary[0]: Fraction(1), net.boundary[1]: Fraction(0), net.boundary[2]: Fraction(2)}
    vals_e, en_e, _ = dirichlet_solve(net, bmap)
    # independent oracle: a dense float solve of the same Laplacian
    n = net.n_vertices
    L = np.zeros((n, n))
    for (i, j), c in net.edges.items():
        c = float(c)
        L[i, i] += c
        L[j, j] += c
        L[i, j] -= c
        L[j, i] -= c
    fixed = list(bmap)
    free = [v for v in range(n) if v not in bmap]
    x = np.zeros(n)
    x[fixed] = [float(bmap[v]) for v in fixed]
    x[free] = np.linalg.solve(L[np.ix_(free, free)], -L[np.ix_(free, fixed)] @ x[fixed])
    vals_f = dict(enumerate(x.tolist()))
    en_f = float(x @ L @ x)
    assert abs(float(en_e) - en_f) <= 1e-12 * float(en_e)
    worst = max(abs(float(vals_e[v]) - vals_f[v]) for v in range(net.n_vertices))
    assert worst < 1e-10


def test_dirichlet_maximum_principle_random_boundary(sg):
    rng = np.random.RandomState(11)
    net = level_network(sg, 2)
    for _ in range(5):
        picks = rng.choice(net.n_vertices, size=4, replace=False)
        bmap = {int(v): Fraction(int(rng.randint(-5, 6))) for v in picks}
        vals, energy, _ = dirichlet_solve(net, bmap)
        lo, hi = min(bmap.values()), max(bmap.values())
        assert all(lo <= v <= hi for v in vals.values())
        # the Schur complement's energy is the potentials' energy on the whole network
        assert energy == edge_energy(net.adjacency(), vals)


def test_dirichlet_errors(sg):
    net = level_network(sg, 1)
    with pytest.raises(EmptyBoundaryError):
        dirichlet_solve(net, {})
    # a float pin is refused, whether the solve eliminates or pins every vertex
    with pytest.raises(InvalidParameterError):
        dirichlet_solve(net, {net.boundary[0]: 1.0, net.boundary[1]: Fraction(0)})
    with pytest.raises(InvalidParameterError):
        dirichlet_solve(net, {v: 0.5 for v in range(net.n_vertices)})
    two_islands = ConductanceNetwork(
        d=2,
        coords=[(0,), (1,), (2,), (3,)],
        coord_index={},
        edges={(0, 1): Fraction(1), (2, 3): Fraction(1)},
        boundary=[0],
    )
    with pytest.raises(DisconnectedNetworkError):
        dirichlet_solve(two_islands, {0: Fraction(1)})
