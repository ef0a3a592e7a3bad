import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gasketlab import blowup
from gasketlab.blowup import BlowupCloud, blowup_cloud, density_grid
from gasketlab.capacity import inner_set_pins
from gasketlab.energy import default_basis
from gasketlab.errors import BudgetExceededError, DegenerateBasisError, InadmissibleWordError, InvalidParameterError
from gasketlab.exactla import identity, mat_mul, mat_vec
from gasketlab.gasket import GasketSpec, chain_matrix, dirichlet_solve, iter_words, level_network
from gasketlab.harmonic import base_form, extension_matrices
from gasketlab.subdivision import cell_count


@pytest.fixture(scope="module")
def sg():
    return GasketSpec(2, [2])


@pytest.fixture(scope="module")
def cloud(sg):
    basis = default_basis(2)
    return blowup_cloud(sg, (), basis.raw[0], basis.raw[1], m=3)


def test_cloud_exact_mass_conservation(cloud):
    assert isinstance(cloud.total_mass, Fraction)
    recomputed = sum(e * e * mass for e, mass in zip(cloud.e_means, cloud.masses))
    assert recomputed == cloud.total_mass
    assert all(w >= 0 for w in cloud.weights)
    assert cloud.n_points == 27


def test_cloud_points_inside_unit_disk(cloud):
    norms = np.linalg.norm(cloud.points, axis=1)
    assert norms.max() <= 1.0 + 1e-12


def test_cloud_alpha_normalizes_vertex_values(sg):
    # the maximum vertex norm of the rescaled pair is exactly 1
    basis = default_basis(2)
    from gasketlab.exactla import mat_vec
    from gasketlab.harmonic import extension_matrices

    cloud = blowup_cloud(sg, (), basis.raw[0], basis.raw[1], m=2)
    data = extension_matrices(2, 2)
    best = 0.0
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            v1 = mat_vec(data.A[j - 1], mat_vec(data.A[i - 1], basis.raw[0]))
            v2 = mat_vec(data.A[j - 1], mat_vec(data.A[i - 1], basis.raw[1]))
            for k in range(3):
                best = max(best, cloud.alpha**2 * float(v1[k] * v1[k] + v2[k] * v2[k]))
    assert best == pytest.approx(1.0, abs=1e-12)


def test_cloud_rejects_degenerate_pair(sg):
    with pytest.raises(DegenerateBasisError):
        blowup_cloud(sg, (), [1, 0, 0], [2, 1, 1], m=2)  # second = first + const


@pytest.mark.parametrize(
    "x, size",
    # at 2**600 only the weights leave the float range, at 2**1100 the points
    # too, and at 2**-600 the squared vertex norm falls below it
    [(2**600, "large"), (2**1100, "large"), (Fraction(1, 2**600), "small")],
    ids=["weights-overflow", "points-overflow", "norm-underflows"],
)
def test_cloud_refuses_a_pair_out_of_float_range(sg, x, size):
    with pytest.raises(InvalidParameterError, match=rf"^the harmonic pair is too {size} for floating point$"):
        blowup_cloud(sg, (), [x, -x, 0], [0, x, -x], m=2)


def test_cloud_rejects_bad_depths_and_words(sg):
    basis = default_basis(2)
    with pytest.raises(InvalidParameterError):
        blowup_cloud(sg, (), basis.raw[0], basis.raw[1], m=2, N=0)
    with pytest.raises(InvalidParameterError):
        blowup_cloud(sg, (), basis.raw[0], basis.raw[1], m=-1)
    with pytest.raises(InadmissibleWordError):
        blowup_cloud(sg, ((1, 3),), basis.raw[0], basis.raw[1], m=1)


def test_grid_conservation_and_refinement(cloud):
    g64 = density_grid(cloud, 64)
    g128 = density_grid(cloud, 128)
    total = float(cloud.total_mass)
    assert abs(g64.sum() - total) <= 1e-12 * total
    assert abs(g128.sum() - total) <= 1e-12 * total
    blocks = g128.reshape(64, 2, 64, 2).sum(axis=(1, 3))
    assert np.abs(blocks - g64).max() <= 1e-12


def test_grid_empty_cloud_and_resolution_floor(cloud):
    empty = BlowupCloud(
        word=(),
        depth=0,
        inner_depth=1,
        alpha=1.0,
        points=np.zeros((0, 2)),
        weights=[],
        masses=[],
        e_means=[],
        total_mass=Fraction(0),
    )
    assert density_grid(empty, 16).sum() == 0.0
    with pytest.raises(InvalidParameterError):
        density_grid(cloud, 4)


def test_mass_concentrates_where_equilibrium_potential_is_high(sg):
    # frozen qualitative threshold: >= 90% of the mass sits on subcells with
    # e > 1/2 at depth 8 (the oracle run gives ~0.99)
    basis = default_basis(2)
    cloud = blowup_cloud(sg, (), basis.raw[0], basis.raw[1], m=8)
    total = float(cloud.total_mass)
    high = sum(float(w) for w, e in zip(cloud.weights, cloud.e_means) if float(e) > 0.5)
    assert high / total >= 0.90


# --- the equilibrium potential against the inner-set solve ----------------------

PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def cloud_cases(draw, max_cells=1500):
    """(spec, word, N, m) with at most about max_cells cells below the word
    at depth max(N, m)."""
    d = draw(st.sampled_from([2, 3]))
    levels = sorted(draw(st.lists(st.sampled_from([2, 3, 4] if d == 2 else [2, 3]), min_size=1, unique=True)))
    labeling = None
    if len(levels) > 1 or draw(st.booleans()):
        weights = {l: float(draw(st.integers(1, 3))) for l in levels}
        labeling = {"type": "seeded", "seed": draw(st.integers(0, 2**32)), "weights": weights}
    spec = GasketSpec(d, levels, labeling)
    word = ()
    for _ in range(draw(st.integers(0, 2))):
        l = spec.label_of(word)
        word += ((draw(st.integers(1, cell_count(d, l))), l),)
    widest = max(cell_count(d, l) for l in levels)
    deepest = 1
    while widest ** (deepest + 1) <= max_cells:
        deepest += 1
    N = draw(st.integers(1, min(3, deepest)))
    m = draw(st.integers(0, min(N + 2, deepest)))
    return spec, word, N, m


@PROPERTY
@given(cloud_cases())
def test_equilibrium_potential_is_the_inner_set_solve(case):
    spec, word, N, m = case
    basis = default_basis(spec.d)
    cloud = blowup_cloud(spec, word, basis.raw[0], basis.raw[1], m=m, N=N)
    net = level_network(spec, max(N, m), root=word)
    pots, _, _ = dirichlet_solve(net, inner_set_pins(spec, word, N, net))
    # the depth-m cells in walk order, their corners found on the solved network
    cells = level_network(spec, m, root=word)
    expect = [sum(pots[net.coord_index[cells.coords[v]]] for v in ids) / (spec.d + 1) for _, ids, _ in cells.cells]
    assert cloud.e_means == expect
    assert all(0 <= e <= 1 for e in cloud.e_means)
    assert all(0 <= x <= 1 for x in pots.values())


def bits(values) -> list:
    """The float64 bit patterns of values, so that == tells every bit."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


SEEDED_CASE = (GasketSpec(2, [2, 3], {"type": "seeded", "seed": 1, "weights": {2: 1.0, 3: 1.0}}), ((1, 3),), 2, 3)


@settings(max_examples=25, deadline=None)
@given(cloud_cases(max_cells=150), st.sampled_from([0, 40, 52, 70]))
@example(SEEDED_CASE, 0)
@example(SEEDED_CASE, 40)
@example(SEEDED_CASE, 52)
@example(SEEDED_CASE, 70)
def test_cloud_is_the_fraction_chain_product(case, k):
    # in the seeded example the numerators leave int64 never (k = 0), for the
    # squares (k = 40), before the second depth (k = 52) or at the root (k = 70)
    assert_cloud_is_the_chain_product(*case, 2**k)


@pytest.mark.parametrize("case", [(GasketSpec(2, [2]), (), 2, 4), SEEDED_CASE], ids=["sg", "seeded"])
def test_cloud_floats_are_rounded_once(case):
    # 3**45 has 72 significant bits, so the points' and weights' numerators
    # are no float64s, and dividing their float64s would round twice
    assert_cloud_is_the_chain_product(*case, 3**45)


def assert_cloud_is_the_chain_product(spec, word, N, m, scale):
    """The pair is scale A_word c for the default basis c, so every leaf
    carries scale chain_matrix(word + w) c; the potential is 0 at a corner of
    the depth-N ancestor that is a corner of the word, 1 at the others, then
    A-extended."""
    d = spec.d
    Q = base_form(d)
    basis = default_basis(d)
    b1, b2 = ([scale * x for x in mat_vec(chain_matrix(spec, word), c)] for c in basis.raw[:2])
    cloud = blowup_cloud(spec, word, b1, b2, m=m, N=N)

    def product(letters):
        return reduce(lambda acc, letter: mat_mul(extension_matrices(d, letter[1]).A[letter[0] - 1], acc),
                      letters, identity(d + 1))

    pairs, e_means, masses = [], [], []
    for w, r_w, _ in iter_words(spec, m, root=word):
        v1, v2 = ([scale * x for x in mat_vec(chain_matrix(spec, word + w), c)] for c in basis.raw[:2])
        top = w[:N]
        e_top = [Fraction(0 if all(i == c + 1 for i, _ in top) else 1) for c in range(d + 1)]
        e = mat_vec(product(w[N:]), e_top)
        pairs.append((v1, v2))
        e_means.append(sum(e) / (d + 1))
        masses.append((Q(v1) + Q(v2)) / r_w)
    weights = [e * e * mass for e, mass in zip(e_means, masses)]
    alpha = 1.0 / math.sqrt(float(max(x * x + y * y for v1, v2 in pairs for x, y in zip(v1, v2))))
    points = np.array([[alpha * float(sum(v) / (d + 1)) for v in pair] for pair in pairs]).reshape(-1, 2)

    assert cloud.e_means == e_means
    assert cloud.masses == masses
    assert cloud.weights == weights
    assert bits(cloud.weights.floats) == bits([float(x) for x in weights])
    assert bits(cloud.e_means.floats) == bits([float(x) for x in e_means])
    assert cloud.total_mass == sum(weights)
    assert cloud.alpha == alpha
    assert np.array_equal(cloud.points, points)


def test_cloud_builds_no_fraction_per_cell(sg, monkeypatch):
    # the exact values stay integer numerators and denominators until read
    calls = []

    def counted(*args):
        calls.append(args)
        return Fraction(*args)

    monkeypatch.setattr(blowup, "Fraction", counted)
    basis = default_basis(2)
    built = []
    for m in (2, 5):
        calls.clear()
        cloud = blowup_cloud(sg, (), basis.raw[0], basis.raw[1], m=m)
        built.append(len(calls))
    assert cloud.n_points == 3**5 and built[1] == built[0]
    assert sum(cloud.weights) == cloud.total_mass and len(calls) == built[1] + 3**5


def test_cloud_refuses_a_depth_over_the_budget_before_building_it(sg):
    basis = default_basis(2)
    with pytest.raises(BudgetExceededError, match=r"^more than 26 words at depth 3$"):
        blowup_cloud(sg, (), basis.raw[0], basis.raw[1], m=3, budget=26)
    assert blowup_cloud(sg, (), basis.raw[0], basis.raw[1], m=3, budget=27).n_points == 27
    # depth 40 would hold 3**40 cells; its third depth is already over the budget
    with pytest.raises(BudgetExceededError, match=r"^more than 26 words at depth 40$"):
        blowup_cloud(sg, (), basis.raw[0], basis.raw[1], m=40, budget=26)
    with pytest.raises(InvalidParameterError):
        blowup_cloud(sg, (), basis.raw[0], basis.raw[1], m=3, budget=0)


def test_cloud_at_depth_0_is_the_one_cell(sg):
    basis = default_basis(2)
    cloud = blowup_cloud(sg, (), basis.raw[0], basis.raw[1], m=0, budget=1)
    assert cloud.n_points == 1 and cloud.points.shape == (1, 2)
    # depth 0 is above the inner-set depth, so the word's corners are all 0
    assert cloud.e_means == [0] and cloud.weights == [0] and cloud.total_mass == 0
