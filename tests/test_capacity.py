from dataclasses import replace
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gasketlab import capacity, gasket
from gasketlab.capacity import (
    _BLOCK,
    _SPAN,
    _corner_chain_form,
    _draws,
    _point_capacity,
    _point_target,
    _quotient_coefficients,
    a3_report,
    corner_chain_capacity,
    corner_chain_labels,
    default_inner_depth,
    inner_set_pins,
    point_capacity,
    sample_direction,
)
from gasketlab.errors import BudgetExceededError, InadmissibleWordError, InvalidParameterError, InvalidVertexError
from gasketlab.gasket import (
    DEFAULT_WORD_BUDGET,
    GasketSpec,
    _coord,
    _corner_keys,
    _denominator,
    _root_cell,
    dirichlet_solve,
    encode_word,
    enumerate_words,
    level_network,
    word_hash_unit,
)
from gasketlab.harmonic import base_form, extension_matrices
from gasketlab.subdivision import cell_count


@pytest.fixture(scope="module")
def sg():
    return GasketSpec(2, [2])


@pytest.fixture(scope="module")
def mixed():
    return GasketSpec(2, [2, 3], {"type": "seeded", "seed": 1, "weights": {2: 1.0, 3: 1.0}})


def test_default_inner_depth(sg, mixed):
    assert default_inner_depth(sg) == 4
    assert default_inner_depth(mixed) == 4
    assert default_inner_depth(GasketSpec(2, [3])) == 3


def test_inner_set_depth1_is_the_three_midpoints(sg):
    net = level_network(sg, 1)
    pins = inner_set_pins(sg, (), 1, net)
    half = Fraction(1, 2)
    inner = {net.coords[v] for v, x in pins.items() if x == 1}
    assert inner == {
        (half, half, Fraction(0)),
        (half, Fraction(0), half),
        (Fraction(0), half, half),
    }
    boundary = {net.coords[v] for v in net.boundary}
    assert boundary == {net.coords[v] for v, x in pins.items() if x == 0}
    assert not (inner & boundary)
    with pytest.raises(InvalidParameterError):
        inner_set_pins(sg, (), 0, level_network(sg, 0))
    with pytest.raises(InvalidParameterError):
        inner_set_pins(sg, (), 2, net)


def test_inner_set_corner_chains_follow_labels(mixed):
    w = ((1, mixed.label_of(())),)
    labels = corner_chain_labels(mixed, w, 2, 3)
    # the chain must be admissible step by step
    probe = w
    for l in labels:
        assert mixed.label_of(probe) == l
        probe = probe + ((2, l),)
    chains = [tuple((c, l) for l in corner_chain_labels(mixed, w, c, 3)) for c in (1, 2, 3)]
    assert len(set(chains)) == 3
    for chain in chains:
        mixed.validate_word(w + chain)
    # the chain cells are the cells of the depth-3 network whose pins are not all 1
    net = level_network(mixed, 3, root=w)
    pins = inner_set_pins(mixed, w, 3, net)
    assert {rel for rel, ids, _ in net.cells if any(pins[v] == 0 for v in ids)} == set(chains)


def test_inner_set_classification(sg):
    net3 = level_network(sg, 3)
    pins = inner_set_pins(sg, (), 2, net3)
    free = [v for v in range(net3.n_vertices) if v not in pins]
    assert set(pins.values()) == {0, 1} and free
    # the word's own corners are pinned to 0
    assert {v for v, x in pins.items() if x == 0} == set(net3.boundary)
    # a free vertex lies in a closed chain cell (every coordinate at least the
    # cell's offset) without being one of its corners
    P = _denominator(sg, 3, ())
    chains = [_root_cell(sg, tuple((c, l) for l in corner_chain_labels(sg, (), c, 2)), P) for c in (1, 2, 3)]
    for v in range(net3.n_vertices):
        key = tuple(int(x * P) for x in net3.coords[v])
        inside = any(key not in _corner_keys(cell) and all(x >= o for x, o in zip(key, cell[1])) for cell in chains)
        assert inside == (v in free)


@pytest.mark.parametrize("bad", [((5, 2),), ((1, 3),)], ids=["cell-index", "level"])
def test_corner_chain_functions_refuse_an_inadmissible_word(sg, bad):
    with pytest.raises(InadmissibleWordError):
        corner_chain_capacity(sg, bad, 2)
    with pytest.raises(InadmissibleWordError):
        corner_chain_labels(sg, bad, 1, 2)
    with pytest.raises(InadmissibleWordError):
        inner_set_pins(sg, bad, 1, replace(level_network(sg, 1), root=bad))


def test_relative_capacity_monotone_and_trace_exact(sg):
    value = corner_chain_capacity(sg, (), 4)
    assert isinstance(value, Fraction)
    # the discrete networks are exact traces, so the full solves at depths
    # 4..6 all give the one value: constant, so non-increasing
    for m in (4, 5, 6):
        net = level_network(sg, m)
        assert dirichlet_solve(net, inner_set_pins(sg, (), 4, net))[1] == value


def test_relative_capacity_scaling_is_inverse_root_weight(sg):
    word = ((1, 2), (1, 2))
    root = corner_chain_capacity(sg, (), 2)
    below = corner_chain_capacity(sg, word, 2)
    # homogeneous gasket: the root-normalized value reproduces itself below any
    # word, and the absolute value picks up the 1/r_w factor exactly
    assert below == root
    net = level_network(sg, 2, root=word)
    assert net.root_r == sg.r_of_word(word) == Fraction(9, 25)
    absolute = replace(net, edges={e: c / net.root_r for e, c in net.edges.items()})
    assert dirichlet_solve(absolute, inner_set_pins(sg, word, 2, absolute))[1] == root / net.root_r


def test_point_capacity_midpoint_oracle(sg):
    net = level_network(sg, 1)
    mid = [v for v in range(net.n_vertices) if v not in net.boundary][0]
    value = point_capacity(sg, (), mid, base_depth=1)
    assert isinstance(value, Fraction)
    # independent dense float solve on the 6-vertex level-1 network
    n = net.n_vertices
    L = np.zeros((n, n))
    for (i, j), c in net.edges.items():
        c = float(c)
        L[i, i] += c
        L[j, j] += c
        L[i, j] -= c
        L[j, i] -= c
    fixed = {mid: 1.0, **{v: 0.0 for v in net.boundary}}
    free = [v for v in range(n) if v not in fixed]
    x = np.zeros(n)
    for v, val in fixed.items():
        x[v] = val
    x[free] = np.linalg.solve(L[np.ix_(free, free)], -L[np.ix_(free, list(fixed))] @ x[list(fixed)])
    oracle = x @ L @ x
    assert abs(float(value) - oracle) < 1e-12


def test_point_capacity_validates_vertex(sg):
    net = level_network(sg, 1)
    with pytest.raises(InvalidVertexError):
        point_capacity(sg, (), net.boundary[0], base_depth=1)
    with pytest.raises(InvalidVertexError):
        point_capacity(sg, (), 10**6, base_depth=1)


def test_corner_sum_identity(sg):
    # nu_h(U) - nu_h(V) = sum of the excluded corner-cell masses, exactly
    from gasketlab.exactla import quad

    N = 2
    Q = base_form(2)
    u = [Fraction(4), Fraction(-1), Fraction(2)]
    q0 = quad(Q.M, u)
    total = Fraction(0)
    for corner in (1, 2, 3):
        labels = corner_chain_labels(sg, (), corner, N)
        fm, den = _corner_chain_form(2, corner, labels)
        total += Fraction(quad([list(r) for r in fm], u), den)
    nu_V = q0 - total
    assert nu_V > 0
    assert q0 - nu_V == total


@pytest.mark.parametrize("d", [2, 3, 4])
def test_corner_chain_form_is_the_fraction_product(d):
    # (1/r_chain) A_chain^T Q A_chain from exact matrix products, cleared to
    # integers over the lcm of its denominators
    from itertools import product

    from gasketlab.exactla import identity, mat_mul, mat_t

    Q = base_form(d)
    for corner in range(1, d + 2):
        for n in (1, 2, 3):
            for labels in product((2, 3), repeat=n):
                chain, r_chain = identity(d + 1), Fraction(1)
                for l in labels:
                    data = extension_matrices(d, l)
                    chain = mat_mul(data.A[corner - 1], chain)
                    r_chain *= data.r
                want = [[x / r_chain for x in row] for row in mat_mul(mat_t(chain), mat_mul(Q.M, chain))]
                fm, den = _corner_chain_form(d, corner, labels)
                assert den == lcm(*(x.denominator for row in want for x in row))
                assert [[Fraction(x, den) for x in row] for row in fm] == want, (corner, labels)


def test_sample_direction_is_deterministic_and_nonconstant():
    a = sample_direction(2, 0, "1^2", 3)
    b = sample_direction(2, 0, "1^2", 3)
    assert a == b
    assert len(set(a)) > 1
    assert sample_direction(2, 1, "1^2", 3) != a or sample_direction(2, 1, "1^2", 4) != a


def test_a3_report_standard_sg(sg):
    rep = a3_report(sg, 2, samples=32, seed=0, cap_words=4)
    assert rep.inequality_violations == 0
    assert rep.C_a <= 2.0 + 1e-9
    num, den = map(int, rep.worst_mass_ratio.split("/"))
    assert Fraction(num, den) <= 2
    assert rep.C_b > 0 and rep.C_c > 0
    assert rep.words_total == 9
    assert len(rep.rows) == rep.words_with_capacity * rep.samples_per_word


def test_a3_report_is_deterministic(sg):
    r1 = a3_report(sg, 2, samples=8, seed=3, cap_words=3)
    r2 = a3_report(sg, 2, samples=8, seed=3, cap_words=3)
    assert r1.to_dict() == r2.to_dict()
    assert [row.as_list() for row in r1.rows] == [row.as_list() for row in r2.rows]


@pytest.mark.parametrize("K", [0, 1])
def test_a3_report_relative_capacity_is_the_refined_solve(K, sg, mixed):
    # the report reads cap_rel from the corner-chain identity; the solve on the
    # depth-N+K network is the oracle
    for spec, m, N in ((sg, 2, 2), (mixed, 1, 2)):
        rep = a3_report(spec, m, N=N, samples=2, cap_words=3, point_samples=1)
        r_of = {encode_word(w): (w, r_w) for w, r_w, _ in enumerate_words(spec, m)}
        assert rep.rows
        for row in rep.rows:
            word, r_w = r_of[row.word]
            full = level_network(spec, N + K, root=word)
            solved = dirichlet_solve(full, inner_set_pins(spec, word, N, full))[1]
            assert row.cap_rel == float(solved) * (1.0 / float(r_w))


def test_a3_scaling_covariance_on_homogeneous_spec(sg):
    # self-similarity: the constants reproduce across depths because every
    # root-normalized capacity below a word equals the root's
    shallow = a3_report(sg, 2, samples=16, seed=0, cap_words=6)
    deeper = a3_report(sg, 3, samples=16, seed=0, cap_words=6)
    assert abs(shallow.C_b - deeper.C_b) < 1e-9
    assert abs(shallow.C_c - deeper.C_c) < 1e-9


# --- properties across dimensions, level sets and seeded labelings -------------

PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def inner_set_cases(draw):
    """(spec, word, N, K) with networks of at most ~1,500 cells below the word."""
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
    deepest = 3 if d == 3 else 4
    while widest**deepest > 1500:
        deepest -= 1
    N = draw(st.integers(1, min(3, deepest)))
    K = draw(st.integers(0, min(1, deepest - N)))
    return spec, word, N, K


@PROPERTY
@given(inner_set_cases())
def test_relative_capacity_is_the_corner_chain_sum_at_every_refinement(case):
    # every refinement's value is the one sum; the full solves at depths
    # N..N+K check it in test_relative_capacity_is_the_full_network_solve
    spec, word, N, _ = case
    expect = Fraction(0)
    for corner in range(1, spec.d + 2):
        r_chain = Fraction(1)
        for l in corner_chain_labels(spec, word, corner, N):
            r_chain *= extension_matrices(spec.d, l).r
        expect += spec.d / r_chain
    value = corner_chain_capacity(spec, word, N)
    assert isinstance(value, Fraction) and value == expect


@PROPERTY
@given(inner_set_cases())
def test_relative_capacity_is_the_full_network_solve(case):
    # the network reduced to the corner chains gives the full network's
    # exact energy at every refinement
    spec, word, N, K = case
    value = corner_chain_capacity(spec, word, N)
    for k in range(K + 1):
        full = level_network(spec, N + k, root=word)
        assert value == dirichlet_solve(full, inner_set_pins(spec, word, N, full))[1]
    assert spec.r_of_word(word) == full.root_r


@PROPERTY
@given(inner_set_cases())
def test_depth_n_pins_fix_every_vertex_but_the_word_corners_to_one(case):
    spec, word, N, _ = case
    net = level_network(spec, N, root=word)
    pins = inner_set_pins(spec, word, N, net)
    corners = set(net.boundary)
    assert pins == {v: Fraction(0 if v in corners else 1) for v in range(net.n_vertices)}


def keyed_inner_set_pins(spec, word, N, net):
    """`inner_set_pins` by vertex keys: each chain cell composed over the
    network's denominator, its corners looked up among the coordinates."""
    P = _denominator(spec, net.depth, word)
    pins, chains = {}, set()
    for corner in range(1, spec.d + 2):
        chain = tuple((corner, l) for l in corner_chain_labels(spec, word, corner, N))
        chains.add(chain)
        for key in _corner_keys(_root_cell(spec, word + chain, P)):
            pins[net.coord_index[_coord(key, P)]] = Fraction(1)
    for rel, ids, _ in net.cells:
        if rel[:N] not in chains:
            pins.update(dict.fromkeys(ids, Fraction(1)))
    pins.update(dict.fromkeys(net.boundary, Fraction(0)))
    return pins


@PROPERTY
@given(inner_set_cases(), st.integers(0, 2))
@example(case=(GasketSpec(2, [2]), (), 1, 0), extra=2)
@example(case=(GasketSpec(3, [2, 3], {"type": "seeded", "seed": 7, "weights": {2: 1.0, 3: 1.0}}), ((2, 2),), 1, 0),
         extra=1)
def test_inner_set_pins_are_the_keyed_chain_corners(case, extra):
    # a chain cell's corner k is read off the network cell below it whose
    # letters past the chain are all k + 1; the keyed lookup is the oracle
    spec, word, N, _ = case
    widest = max(cell_count(spec.d, l) for l in spec.levels)
    while extra and widest ** (N + extra) > 1500:
        extra -= 1
    net = level_network(spec, N + extra, root=word)
    assert inner_set_pins(spec, word, N, net) == keyed_inner_set_pins(spec, word, N, net)


@st.composite
def point_cases(draw):
    """(spec, word, vertex, base_depth, K) with full networks of at most ~400
    cells below the word and a vertex that is not one of the word's corners."""
    d = draw(st.sampled_from([2, 3]))
    levels = sorted(draw(st.lists(st.sampled_from([2, 3, 4] if d == 2 else [2, 3]), min_size=1, unique=True)))
    if draw(st.booleans()):
        weights = {l: float(draw(st.integers(1, 3))) for l in levels}
        labeling = {"type": "seeded", "seed": draw(st.integers(0, 2**32)), "weights": weights}
    else:
        # entries on admissible words, so that they are reached
        default = draw(st.sampled_from(levels))
        entries = {}
        for _ in range(draw(st.integers(0, 4))):
            entry = ()
            for _ in range(draw(st.integers(0, 2))):
                l = entries.get(encode_word(entry), default)
                entry += ((draw(st.integers(1, cell_count(d, l))), l),)
            entries.setdefault(encode_word(entry), draw(st.sampled_from(levels)))
        labeling = {"type": "explicit", "entries": entries, "default": default}
    spec = GasketSpec(d, levels, labeling)
    word = ()
    for _ in range(draw(st.integers(0, 2))):
        l = spec.label_of(word)
        word += ((draw(st.integers(1, cell_count(d, l))), l),)
    K = draw(st.integers(0, 1))
    widest = max(cell_count(d, l) for l in levels)
    deepest = 1
    while widest ** (deepest + 1) <= 400:
        deepest += 1
    base_depth = draw(st.integers(1, max(1, deepest - K)))
    base = level_network(spec, base_depth, root=word)
    vertex = draw(st.sampled_from([v for v in range(base.n_vertices) if v not in base.boundary]))
    return spec, word, vertex, base_depth, K


@PROPERTY
@given(point_cases())
def test_point_capacity_is_the_full_network_solve(case):
    # the value is every full depth-(base_depth + k) solve's exact energy,
    # the vertex pinned to 1 and the word's corners to 0
    spec, word, vertex, base_depth, K = case
    value = point_capacity(spec, word, vertex, base_depth)
    assert isinstance(value, Fraction)
    coord = level_network(spec, base_depth, root=word).coords[vertex]
    for k in range(K + 1):
        full = level_network(spec, base_depth + k, root=word)
        pins = {**dict.fromkeys(full.boundary, Fraction(0)), full.coord_index[coord]: Fraction(1)}
        assert value == dirichlet_solve(full, pins)[1]


@pytest.mark.parametrize(
    "spec, word, N",
    [
        (GasketSpec(2, [2]), (), 4),
        (GasketSpec(2, [2, 3], {"type": "seeded", "seed": 1, "weights": {2: 1.0, 3: 1.0}}), ((1, 3),), 3),
        (GasketSpec(3, [2]), (), 3),
    ],
    ids=["sg-N4", "seeded-d2-T23-below-1^3-N3", "d3-T2-N3"],
)
def test_the_descent_is_the_full_network_solve_at_every_inner_vertex(spec, word, N):
    # each target is the corner of the first cell of the walk that holds it
    net = level_network(spec, N, root=word)
    first = {}
    for rel, ids, _ in net.cells:
        for j, v in enumerate(ids):
            first.setdefault(v, (rel, j))
    for v in set(range(net.n_vertices)) - set(net.boundary):
        target = _point_target(spec, word, v, N, DEFAULT_WORD_BUDGET)
        assert target == first[v], v
        pins = {**dict.fromkeys(net.boundary, Fraction(0)), v: Fraction(1)}
        assert _point_capacity(spec, *target) == dirichlet_solve(net, pins)[1], v


def _first_depths(spec, word, N):
    """Each inner vertex id of the depth-N network below the word, with the
    smallest depth k whose network below the word holds its coordinates."""
    net = level_network(spec, N, root=word)
    depth = {v: N for v in range(net.n_vertices) if v not in net.boundary}
    for k in reversed(range(1, N)):
        for coord in level_network(spec, k, root=word).coords:
            if net.coord_index[coord] in depth:
                depth[net.coord_index[coord]] = k
    return depth


@pytest.mark.parametrize(
    "spec, word, N",
    [
        (GasketSpec(2, [2]), (), 4),
        (GasketSpec(2, [2, 3], {"type": "seeded", "seed": 1, "weights": {2: 1.0, 3: 1.0}}), ((1, 3),), 3),
        (GasketSpec(3, [2]), (), 3),
    ],
    ids=["sg-N4", "seeded-d2-T23-below-1^3-N3", "d3-T2-N3"],
)
def test_the_descent_stops_where_the_vertex_first_appears(spec, word, N, monkeypatch):
    # one elimination per cell above the vertex's first depth: a trace at
    # each cell it passes, then the conductance at the last
    calls = []

    def count(*args):
        calls.append(args)
        return real(*args)

    real = capacity.eliminate
    monkeypatch.setattr(capacity, "eliminate", count)
    for v, k in _first_depths(spec, word, N).items():
        calls.clear()
        point_capacity(spec, word, v, N)
        assert len(calls) == k, v


@pytest.mark.parametrize(
    "spec, word, N",
    [
        (GasketSpec(2, [2]), (), 3),
        (GasketSpec(2, [2, 3], {"type": "seeded", "seed": 1, "weights": {2: 1.0, 3: 1.0}}), ((1, 3),), 3),
        (GasketSpec(3, [2]), (), 2),
    ],
    ids=["sg-N3", "seeded-d2-T23-below-1^3-N3", "d3-T2-N2"],
)
def test_point_key_refuses_exactly_the_corner_ids(spec, word, N):
    # every id of the network: a corner of the word is refused, and any
    # other id is the cell corner whose key is its coordinates times P
    net = level_network(spec, N, root=word)
    P = _denominator(spec, N, word)
    for v in range(net.n_vertices):
        if v in net.boundary:
            with pytest.raises(InvalidVertexError, match="must not be a corner of the word"):
                _point_target(spec, word, v, N, DEFAULT_WORD_BUDGET)
        else:
            letters, j = _point_target(spec, word, v, N, DEFAULT_WORD_BUDGET)
            want = tuple(int(x * P) for x in net.coords[v])
            assert _corner_keys(_root_cell(spec, word + letters, P))[j] == want, v


@pytest.mark.parametrize(
    "spec, m, N",
    [
        (GasketSpec(2, [2, 3], {"type": "seeded", "seed": 1, "weights": {2: 1.0, 3: 1.0}}), 2, None),
        (GasketSpec(3, [2]), 2, 3),
    ],
    ids=["seeded-d2-T23-depth2", "d3-T2-depth2-N3"],
)
def test_a3_point_samples_are_the_equispaced_non_corner_ids(spec, m, N, monkeypatch):
    # with every word picked, the samples of each word are the
    # (j * n_inner) // pcount-th ids of its depth-N network that are not its corners
    recorded = []

    def descend(spec, letters, j):
        recorded.append((letters, j))
        return real(spec, letters, j)

    real = capacity._point_capacity
    monkeypatch.setattr(capacity, "_point_capacity", descend)
    N = default_inner_depth(spec) if N is None else N
    inner = {}
    P = _denominator(spec, m + N, ())  # of every depth-N network below a depth-m word
    for word, *_ in enumerate_words(spec, m):
        net = level_network(spec, N, root=word)
        ids = [v for v in range(net.n_vertices) if v not in net.boundary]
        inner[word] = [tuple(int(x * P) for x in net.coords[v]) for v in ids]
    for point_samples in (1, 3, 7):
        recorded.clear()
        a3_report(spec, m, N, samples=1, cap_words=10**6, point_samples=point_samples)
        want = [
            (word, keys[(j * len(keys)) // min(point_samples, len(keys))])
            for word, keys in inner.items()
            for j in range(min(point_samples, len(keys)))
        ]
        assert len(recorded) == len(want)
        got = [
            (word, _corner_keys(_root_cell(spec, word + letters, P))[j])
            for (word, _), (letters, j) in zip(want, recorded)
        ]
        assert got == want


def _refuse_networks(monkeypatch):
    """Make every network build and every solve fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("built or solved a network")

    for name in ("level_network", "dirichlet_solve"):
        monkeypatch.setattr(gasket, name, refuse)
        monkeypatch.setattr(capacity, name, refuse, raising=False)


def test_point_capacity_solves_only_reduced_networks(sg, monkeypatch):
    # the label counts find the depth-6 vertex and one descent of exterior
    # traces gives its value: the reduced network is never built or solved
    want = {v: point_capacity(sg, (), v, base_depth=6) for v in (5, 100)}
    _refuse_networks(monkeypatch)
    for vertex in (5, 100):
        value = point_capacity(sg, (), vertex, base_depth=6)
        assert isinstance(value, Fraction) and value == want[vertex]


def test_relative_capacity_builds_and_solves_nothing(sg, mixed, monkeypatch):
    _refuse_networks(monkeypatch)
    corner_chain_capacity(sg, (), 4)
    corner_chain_capacity(mixed, ((2, 3), (1, 3)), 3)


def test_a3_point_samples_solve_only_reduced_networks(mixed, monkeypatch):
    # no depth-N network at all: the point samples are numbered by the vertex
    # walk and each takes one descent
    N = default_inner_depth(mixed)
    want = a3_report(mixed, 3, samples=2, cap_words=1, point_samples=3)
    _refuse_networks(monkeypatch)
    descents = []

    def descend(spec, letters, j):
        descents.append((letters, j))
        return real(spec, letters, j)

    real = capacity._point_capacity
    monkeypatch.setattr(capacity, "_point_capacity", descend)
    assert a3_report(mixed, 3, samples=2, cap_words=1, point_samples=3) == want
    assert [len(letters) for letters, _ in descents] == [N] * 3


def test_the_capacity_words_come_before_any_sample(mixed, monkeypatch):
    # each capacity word's constants are taken before the sampling loop, so
    # a refused depth-N network draws no sample
    draws = []

    def refuse(*args):
        raise BudgetExceededError("refused")

    def count(*args):
        draws.append(args)
        return real(*args)

    real = capacity._draws
    monkeypatch.setattr(capacity, "vertex_numbering", refuse)
    monkeypatch.setattr(capacity, "_draws", count)
    with pytest.raises(BudgetExceededError, match="^refused$"):
        a3_report(mixed, 2, samples=4, cap_words=2)
    assert draws == []


def test_a_capacity_past_float_range_is_refused_before_the_descents(monkeypatch):
    # a level-6 corner chain of depth 640 has 1/r_chain past float range;
    # its depth-640 network is counted, and cap_rel refused, before any
    # point descent, which would take minutes at that depth
    def descend(*args):
        raise AssertionError("descended")

    monkeypatch.setattr(capacity, "_point_capacity", descend)
    with pytest.raises(InvalidParameterError, match="^the capacities below a word are too large for floating point$"):
        a3_report(GasketSpec(2, [6]), 0, N=640, samples=1, cap_words=1, point_samples=1, budget=21**700)


@pytest.mark.parametrize("cap_words", [1, 10**6], ids=["one-word", "every-word"])
def test_a3_report_walks_each_words_corner_chains_once(cap_words, mixed, monkeypatch):
    # the mass inequality and a picked word's cap_rel read the same chain
    # record, so no picked word walks its chains again
    walked = []

    def chain_labels(*args):
        walked.append(args)
        return real(*args)

    real = capacity._chain_labels
    monkeypatch.setattr(capacity, "_chain_labels", chain_labels)
    rep = a3_report(mixed, 3, samples=2, cap_words=cap_words, point_samples=1)
    assert rep.words_with_capacity == min(cap_words, rep.words_total)
    assert len(walked) == (mixed.d + 1) * rep.words_total == 369


@pytest.mark.parametrize("corner", [-1, 0, 4, 9])
def test_corner_chain_labels_refuse_a_corner_outside_1_to_d_plus_1(corner, mixed):
    with pytest.raises(InvalidParameterError, match=r"^corner must be in 1\.\.3$"):
        corner_chain_labels(mixed, (), corner, 3)


@pytest.mark.parametrize("corner", [1, 2, 3])
def test_corner_chain_labels_follow_the_chain_words_labels(corner, mixed):
    word, labels = ((2, mixed.label_of(())),), []
    for _ in range(5):
        labels.append(mixed.label_of(word + tuple((corner, l) for l in labels)))
    assert corner_chain_labels(mixed, word, corner, 5) == tuple(labels)


# --- the exact sampling loop --------------------------------------------------


@st.composite
def direction_cases(draw):
    """(d, seed, word texts, start, stop) over negative seeds, seeds past
    2**64, the words of seeded labelings, 1- to 4-digit sample indices and
    ranges that start mid-block, as the sampling loop's blocks do."""
    d = draw(st.sampled_from([2, 3]))
    seed = draw(st.one_of(st.integers(-(2**70), -1), st.integers(0, 2**32), st.integers(2**64, 2**70)))
    spec = GasketSpec(d, [2, 3], {"type": "seeded", "seed": draw(st.integers(0, 2**32)), "weights": {2: 1.0, 3: 1.0}})
    texts = []
    for _ in range(draw(st.integers(1, 3))):
        word = ()
        for _ in range(draw(st.integers(0, 3))):
            l = spec.label_of(word)
            word += ((draw(st.integers(1, cell_count(d, l))), l),)
        texts.append(encode_word(word))
    start = draw(st.one_of(st.just(0), st.sampled_from([9, 95, 99, 100, _BLOCK - 1, _BLOCK]), st.integers(0, 1200)))
    return d, seed, texts, start, start + draw(st.integers(1, 150))


@PROPERTY
@given(direction_cases())
def test_prefix_hashed_directions_are_sample_direction(case):
    d, seed, texts, start, stop = case
    drawn = _draws(d, seed, texts, start, stop)
    assert drawn.dtype == np.int64 and drawn.shape == (len(texts), stop - start, d + 1)
    assert drawn.tolist() == [[sample_direction(d, seed, text, idx) for idx in range(start, stop)] for text in texts]


def test_a_constant_first_draw_is_retried():
    # found by search: the attempt-0 draw of sample 20 of "1^2" under seed 19
    # is constant, so the array draws must take sample_direction's retry
    d, seed, text, idx = 2, 19, "1^2", 20
    first = [int(word_hash_unit(seed, f"{text}|{idx}|{k}") * (2 * _SPAN + 1)) - _SPAN for k in range(d + 1)]
    assert len(set(first)) == 1
    drawn = _draws(d, seed, ["1^3", text], idx - 3, idx + 1)[1, 3].tolist()
    assert drawn == sample_direction(d, seed, text, idx) and len(set(drawn)) > 1


@st.composite
def chain_form_cases(draw):
    """(d, a corner-chain form or the base form Q as a matrix, u)."""
    d = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        M = [[int(x) for x in row] for row in base_form(d).M]
    else:
        corner = draw(st.integers(1, d + 1))
        labels = tuple(draw(st.lists(st.sampled_from([2, 3, 4]), min_size=1, max_size=4)))
        M = [list(row) for row in _corner_chain_form(d, corner, labels)[0]]
    u = draw(st.lists(st.integers(-(2 * _SPAN + 1), 2 * _SPAN + 1), min_size=d + 1, max_size=d + 1))
    return d, M, u


@PROPERTY
@given(chain_form_cases())
def test_the_forms_vanish_on_constants_and_live_on_the_quotient(case):
    # the sampling loop takes every form on x = u[1:] - u[0]; that is exact
    # only because Q and each corner-chain form are symmetric with zero row sums
    d, M, u = case
    assert all(sum(row) == 0 for row in M)
    assert M == [list(col) for col in zip(*M)]
    iu, ju = np.triu_indices(d)
    x = [v - u[0] for v in u[1:]]
    coefficients = _quotient_coefficients(M, iu, ju)
    assert sum(c * x[i] * x[j] for c, i, j in zip(coefficients, iu, ju)) == _int_quad(M, u)


@pytest.mark.parametrize("block", [1, 5, 24, 48])
def test_blocks_of_any_size_give_the_same_report(block, mixed, monkeypatch):
    # 12 samples cross the 1- to 2-digit boundary; blocks of 1 and 5 split
    # each word's samples, and blocks of 24 and 48 hold 2 and 4 of the 30
    # words, the last one 2
    want = a3_report(mixed, 2, samples=12, seed=-3, cap_words=9, point_samples=1)
    monkeypatch.setattr(capacity, "_BLOCK", block)
    got = a3_report(mixed, 2, samples=12, seed=-3, cap_words=9, point_samples=1)
    assert got.to_dict() == want.to_dict() and got.rows == want.rows


def _int_quad(m, u) -> int:
    """u^T m u in Python ints."""
    return sum(ui * sum(row[j] * u[j] for j in range(len(u))) for ui, row in zip(u, m))


def mass_inequality_reference(spec, m, samples, seed, cap_words):
    """(violations, worst nu_U / nu_V as "p/q", {(word, sample): (nu_U, nu_V)}
    of the rows) with every direction from sample_direction, every corner form
    applied on its own, and nu_V and the ratio as Fractions."""
    d, N = spec.d, default_inner_depth(spec)
    QI = [[int(x) for x in row] for row in base_form(d).M]
    words = enumerate_words(spec, m)
    count = min(cap_words, len(words))
    picks = {(j * len(words)) // count for j in range(count)}
    violations, worst, rows = 0, Fraction(0), {}
    for w_idx, (word, r_w, _) in enumerate(words):
        text = encode_word(word)
        forms = [_corner_chain_form(d, c, corner_chain_labels(spec, word, c, N)) for c in range(1, d + 2)]
        L = lcm(*(den for _, den in forms))
        for s_idx in range(samples):
            u = sample_direction(d, seed, text, s_idx)
            q0 = _int_quad(QI, u)
            corner_total = sum(_int_quad(fm, u) * (L // den) for fm, den in forms)
            if 2 * corner_total > q0 * L:
                violations += 1
            nu_V = Fraction(q0) - Fraction(corner_total, L)
            if nu_V > 0 and Fraction(q0) / nu_V > worst:
                worst = Fraction(q0) / nu_V
            if w_idx in picks:
                inv_r = 1.0 / float(r_w)
                rows[text, s_idx] = (2.0 * q0 * inv_r, 2.0 * float(nu_V) * inv_r)
    return violations, f"{worst.numerator}/{worst.denominator}", rows


@pytest.mark.parametrize(
    "spec, m, samples, seed, cap_words",
    [
        (GasketSpec(2, [2]), 3, 16, 42, 3),
        (GasketSpec(2, [2, 3], {"type": "seeded", "seed": 1, "weights": {2: 1.0, 3: 1.0}}), 3, 32, 0, 2),
        (GasketSpec(3, [2]), 2, 32, 5, 1),
    ],
    ids=["standard", "seeded-d2-T23", "d3-T2"],
)
def test_mass_inequality_is_the_fraction_reference(spec, m, samples, seed, cap_words):
    rep = a3_report(spec, m, samples=samples, seed=seed, cap_words=cap_words, point_samples=1)
    violations, worst, rows = mass_inequality_reference(spec, m, samples, seed, cap_words)
    assert rep.inequality_violations == violations
    assert rep.worst_mass_ratio == worst
    assert {(row.word, row.sample_id): (row.nu_U, row.nu_V) for row in rep.rows} == rows
