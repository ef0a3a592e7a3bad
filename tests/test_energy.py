from dataclasses import fields
from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketlab import energy
from gasketlab.capacity import corner_decay_N
from gasketlab.errors import BudgetExceededError, DegenerateBasisError, InvalidParameterError, NotFoundError
from gasketlab.energy import (
    CellEnergyMatrix,
    _depth_scan,
    basis_from_vectors,
    cell_energy_matrix,
    contraction_check,
    default_basis,
    index_estimate,
    kusuoka_distribution,
)
from gasketlab.exactla import det, is_psd, mat_vec
from gasketlab.gasket import GasketSpec
from gasketlab.harmonic import (
    base_form,
    extension_matrices,
    ones_vector,
    principal_vector,
    secondary_vectors,
    theta,
)


@pytest.fixture(scope="module")
def sg():
    return GasketSpec(2, [2])


def test_default_basis_is_q_orthogonal_unit_mass(sg):
    basis = default_basis(2)
    Q = base_form(2)
    assert Q(basis.raw[0], basis.raw[1]) == 0
    cols = basis.float_columns()
    QM = np.array([[float(x) for x in row] for row in Q.M])
    gram = cols.T @ QM @ cols
    assert np.allclose(gram, 0.5 * np.eye(2), atol=1e-14)


def test_cell_matrix_root_scalar_block(sg):
    # with Q(u,u) = 1/2 the total energy mass of the cell is exactly 1
    u = [Fraction(1, 2), Fraction(0), Fraction(0)]
    rec = cell_energy_matrix(sg, (), [u])
    assert rec.B == [[Fraction(1)]]
    assert rec.nu_mass == 1


def test_cell_matrix_constant_direction_rejected(sg):
    with pytest.raises(DegenerateBasisError):
        cell_energy_matrix(sg, (), [[Fraction(3), Fraction(3), Fraction(3)]])


def test_cell_matrix_eigen_direction_scales_by_r(sg):
    v1 = principal_vector(2, 1)
    root = cell_energy_matrix(sg, (), [v1])
    child = cell_energy_matrix(sg, ((1, 2),), [v1])
    assert child.nu_mass == Fraction(3, 5) * root.nu_mass


def test_cell_matrices_are_psd_exactly(sg):
    basis = [[Fraction(1), Fraction(0), Fraction(0)], [Fraction(0), Fraction(1), Fraction(0)]]
    for word in [(), ((1, 2),), ((2, 2), (3, 2)), ((3, 2), (1, 2), (2, 2))]:
        rec = cell_energy_matrix(sg, word, basis)
        assert is_psd(rec.B)
        assert rec.nu_mass >= 0


def test_kusuoka_mass_conservation_and_refinement_additivity(sg):
    for m in (0, 1, 2, 3):
        cells = kusuoka_distribution(sg, m)
        assert sum(c.nu_mass for c in cells) == 1
    # the three depth-1 corner records sum exactly to the depth-0 trace
    root = kusuoka_distribution(sg, 0)[0]
    depth1 = kusuoka_distribution(sg, 1)
    assert sum(c.nu_mass for c in depth1) == root.nu_mass
    # exact matrix additivity for an explicit rational basis
    basis = [[Fraction(1), Fraction(0), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]
    parent = cell_energy_matrix(sg, ((2, 2),), basis)
    kids = [cell_energy_matrix(sg, ((2, 2), (i, 2)), basis) for i in (1, 2, 3)]
    for a in range(2):
        for b in range(2):
            assert parent.B[a][b] == sum(k.B[a][b] for k in kids)


def test_cell_records_hold_exact_fields_and_take_no_eigenvalues(sg, monkeypatch):
    # only the rank scan takes eigenvalues; a record is its word, B and mass
    assert [f.name for f in fields(CellEnergyMatrix)] == ["word", "B", "nu_mass"]

    def refuse(*args, **kwargs):
        raise AssertionError("a cell record took eigenvalues")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    seeded = GasketSpec(2, [2, 3], {"type": "seeded", "seed": 1, "weights": {2: 1.0, 3: 1.0}})
    for basis in (None, [[1, 0, 0], [0, Fraction(1, 2), 0]]):
        for spec in (sg, seeded):
            cells = kusuoka_distribution(spec, 2, basis)
            assert all(isinstance(c.nu_mass, Fraction) for c in cells)
            assert cell_energy_matrix(spec, cells[-1].word, basis) == cells[-1]


def test_index_estimate_depth0_full_rank(sg):
    rep = index_estimate(sg, 0)
    assert rep.estimated_index == 2
    assert rep.histogram == {2: 1.0}
    assert rep.mean_ratio_trend == []


def test_index_estimate_standard_sg(sg):
    rep = index_estimate(sg, 9, eps=1e-8, delta=1e-3)
    # every cell still carries a second eigenvalue above eps up to depth 8
    # (the fastest corner chains contract the ratio by 1/9 per step), so the
    # all-but-delta rank first drops to 1 at depth 9
    assert rep.estimated_index == 1
    assert rep.cells_at_depth == 3**9
    assert all(0.0 <= x <= 1.0 for x in rep.max_ratio_trend)
    mt = rep.mean_ratio_trend
    assert all(mt[i + 1] <= mt[i] for i in range(1, len(mt) - 1))
    assert sum(rep.histogram.values()) == pytest.approx(1.0, abs=1e-12)
    shallow = index_estimate(sg, 6, eps=1e-8, delta=1e-3)
    assert shallow.estimated_index == 2


def test_index_estimate_validates_inputs(sg):
    with pytest.raises(InvalidParameterError):
        index_estimate(sg, 3, eps=2.0)
    with pytest.raises(InvalidParameterError):
        index_estimate(sg, 3, delta=0.0)
    with pytest.raises(DegenerateBasisError):
        index_estimate(sg, 2, basis=[[1, 1, 1], [1, 0, 0]])
    for budget in (0, -1):
        for m in (0, 2):
            with pytest.raises(InvalidParameterError, match=f"^budget must be >= 1, got {budget}$"):
                index_estimate(sg, m, budget=budget)


def test_depth_scan_refuses_a_depth_over_budget_before_building_it(monkeypatch):
    spec = GasketSpec(2, [2, 3], {"type": "seeded", "seed": 1, "weights": {2: 1.0, 3: 1.0}})
    basis = default_basis(2)
    cells = [len(w) for _, _, w in _depth_scan(spec, 3, basis, 10**7)]
    assert len(list(_depth_scan(spec, 2, basis, cells[1]))) == 2  # exactly at the budget is allowed
    calls = []
    for name in ("_child_chains", "_cell_energies"):
        kernel = getattr(energy, name)
        monkeypatch.setattr(energy, name, lambda *args, kernel=kernel: calls.append(kernel) or kernel(*args))
    scan = _depth_scan(spec, 3, basis, cells[1] - 1)
    next(scan)
    built = len(calls)
    assert built > 0
    with pytest.raises(BudgetExceededError, match=f"^more than {cells[1] - 1} cells at depth 2$"):
        next(scan)
    assert len(calls) == built  # no contraction ran for the refused depth


def test_corner_decay_trivial_target(sg):
    assert corner_decay_N(sg, Fraction(999, 1000)) == 1
    with pytest.raises(InvalidParameterError):
        corner_decay_N(sg, Fraction(1))
    with pytest.raises(InvalidParameterError):
        corner_decay_N((2, ()), Fraction(1, 2))
    with pytest.raises(NotFoundError):
        corner_decay_N(sg, Fraction(1, 10**9), max_N=2)


def test_corner_decay_matches_float_generalized_eigenvalue_oracle(sg):
    from itertools import combinations_with_replacement

    from scipy.linalg import eigh

    # independent oracle: scan N with float generalized eigenvalues
    Q = base_form(2)

    def float_sup(labels):
        frame = [principal_vector(2, 1)] + secondary_vectors(2, 1)
        G = np.array([[float(Q(a, b)) for b in frame] for a in frame])
        r_c, s_c = 1.0, 1.0
        for l in labels:
            data = extension_matrices(2, l)
            r_c *= float(data.r)
            s_c *= float(data.s)
        D = np.diag([r_c, s_c])
        return eigh(D @ G @ D, r_c * G, eigvals_only=True)[-1]

    c = 1.0 / 6.0
    oracle_N = None
    for N in range(1, 12):
        if all(float_sup(labels) <= c + 1e-12 for labels in combinations_with_replacement((2,), N)):
            oracle_N = N
            break
    assert oracle_N == corner_decay_N(sg, Fraction(1, 6)) == 4
    mixed = GasketSpec(2, [2, 3], {"type": "seeded", "seed": 1, "weights": {2: 1.0, 3: 1.0}})
    assert corner_decay_N(mixed, Fraction(1, 6)) == 4  # the all-2 chain is worst


def test_corner_chain_sup_matches_generalized_eigh():
    from itertools import combinations_with_replacement

    from scipy.linalg import eigh

    # the top generalized eigenvalue of (D G D, r_chain G) is r_chain itself
    for d in (2, 3, 4):
        Q = base_form(d)
        for corner in range(1, d + 2):
            frame = [principal_vector(d, corner)] + secondary_vectors(d, corner)
            G = np.array([[float(Q(a, b)) for b in frame] for a in frame])
            for N in (1, 2):
                for labels in combinations_with_replacement((2, 3), N):
                    r_chain = prod(extension_matrices(d, l).r for l in labels)
                    r_c = float(r_chain)
                    s_c = float(np.prod([float(extension_matrices(d, l).s) for l in labels]))
                    D = np.diag([r_c] + [s_c] * (d - 1))
                    expect = eigh(D @ G @ D, r_c * G, eigvals_only=True)[-1]
                    assert expect == pytest.approx(float(r_chain), rel=1e-12)
    # the failure message names the worst sup of the longest chains tried,
    # that of the all-2 chain
    frame = [principal_vector(2, 1)] + secondary_vectors(2, 1)
    G = np.array([[float(base_form(2)(a, b)) for b in frame] for a in frame])
    data = extension_matrices(2, 2)
    r_c = float(data.r) ** 2
    D = np.diag([r_c, float(data.s) ** 2])
    worst = eigh(D @ G @ D, r_c * G, eigvals_only=True)[-1]
    assert worst == pytest.approx(float(data.r**2), rel=1e-12)
    with pytest.raises(NotFoundError, match=rf"worst sup at N=2 is {worst:.6g}$"):
        corner_decay_N((2, (2, 3)), Fraction(1, 10**9), max_N=2)


def _chain_ok_on_frame(d, corner, labels, c):
    """Exact oracle: sup_u Q(A u, A u) / (r_chain Q(u, u)) <= c over
    nonconstant u, as PSD-ness of c r_chain G - G_A on the adapted frame,
    with G_A the Gram matrix of the frame carried through the chain."""
    Q = base_form(d)
    frame = [principal_vector(d, corner)] + secondary_vectors(d, corner)
    moved = [list(f) for f in frame]
    r_chain = Fraction(1)
    for l in labels:
        data = extension_matrices(d, l)
        moved = [mat_vec(data.A[corner - 1], f) for f in moved]
        r_chain *= data.r
    M = [[c * r_chain * Q(a, b) - Q(x, y) for b, y in zip(frame, moved)] for a, x in zip(frame, moved)]
    return is_psd(M)


@pytest.mark.parametrize("d", [2, 3])
def test_corner_decay_matches_exact_psd_scan(d):
    from itertools import combinations_with_replacement

    for levels in ((2,), (3,), (2, 3), (2, 3, 4)):
        for c in (Fraction(1, 2), Fraction(1, 6), Fraction(1, 2 * (d + 1)), Fraction(1, 20)):
            expect = next(
                N
                for N in range(1, 12)
                if all(
                    _chain_ok_on_frame(d, corner, labels, c)
                    for corner in range(1, d + 2)
                    for labels in combinations_with_replacement(levels, N)
                )
            )
            assert corner_decay_N((d, levels), c) == expect, (levels, c)


def test_corner_decay_finite_for_required_dimension_range():
    for d in (2, 3):
        for levels in ([2], [2, 3], [2, 3, 4]):
            c = Fraction(1, 2 * (d + 1))
            n = corner_decay_N((d, tuple(levels)), c)
            assert 1 <= n <= 64


def test_one_step_eigen_direction_ratio_is_exactly_r(sg):
    Q = base_form(2)
    data = extension_matrices(2, 2)
    v = principal_vector(2, 1)
    av = [sum(row[j] * v[j] for j in range(3)) for row in data.A[0]]
    assert Q(av) / (data.r * Q(v)) == data.r


def test_contraction_check_eigen_directions(sg):
    v1 = principal_vector(2, 1)
    curve = contraction_check(2, 1, [2, 2, 2], v1)
    assert all(sq == 0 for sq in curve.residual_sq_exact)
    ones = [Fraction(1)] * 3
    curve = contraction_check(2, 1, [2, 2], ones)
    assert all(sq == 0 for sq in curve.residual_sq_exact)
    y = secondary_vectors(2, 1)[0]
    curve = contraction_check(2, 1, [2, 2, 2, 2], y)
    th = theta(2, [2])
    norm_sq = sum(x * x for x in y)
    for n, sq in enumerate(curve.residual_sq_exact, start=1):
        assert sq == th ** (2 * n) * norm_sq


def test_contraction_uniform_bound_over_label_sequences():
    # one K (the secondary component's norm) bounds every label sequence
    from itertools import product

    u = [Fraction(5), Fraction(-3), Fraction(1)]
    for tau in product((2, 3), repeat=4):
        curve = contraction_check(2, 1, list(tau), u)
        th = theta(2, (2, 3))
        for n, sq in enumerate(curve.residual_sq_exact, start=1):
            assert sq <= th ** (2 * n) * curve.K_sq_exact


def _secondary_norm_sq_by_cramer(d, corner, u):
    """|P y|^2 for the secondary component y of u, solving u = a 1 + b v_i +
    sum c_j y_j by Cramer's rule."""
    frame = [ones_vector(d), principal_vector(d, corner)] + secondary_vectors(d, corner)
    cols = [list(row) for row in zip(*frame)]
    full = det(cols)
    y = [Fraction(0)] * (d + 1)
    for j in range(2, d + 1):
        swapped = [row[:j] + [x] + row[j + 1 :] for row, x in zip(cols, u)]
        coef = det(swapped) / full
        y = [a + coef * b for a, b in zip(y, frame[j])]
    mean = sum(y) / len(y)
    return sum((x - mean) ** 2 for x in y)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_contraction_K_matches_the_frame_solve(data):
    d = data.draw(st.integers(2, 4))
    corner = data.draw(st.integers(1, d + 1))
    rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    u = data.draw(st.lists(rationals, min_size=d + 1, max_size=d + 1))
    curve = contraction_check(d, corner, [2], u)
    assert curve.K_sq_exact == _secondary_norm_sq_by_cramer(d, corner, u)


def test_contraction_check_rejects_malformed_input():
    u = [Fraction(5), Fraction(-3), Fraction(1)]
    with pytest.raises(InvalidParameterError):
        contraction_check(2, 1, [], u)
    with pytest.raises(InvalidParameterError):
        contraction_check(2, 1, [2], u[:2])
    with pytest.raises(InvalidParameterError):
        contraction_check(2, 1, [2], u + [Fraction(0)])
    with pytest.raises(InvalidParameterError):
        contraction_check(2, 4, [2], u)


def test_basis_from_vectors_rejects_wrong_shapes():
    with pytest.raises(DegenerateBasisError):
        basis_from_vectors(2, [[1, 0]])
    with pytest.raises(DegenerateBasisError):
        basis_from_vectors(2, [])
