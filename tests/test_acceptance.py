"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
Frozen constants marked "oracle" were computed by independent pre-build
oracle runs and pinned here.
"""

import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from gasketlab.capacity import (
    a3_report,
    corner_chain_capacity,
    default_inner_depth,
    inner_set_pins,
    point_capacity,
)
from gasketlab.cli import main
from gasketlab.energy import default_basis, index_estimate, kusuoka_distribution
from gasketlab.blowup import blowup_cloud, density_grid
from gasketlab.gasket import (
    GasketSpec,
    dirichlet_solve,
    enumerate_words,
    harmonic_values,
    level_network,
    measure_totals,
)
from gasketlab.harmonic import (
    _level_solve,
    base_form,
    dual_vector,
    extension_matrices,
    ones_vector,
    principal_vector,
    renormalization_factor,
    secondary_vectors,
)
from gasketlab.exactla import mat_vec
from gasketlab.subdivision import cell_count, subdivide

SG = GasketSpec(2, [2])
SG3 = GasketSpec(2, [3])
SEEDED1 = GasketSpec(2, [2, 3], {"type": "seeded", "seed": 1, "weights": {2: 1.0, 3: 1.0}})
SEEDED2 = GasketSpec(2, [2, 3], {"type": "seeded", "seed": 2, "weights": {2: 1.0, 3: 1.0}})
THREE_SPECS = [("homogeneous l=2", SG), ("homogeneous l=3", SG3), ("seeded T={2,3}", SEEDED1)]


def emit(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


class Criterion:
    """Prints the criterion's fail line before re-raising."""

    def __init__(self, n, text):
        self.n, self.text = n, text

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            emit(self.n, self.text)
        else:
            print(f"ACCEPTANCE {self.n}: FAIL - {self.text}")
        return False


def test_criterion_1_renormalization_golden_values():
    with Criterion(1, "renormalization golden values, exact, under 5 s"):
        t0 = time.time()
        assert renormalization_factor(2, 2) == Fraction(3, 5)
        assert renormalization_factor(2, 3) == Fraction(7, 15)
        assert renormalization_factor(2, 4) == Fraction(41, 103)
        assert time.time() - t0 < 5.0


def test_criterion_2_schur_proportionality():
    with Criterion(2, "boundary trace equals r * base form exactly, 2<=d<=4, 2<=l<=4"):
        for d in range(2, 5):
            Q = base_form(d)
            for l in range(2, 5):
                s, _, r, reduced = _level_solve(d, l)
                boundary = s.boundary_vertex_ids()
                for a_idx, b_idx in combinations(range(d + 1), 2):
                    a, b = boundary[a_idx], boundary[b_idx]
                    # reduced network conductance == r times the unit base edge
                    assert reduced[a][b] == r * (-Q.M[a_idx][b_idx])
                assert 0 < r < 1


def test_criterion_3_cell_counts():
    with Criterion(3, "closed-form cell count matches enumeration, 2<=d<=5, 2<=l<=6"):
        for d in range(2, 6):
            for l in range(2, 7):
                assert cell_count(d, l) == len(subdivide(d, l).cells)


def test_criterion_4_eigenstructure_suite():
    with Criterion(4, "corner eigenstructure and inner products exact for d=2,3; l=2,3"):
        for d in (2, 3):
            one = ones_vector(d)
            for l in (2, 3):
                data = extension_matrices(d, l)
                r, s = data.r, data.s
                assert abs(s) < r
                for i in range(1, d + 2):
                    A = data.A[i - 1]
                    At = [list(col) for col in zip(*A)]
                    u, v = dual_vector(d, i), principal_vector(d, i)
                    assert mat_vec(A, one) == one
                    assert mat_vec(A, v) == [r * x for x in v]
                    assert mat_vec(At, u) == [r * x for x in u]
                    for y in secondary_vectors(d, i):
                        assert mat_vec(A, y) == [s * x for x in y]
                        assert sum(a * b for a, b in zip(u, y)) == 0
                    assert sum(a * b for a, b in zip(u, one)) == 0
                    assert sum(a * b for a, b in zip(u, v)) == 1


def test_criterion_5_energy_decomposition_and_constancy():
    with Criterion(5, "exact energy decomposition; level-m harmonic energy constant to m=6"):
        for d, l in [(2, 2), (2, 3), (3, 2)]:
            data = extension_matrices(d, l)
            Q = base_form(d)
            for k in range(d + 1):
                e = [Fraction(int(t == k)) for t in range(d + 1)]
                assert sum(Q(mat_vec(A, e)) for A in data.A) == data.r * Q(e)
        Q = base_form(2)
        for u in ([Fraction(1), Fraction(0), Fraction(0)], [Fraction(2), Fraction(-1), Fraction(5)]):
            for m in range(0, 7):
                net = level_network(SG, m)
                hv = harmonic_values(SG, m, u)
                total = Fraction(0)
                for word, ids, weight in net.cells:
                    vals = hv[word]
                    for a in range(3):
                        for b in range(a + 1, 3):
                            total += weight * (vals[a] - vals[b]) ** 2
                assert total == Q(u)


def test_criterion_6_measure_and_kusuoka_conservation():
    with Criterion(6, "exact mass conservation to depth 8 on three specs; exact cell-mass sums"):
        for name, spec in THREE_SPECS:
            totals = measure_totals(spec, 8)
            assert all(t == 1 for t in totals), name
        for name, spec in THREE_SPECS:
            for m in range(0, 5):
                cells = kusuoka_distribution(spec, m)
                assert sum(c.nu_mass for c in cells) == 1, (name, m)


def test_criterion_7_rank_decay_and_index():
    with Criterion(7, "rank decay on the standard gasket and two seeded specs"):
        t0 = time.time()
        rep = index_estimate(SG, 10, eps=1e-8, delta=1e-3)
        elapsed = time.time() - t0
        assert elapsed < 60.0
        mt = rep.mean_ratio_trend  # depths 1..10
        assert all(mt[i + 1] <= mt[i] for i in range(1, 9))
        # oracle (frozen): nu-weighted mean of lambda2/lambda1 at depth 10
        assert mt[-1] <= 1.95e-4
        assert mt[-1] >= 1.90e-4
        assert rep.estimated_index == 1
        for spec in (SEEDED1, SEEDED2):
            t0 = time.time()
            r = index_estimate(spec, 8, eps=1e-8, delta=1e-3)
            assert time.time() - t0 < 60.0
            assert r.estimated_index == 1


def test_criterion_8_a3_balance_and_stability():
    with Criterion(8, "exact mass inequality (64 samples/word, depths 2..4); constants stable"):
        for name, spec in THREE_SPECS:
            n_inner = default_inner_depth(spec)
            for depth in (2, 3, 4):
                rep = a3_report(spec, depth, N=n_inner, samples=64, seed=0, cap_words=4)
                assert rep.inequality_violations == 0, (name, depth)
                num, den = map(int, rep.worst_mass_ratio.split("/"))
                assert Fraction(num, den) <= 2, (name, depth)
        for name, spec in THREE_SPECS:
            cbs, ccs = [], []
            for depth in (2, 3, 4, 5):
                rep = a3_report(spec, depth, samples=16, seed=0, cap_words=6)
                cbs.append(rep.C_b)
                ccs.append(rep.C_c)
            assert all(np.isfinite(cbs)) and all(np.isfinite(ccs))
            assert max(cbs) <= 2.0 * min(cbs), (name, cbs)
            assert max(ccs) <= 2.0 * min(ccs), (name, ccs)


def test_criterion_9_capacity_solver_oracle_and_monotone_sequences():
    with Criterion(9, "triangle Dirichlet oracle; capacities constant across refinements"):
        net = level_network(SG, 0)
        b0, b1, b2 = net.boundary
        vals, energy, _ = dirichlet_solve(net, {b0: Fraction(1), b1: Fraction(0)})
        assert vals[b2] == Fraction(1, 2)
        assert energy == Fraction(3, 2)
        grid = np.linspace(-1.0, 2.0, 20001)
        energies = (grid - 1.0) ** 2 + grid**2 + 1.0
        assert abs(grid[np.argmin(energies)] - 0.5) < 1e-3
        assert abs(energies.min() - 1.5) < 1e-6

        for name, spec in THREE_SPECS:
            n_inner = default_inner_depth(spec)
            words = [w for w, _, _ in enumerate_words(spec, 2)]
            for word in (words[0], words[len(words) // 2]):
                # one exact value equal to the full depth-N and depth-N+1
                # solves: constant, the strongest form of non-increasing
                rel = corner_chain_capacity(spec, word, n_inner)
                desc_net = level_network(spec, n_inner, root=word)
                inner = [v for v in range(desc_net.n_vertices) if v not in desc_net.boundary]
                pt = point_capacity(spec, word, inner[0], base_depth=n_inner)
                coord = desc_net.coords[inner[0]]
                for net in (desc_net, level_network(spec, n_inner + 1, root=word)):
                    assert dirichlet_solve(net, inner_set_pins(spec, word, n_inner, net))[1] == rel, (name, word)
                    pins = {**dict.fromkeys(net.boundary, Fraction(0)), net.coord_index[coord]: Fraction(1)}
                    assert dirichlet_solve(net, pins)[1] == pt, (name, word)


def test_criterion_10_blowup_conservation():
    with Criterion(10, "cloud mass exact in rational mode; grid sums at 64 and 256"):
        basis = default_basis(2)
        cloud = blowup_cloud(SG, (), basis.raw[0], basis.raw[1], m=3)
        assert isinstance(cloud.total_mass, Fraction)
        assert cloud.total_mass == sum(
            e * e * mass for e, mass in zip(cloud.e_means, cloud.masses)
        )
        total = float(cloud.total_mass)
        for res in (64, 256):
            g = density_grid(cloud, res)
            assert abs(g.sum() - total) <= 1e-12 * total


def test_criterion_11_deterministic_reports(tmp_path):
    with Criterion(11, "dim-estimate and verify-a3 reports byte-identical across runs"):
        spec_path = tmp_path / "sg.json"
        spec_path.write_text('{"dimension": 2, "levels": [2]}')
        pairs = []
        for run in ("a", "b"):
            out = tmp_path / f"rank-{run}.json"
            assert main(["dim-estimate", "--spec", str(spec_path), "--depth", "7", "--out", str(out)]) == 0
            pairs.append(out.read_bytes())
        assert pairs[0] == pairs[1]
        pairs = []
        for run in ("a", "b"):
            out = tmp_path / f"a3-{run}.json"
            rows = tmp_path / f"rows-{run}.csv"
            assert main([
                "verify-a3", "--spec", str(spec_path), "--depth", "3", "--samples", "16",
                "--refine", "1", "--seed", "42", "--cap-words", "3",
                "--out", str(out), "--rows-out", str(rows),
            ]) == 0
            pairs.append(out.read_bytes() + rows.read_bytes())
        assert pairs[0] == pairs[1]
