"""Per-cell energy measures, rank statistics, and the contraction lemmas.

The cell matrix of a tuple of harmonic directions (b_1..b_k) on the cell of a
word w is B_w[i][j] = (2/r_w) Q(A_w b_i, A_w b_j); its trace carries the
cell's share of the combined energy measure, and its eigenvalue ratios drive
the empirical index estimate.

Exact rational arithmetic is used for masses, traces and every decision that
the tests assert exactly; eigenvalues of the small symmetric matrices are
always floating point.  Label keys are hashed in `gasket` (`frontier`).

The corner-chain quantities are read off the eigenstructure that
`extension_matrices` verifies, not solved for: each corner matrix fixes 1,
scales v_i by r and every secondary y by s, with |s| < r and Q(v_i, y) = 0.
So u - (u_i, u) v_i is u's secondary component up to a constant
(`contraction_check`); `capacity.corner_decay_N` reads r_chain off it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import DegenerateBasisError, InvalidParameterError
from .exactla import det, integer_form, mat_mul, mat_t, mat_vec
from .gasket import DEFAULT_WORD_BUDGET, GasketSpec, Word, _check_depth, frontier, walk
from .harmonic import base_form, check_corner, dual_vector, extension_matrices, principal_vector, theta


# --- harmonic bases -----------------------------------------------------------


@dataclass
class EnergyBasis:
    """Harmonic directions used for energy-measure matrices.

    raw holds exact rational, Q-orthogonal vectors; norms their Q-norms.
    The normalized float vectors raw_i / sqrt(2 norms_i) make the combined
    energy mass exactly 1 at depth 0.
    """

    d: int
    raw: list = field(repr=False)
    norms: list = field(repr=False)
    label: str = "default"

    @property
    def size(self) -> int:
        return len(self.raw)

    def float_columns(self) -> np.ndarray:
        """(d+1, size) array with columns raw_i / sqrt(2 n_i)."""
        cols = []
        for g, n in zip(self.raw, self.norms):
            cols.append(np.array([float(x) for x in g]) / math.sqrt(2.0 * float(n)))
        return np.stack(cols, axis=1)

    def exact_columns(self) -> list:
        """(d+1) x size rational matrix with the raw vectors as columns."""
        return [[g[k] for g in self.raw] for k in range(self.d + 1)]


def default_basis(d: int) -> EnergyBasis:
    """Q-orthogonalized projections of the first d coordinate directions onto
    the complement of constants, scaled so the total mass at depth 0 is 1."""
    Q = base_form(d)
    vecs = []
    for k in range(d):
        g = [Fraction(-1, d + 1)] * (d + 1)
        g[k] += 1
        for prev in vecs:
            coef = Q(g, prev) / Q(prev, prev)
            g = [a - coef * b for a, b in zip(g, prev)]
        vecs.append(g)
    norms = [Q(g, g) for g in vecs]
    return EnergyBasis(d=d, raw=vecs, norms=norms, label="q-orthonormal standard directions")


def basis_from_vectors(d: int, vectors) -> EnergyBasis:
    """Wrap caller-provided boundary vectors; they must be independent modulo
    constants."""
    vecs = [[Fraction(x) for x in v] for v in vectors]
    if not vecs or any(len(v) != d + 1 for v in vecs):
        raise DegenerateBasisError(f"need vectors of length {d + 1}")
    Q = base_form(d)
    gram = [[Q(a, b) for b in vecs] for a in vecs]
    if det(gram) == 0:
        raise DegenerateBasisError("vectors are dependent modulo constants")
    return EnergyBasis(d=d, raw=vecs, norms=[Q(g, g) for g in vecs], label="user")


def _resolve_basis(d: int, basis) -> tuple:
    """(EnergyBasis, normalized) for a basis argument: None is the normalized
    default, an EnergyBasis keeps its own normalization, and anything else is
    a list of boundary vectors whose cell matrices stay exact."""
    if basis is None:
        return default_basis(d), True
    if isinstance(basis, EnergyBasis):
        return basis, basis.label != "user"
    return basis_from_vectors(d, basis), False


# --- cell energy matrices -----------------------------------------------------


@dataclass
class CellEnergyMatrix:
    """Energy-measure data of one cell for a fixed set of directions."""

    word: Word
    B: list = field(repr=False)
    nu_mass: Fraction | float = Fraction(0)
    eigenvalues: list = field(default_factory=list)


def _exact_cell_record(word, U, den, r_w: Fraction, basis: EnergyBasis, normalized: bool) -> CellEnergyMatrix:
    """Build a record from the exact transported columns U / den = A_w G
    (integer U on the walks, one Fraction per entry of B).

    The eigenvalues come from np.linalg.eigvalsh, not `_stack_eigvalsh`: a
    record holds one k x k matrix, k = 1..d, where a closed form over a
    block of cells saves nothing, and eigvalsh is the oracle it matches."""
    k, corners = basis.size, basis.d + 1
    Ut = mat_t(U)
    sums = [sum(col) for col in Ut]

    def q(i, j):  # Q(a, b) = (d+1) a.b - (sum a)(sum b) for the base form Q
        return corners * sum(x * y for x, y in zip(Ut[i], Ut[j])) - sums[i] * sums[j]

    c_den = r_w.numerator * den * den
    C = [[Fraction(2 * r_w.denominator * q(i, j), c_den) for j in range(k)] for i in range(k)]
    if normalized:
        # similarity-scale to the unit-mass basis; entries become floats
        scale = [1.0 / math.sqrt(2.0 * float(n)) for n in basis.norms]
        Bf = [[float(C[i][j]) * scale[i] * scale[j] for j in range(k)] for i in range(k)]
        mass = sum(C[i][i] / (2 * basis.norms[i]) for i in range(k)) / k
        eig = sorted(np.linalg.eigvalsh(np.array(Bf)).tolist(), reverse=True)
        return CellEnergyMatrix(word=word, B=Bf, nu_mass=mass, eigenvalues=eig)
    mass = sum(C[i][i] for i in range(k)) / k
    eig = sorted(np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in C])).tolist(), reverse=True)
    return CellEnergyMatrix(word=word, B=C, nu_mass=mass, eigenvalues=eig)


def _transport_start(basis: EnergyBasis) -> tuple:
    """The walk state (U, den, r_w) at the root: the basis columns G as
    integer numerators U over one denominator den, and r_w = 1."""
    k = basis.size
    nums, den = integer_form([x for row in basis.exact_columns() for x in row])
    return [nums[t : t + k] for t in range(0, len(nums), k)], den, Fraction(1)


def _transport_step(d: int):
    """Walk step carrying (A_w G as integers over den, den, r_w) from a cell
    to its child."""

    def step(state, letter):
        U, den, r_w = state
        data = extension_matrices(d, letter[1])
        return mat_mul(data.M[letter[0] - 1], U), den * data.D, r_w * data.r

    return step


def cell_energy_matrix(spec: GasketSpec, word: Word, basis) -> CellEnergyMatrix:
    """Exact energy-measure matrix of one cell.

    basis may be a list of boundary vectors (B is then exact rational in that
    basis) or an EnergyBasis / None for the normalized default (B is float,
    the mass stays exact).
    """
    spec.validate_word(word)
    basis, normalized = _resolve_basis(spec.d, basis)
    U, den, r_w = reduce(_transport_step(spec.d), word, _transport_start(basis))
    return _exact_cell_record(word, U, den, r_w, basis, normalized)


def kusuoka_distribution(
    spec: GasketSpec,
    m: int,
    basis=None,
    budget: int = DEFAULT_WORD_BUDGET,
) -> list:
    """One exact record per depth-m word; the masses sum to the depth-0 mass."""
    basis, normalized = _resolve_basis(spec.d, basis)
    return [
        _exact_cell_record(word, U, den, r_w, basis, normalized)
        for word, (U, den, r_w) in walk(spec, m, _transport_start(basis), _transport_step(spec.d), budget=budget)
    ]


# --- float scan over depths ---------------------------------------------------


def _float_letter_stacks(spec: GasketSpec) -> dict:
    stacks = {}
    for l in spec.levels:
        data = extension_matrices(spec.d, l)
        stacks[l] = (
            np.array([[[float(x) for x in row] for row in A] for A in data.A]),
            float(data.r),
        )
    return stacks


def _energy_form(d: int) -> np.ndarray:
    """The base form Q as a float matrix."""
    return np.array(base_form(d).M, dtype=float)


def _child_chains(A_stack: np.ndarray, parents: np.ndarray, out: np.ndarray) -> None:
    """Write out[i, kk, p, c] = sum_j A_stack[c, i, j] * parents[j, kk, p],
    the columns A_c A_w G of child c of each parent, into the zeroed out.

    Every entry has the bits of np.einsum("cij,njk->ncik") on cell-major
    parents.  A one-vector basis (k == 1) runs that einsum itself, whose
    reduction over the contiguous j axis numpy splits into SIMD lanes.  With
    k >= 2 einsum's inner loop runs over kk and each entry takes its terms
    in j order, so whole-array multiply-adds from zero in j order match it,
    and run faster than the einsum on this layout."""
    d1, k, g = parents.shape
    if k == 1:
        cells = np.ascontiguousarray(parents.transpose(2, 0, 1))
        out[...] = np.einsum("cij,njk->ncik", A_stack, cells).transpose(2, 3, 0, 1)
        return
    term = np.empty((k, g, A_stack.shape[0]))
    for i in range(d1):
        for j in range(d1):
            np.multiply(parents[j][:, :, None], A_stack[:, i, j], out=term)
            np.add(out[i], term, out=out[i])


def _cell_energies(chains: np.ndarray, QM: np.ndarray) -> np.ndarray:
    """E[j, l, n] = sum_i sum_kk chains[i, j, n] QM[i, kk] chains[kk, l, n],
    the (k, k, ncells) cell energy matrices, the upper triangle included.

    Unoptimised einsum on this layout sums in the order that
    np.einsum("nij,ik,nkl->njl") takes on (ncells, d+1, k) columns, so the
    bits match the per-key reference scan; the tests check this for d >= 2."""
    return np.einsum("ijn,ik,kln->jln", chains, QM, chains)


def _depth_scan(spec: GasketSpec, m: int, basis: EnergyBasis, budget: int):
    """Yield (depth, B_stack, mass_weights) for depths 1..m in float mode.

    B_stack is (ncells, k, k); the masses are normalized to sum to 1 at each
    depth.  The cells come a depth at a time from gasket's `frontier` in its
    level-grouped order (by level, then parent, then cell index), which fixes
    the order of the float sums; it refuses a depth whose cells would exceed
    the budget before any of them is built.

    The transported columns A_w G are held as (d+1, k, ncells): one
    contiguous vector of cells per matrix entry.  The children are (d+1)^2
    whole-array multiply-adds summed in np.einsum's own order, or for a
    one-vector basis that einsum itself (`_child_chains`), and the cell
    matrices are one einsum (`_cell_energies`), so every B and mass has the
    bits of the per-key einsum scan.  matmul, einsum(optimize=True) and the
    closed form (d+1) C^T C - s s^T each change last bits of most entries,
    and with them the report's floats.
    """
    d1, k = spec.d + 1, basis.size
    QM = _energy_form(spec.d)
    stacks = _float_letter_stacks(spec)
    chains = basis.float_columns()[:, :, None]
    inv_r = np.array([1.0])
    for depth, (_, first, groups) in enumerate(frontier(spec, m, (), budget, grouped=True), start=1):
        total = sum(len(idx) * stacks[l][0].shape[0] for l, idx in groups)
        next_chains, next_inv_r = np.zeros((d1, k, total)), np.empty(total)
        for l, idx in groups:
            A_stack, rl = stacks[l]
            n_children = A_stack.shape[0]
            # child c of the group's parent p is cell start + p * n_children + c
            start = int(first[idx[0]])
            stop = start + len(idx) * n_children
            out = next_chains[:, :, start:stop].reshape(d1, k, len(idx), n_children)
            _child_chains(A_stack, chains[:, :, idx], out)
            next_inv_r[start:stop].reshape(len(idx), n_children)[:] = (inv_r[idx] / rl)[:, None]
        chains, inv_r = next_chains, next_inv_r
        E = _cell_energies(chains, QM)
        E *= 2.0 * inv_r
        B = E.transpose(2, 0, 1)
        masses = np.trace(B, axis1=1, axis2=2) / k
        yield depth, B, masses / masses.sum()


# --- rank reports ---------------------------------------------------------------


@dataclass
class RankReport:
    """Empirical index estimate and the decay diagnostics behind it.  Each
    field is a key of `to_dict`, which adds the `arithmetic_mode` and keys
    the histogram by rank text in rank order."""

    depth: int
    eps: float
    delta: float
    estimated_index: int
    histogram: dict
    mean_ratio_trend: list
    max_ratio_trend: list
    rank2_fraction_trend: list
    sensitivity: dict
    cells_at_depth: int
    basis: str

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["histogram"] = {str(k): v for k, v in sorted(self.histogram.items())}
        return {**out, "arithmetic_mode": "float"}


def _index_from_fractions(rank_mass: dict, delta: float) -> int:
    """Largest rank attained by all but a delta sliver of the energy mass.

    rank_mass maps each rank_eps value to its mass fraction.
    """
    max_rank = max(rank_mass) if rank_mass else 0
    cum = 0.0  # mass fraction with rank >= k, accumulated downward
    for k in range(max_rank, 0, -1):
        cum += rank_mass.get(k, 0.0)
        if cum >= 1.0 - delta:
            return k
    return 0


# LAPACK's double-precision constants (dlamch) for the 2x2 eigenvalues: dsterf's
# eps and its square, and the entry magnitudes inside which neither dsyevd
# ([sqrt(safmin / 2eps), sqrt(2eps / safmin)]) nor dsterf
# ([sqrt(safmin) / eps^2, sqrt(1 / safmin) / 3]) rescales the matrix.
_EPS = 2.0**-53
_EPS2 = _EPS * _EPS
_SAFMIN = 2.0**-1022
_UNSCALED_LO = max(math.sqrt(_SAFMIN / (2 * _EPS)), math.sqrt(_SAFMIN) / _EPS2)
_UNSCALED_HI = min(math.sqrt(2 * _EPS / _SAFMIN), math.sqrt(1 / _SAFMIN) / 3)
_EIG_BLOCK = 8192  # cells per block, so the temporaries stay small


def _stack_eigvalsh(B: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh(B), ascending, for a (n, k, k) stack of symmetric
    matrices, with the bits of the installed numpy.

    For k == 2 it repeats over whole blocks of cells what eigvalsh runs per
    matrix: dsyevd(jobz='N', uplo='L'), so only a = B[0,0], b = B[1,0] and
    c = B[1,1] count; dsytd2 leaves them as they are; dsterf splits the
    matrix into (a, c) when |b| <= sqrt|a| sqrt|c| eps or b^2 <= eps^2 |a c|,
    and else calls dlae2 on (a, sqrt(b^2), c); dlasrt sorts.  Cells that
    LAPACK would rescale, non-finite cells and every k != 2 go to
    np.linalg.eigvalsh itself.  This is LAPACK's implementation, not numpy's
    API, so the tests check it against the installed np.linalg.eigvalsh.
    """
    if B.shape[1] != 2:
        return np.linalg.eigvalsh(B)
    ev = np.empty(B.shape[:2])
    for start in range(0, len(B), _EIG_BLOCK):
        block = B[start : start + _EIG_BLOCK]
        a, b, c = block[:, 0, 0], block[:, 1, 0], block[:, 1, 1]
        with np.errstate(all="ignore"):  # split and fallback cells compute junk
            e, abs_a, abs_c = b * b, np.abs(a), np.abs(c)
            split = (np.abs(b) <= np.sqrt(abs_a) * np.sqrt(abs_c) * _EPS) | (e <= _EPS2 * np.abs(a * c))
            # dlae2(a, rte, c): rt1 is the eigenvalue of larger magnitude
            rte = np.sqrt(e)
            sm, adf, ab = a + c, np.abs(a - c), np.abs(rte + rte)
            hi, lo = np.maximum(adf, ab), np.minimum(adf, ab)
            # dlae2's three branches in one: adf == ab gives ab * sqrt(2); both
            # zero means b^2 == 0, a split cell
            rt = hi * np.sqrt(1.0 + (lo / hi) ** 2)
            rt1 = 0.5 * (sm + np.where(sm < 0, -rt, rt))
            a_big = abs_a > abs_c
            acmx, acmn = np.where(a_big, a, c), np.where(a_big, c, a)
            rt2 = np.where(sm == 0, -0.5 * rt, (acmx / rt1) * acmn - (rte / rt1) * rte)
            # dsterf stores (rt1, rt2) in an order set by |a| vs |c|, which the
            # sort hides: rt1 is never zero here, so equal values have equal bits
            d1, d2 = np.where(split, a, rt1), np.where(split, c, rt2)
            swap = d2 < d1  # dlasrt swaps only a strictly smaller second entry
            out = ev[start : start + _EIG_BLOCK]
            out[:, 0] = np.where(swap, d2, d1)
            out[:, 1] = np.where(swap, d1, d2)
            amax = np.maximum(np.maximum(abs_a, np.abs(b)), abs_c)
            rescaled = ~np.isfinite(amax) | ((amax != 0) & ((amax < _UNSCALED_LO) | (amax > _UNSCALED_HI)))
        if rescaled.any():
            out[rescaled] = np.linalg.eigvalsh(block[rescaled])
    return ev


def index_estimate(
    spec: GasketSpec,
    m: int,
    eps: float = 1e-8,
    delta: float = 1e-3,
    basis=None,
    budget: int = DEFAULT_WORD_BUDGET,
) -> RankReport:
    """Scan depths 1..m and estimate the index from eigenvalue-ratio ranks.

    rank_eps of a cell counts the eigenvalues above eps times the top one.
    The estimate is the largest k such that cells of total energy fraction at
    least 1 - delta have rank_eps >= k; the delta sliver absorbs the slowly
    contracting exceptional cells that any finite depth still carries.
    """
    if not 0 < eps < 1:
        raise InvalidParameterError(f"eps must be in (0,1), got {eps}")
    if not 0 < delta < 1:
        raise InvalidParameterError(f"delta must be in (0,1), got {delta}")
    _check_depth(m, budget)
    basis, _ = _resolve_basis(spec.d, basis)

    mean_trend, max_trend, rank2_trend = [], [], []
    QM = _energy_form(spec.d)
    G0 = basis.float_columns()
    # depth 0, the root cell alone, until the scan yields a deeper one
    ev, w = _stack_eigvalsh(2.0 * (G0.T @ QM @ G0)[None, :, :]), np.array([1.0])
    for _, B, w in _depth_scan(spec, m, basis, budget):
        ev = _stack_eigvalsh(B)  # ascending
        lam1 = ev[:, -1]
        if basis.size >= 2:
            ratio = np.where(lam1 > 0, ev[:, -2] / np.where(lam1 > 0, lam1, 1.0), 0.0)
        else:
            ratio = np.zeros(len(B))
        mean_trend.append(float((w * ratio).sum()))
        max_trend.append(float(ratio.max()) if len(ratio) else 0.0)
        rank2_trend.append(float(w[ratio > eps].sum()))

    lam1 = ev[:, -1]
    ncells = len(lam1)

    def histogram_for(threshold: float) -> dict:
        # the ranks column by column: a 2-wide reduction over every cell is slower
        bound = threshold * lam1
        counts = np.zeros(ncells, dtype=np.int64)
        for col in ev.T:
            counts += col > bound
        counts = np.where(lam1 > 0, counts, 0)  # a NaN lam1 counts 0 too
        hist = {}
        for k in range(0, basis.size + 1):
            mass = float(w[counts == k].sum())
            if mass > 0:
                hist[int(k)] = mass
        return hist

    hist = histogram_for(eps)
    est = _index_from_fractions(hist, delta)
    sens = {
        "eps_x10": _index_from_fractions(histogram_for(eps * 10), delta),
        "eps_div10": _index_from_fractions(histogram_for(eps / 10), delta),
    }
    return RankReport(
        depth=m,
        eps=eps,
        delta=delta,
        estimated_index=est,
        histogram=hist,
        mean_ratio_trend=mean_trend,
        max_ratio_trend=max_trend,
        rank2_fraction_trend=rank2_trend,
        sensitivity=sens,
        cells_at_depth=ncells,
        basis=basis.label,
    )


# --- contraction ---------------------------------------------------------------


@dataclass
class ContractionCurve:
    """Residuals of the rescaled corner-chain iteration toward its principal
    direction, with the geometric bound they must obey."""

    corner: int
    labels: list
    residuals: list
    residual_sq_exact: list
    bounds: list
    K: float
    K_sq_exact: Fraction
    theta: Fraction


def contraction_check(d: int, corner: int, tau, u) -> ContractionCurve:
    """Track || r_chain^{-1} P A_chain u - (u_i, u) P v_i || along the corner
    chain with label sequence tau; the residual is exactly the transported
    secondary component, so it is bounded by K theta^n with K the secondary
    component's norm."""
    check_corner(d, corner)
    tau = list(tau)
    if not tau:
        raise InvalidParameterError("the corner chain needs at least one label")
    u = [Fraction(x) for x in u]
    if len(u) != d + 1:
        raise InvalidParameterError(f"u needs {d + 1} entries, got {len(u)}")
    u_i = dual_vector(d, corner)
    v_i = principal_vector(d, corner)
    x_i = sum(a * b for a, b in zip(u_i, u))

    def project(vec):
        mean = sum(vec) / len(vec)
        return [x - mean for x in vec]

    pv = project(v_i)
    target = [x_i * x for x in pv]

    # u_i kills 1 and every secondary y and (u_i, v_i) = 1, so u - x_i v_i is
    # the secondary component of u up to a constant, which project removes
    K_sq = sum(x * x for x in project([a - x_i * b for a, b in zip(u, v_i)]))
    th = theta(d, sorted(set(tau)))

    residuals, exact_sq, bounds = [], [], []
    vec = u  # A_chain u, one corner matrix applied per label
    r_chain = Fraction(1)
    for n, l in enumerate(tau, start=1):
        data = extension_matrices(d, l)
        vec = mat_vec(data.A[corner - 1], vec)
        r_chain *= data.r
        scaled = [x / r_chain for x in vec]
        resid_vec = [a - b for a, b in zip(project(scaled), target)]
        sq = sum(x * x for x in resid_vec)
        exact_sq.append(sq)
        residuals.append(math.sqrt(float(sq)))
        bounds.append(float(th) ** n * math.sqrt(float(K_sq)))
    return ContractionCurve(
        corner=corner,
        labels=tau,
        residuals=residuals,
        residual_sq_exact=exact_sq,
        bounds=bounds,
        K=math.sqrt(float(K_sq)),
        K_sq_exact=K_sq,
        theta=th,
    )
