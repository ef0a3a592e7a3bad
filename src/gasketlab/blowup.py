"""Blow-up / push-forward diagnostic: transport per-cell energy masses of a
rescaled harmonic pair into the plane and bin the resulting weighted cloud.

Per depth-m subcell the pushed point is the image under the rescaled pair of
the subcell's vertex average, and the weight is e^2 times the subcell's
combined energy mass, where e is the mean over the subcell's corners of the
equilibrium potential of the inner-set capacity problem.  That potential
needs no solve.  On the depth-N network below the word the inner-set pins fix
every vertex: 0 on the word's corners and 1 everywhere else.  Below depth N
cells meet only at their corners, so inside a cell the potential is the
harmonic extension of its corner values, e_child = A_letter e_parent.  Only
pairs (two harmonic directions) are supported; that is the shape the
limiting-measure argument consumes.

The transport moves a whole depth at a time: the cells' integer numerators
are one array, each level's children are one matmul with the integer
extension matrices M = D A, and `gasket.frontier` places the children in
the walk's depth-lexicographic order.  The arrays are int64 while an exact
bound keeps every entry, sum and square below 2**62 and Python ints after
that, so every value is exact.

The depth-m cells are reduced a block at a time in whole arrays of Python
ints (dtype=object).  A cell's e-value, mass and weight stay an integer
numerator over an integer denominator (`Quotients`), and their Fractions are
built only when a caller reads them.  Every float, a point, a weight or an
e-value, is read from exact integers as int / int, which Python rounds
correctly, so it has the bits of float() of the same Fraction; float64
division would round twice once an operand reaches 2**53.  Only the total
mass and the largest vertex norm are reduced exactly, over runs of cells
with one denominator.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import DegenerateBasisError, InvalidParameterError
from .capacity import inner_depth
from .energy import basis_from_vectors
from .exactla import integer_form
from .gasket import DEFAULT_WORD_BUDGET, GasketSpec, Word, _exact_sum, encode_word, frontier
from .harmonic import extension_matrices
from .subdivision import cell_count


class Quotients(Sequence):
    """The exact values num[i] / den[i] of two arrays of Python ints
    (dtype=object).  As a sequence it holds their Fractions, built when it is
    first read, and it equals a list of the same rationals.  `floats` reads
    each value as int / int, which Python rounds correctly, so each float has
    the bits of float(Fraction(num[i], den[i]))."""

    def __init__(self, num: np.ndarray, den: np.ndarray):
        self.num, self.den = num, den

    @cached_property
    def floats(self) -> np.ndarray:
        return (self.num / self.den).astype(float)

    @cached_property
    def _fractions(self) -> list:
        return [Fraction(a, b) for a, b in zip(self.num.tolist(), self.den.tolist())]

    def __len__(self) -> int:
        return len(self.num)

    def __getitem__(self, i):
        return self._fractions[i]

    def __iter__(self):
        return iter(self._fractions)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return self._fractions == list(other)


@dataclass
class BlowupCloud:
    """Weighted planar points pushed forward from the depth-m subcells, in
    the walk's depth-lexicographic order.

    `weights`, `masses` and `e_means` keep each cell's exact value as an
    integer numerator over an integer denominator (`Quotients`): their
    Fractions are built only when read, and their floats, which the density
    grid and the cloud CSV read, are int / int.  `total_mass` is the exact
    sum of `weights`, the grid's total, not of `masses`.  `labels[k]` holds
    the level of each depth-k cell, k < depth, and `letters[l]` the texts
    "i^l" of a level-l cell's children's letters, so `words()` can name the
    cells.
    """

    word: Word
    depth: int
    inner_depth: int
    alpha: float
    points: np.ndarray = field(repr=False)       # (n, 2) floats in the unit disk
    weights: Quotients = field(repr=False)       # e^2 * mass, exact
    masses: Quotients = field(repr=False)
    e_means: Quotients = field(repr=False)
    total_mass: Fraction = Fraction(0)
    labels: list = field(default_factory=list, repr=False)
    letters: dict = field(default_factory=dict, repr=False)

    @property
    def n_points(self) -> int:
        return len(self.weights)

    def words(self):
        """Iterate over the texts of the cells' whole words, `word` included,
        in the order of `points`: a depth repeats each parent's text once per
        child and appends ".i^l" ("i^l" below the empty word).  Only the
        deepest cells' parents are held at once."""
        texts = iter([encode_word(self.word)])
        for labels in self.labels:
            prefixes = [text + "." if text else "" for text in texts]
            texts = (p + letter for p, l in zip(prefixes, labels.tolist()) for letter in self.letters[l])
        return texts


_LIMIT = 1 << 62  # every int64 entry, sum and square stays below this
_TOO_LARGE = "the harmonic pair is too large for floating point"


def _runs(keys: np.ndarray) -> np.ndarray:
    """The index of the first entry of each run of equal entries of keys."""
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


def _as_exact(S: np.ndarray, bound) -> np.ndarray:
    """S, or S as Python ints (dtype=object) once bound(its largest absolute
    entry) could reach 2**62; an object array stays one."""
    if S.dtype == object or bound(max(int(S.max()), -int(S.min()))) < _LIMIT:
        return S
    return S.astype(object)


def blowup_cloud(
    spec: GasketSpec,
    word: Word,
    b1,
    b2,
    m: int,
    N: int | None = None,
    budget: int = DEFAULT_WORD_BUDGET,
) -> BlowupCloud:
    """Build the weighted cloud for the harmonic pair (b1, b2) below `word`.

    The cells of a depth are carried together, in the walk's
    depth-lexicographic order as `gasket.frontier` places them.  Each holds
    an integer (3, d+1) block, the numerators of the pair's two vertex
    vectors over its denominator `den` and of the potential at its corners
    over `e_den`, with `den`, `e_den` and 1/r_w = ir_num / ir_den as Python
    ints.  Down to depth N the corner cell i keeps its parent's potential at
    corner i and every other corner value is 1; deeper the values follow the
    extension matrices.  Masses are root normalized.  The first depth with
    more than `budget` cells is refused before it is built.
    """
    basis = basis_from_vectors(spec.d, [b1, b2])
    if basis.size != 2:
        raise DegenerateBasisError("exactly two harmonic directions are required")
    N = inner_depth(spec, N)

    d = spec.d
    n = d + 1
    stacks = {}

    def stack(l):  # (M_c^T stacked, D, r, the largest absolute row sum of an M_c)
        if l not in stacks:
            data = extension_matrices(d, l)
            rows = max(sum(abs(x) for x in row) for M in data.M for row in M)
            stacks[l] = np.array(data.M, dtype=np.int64).transpose(0, 2, 1), data.D, data.r, rows
        return stacks[l]

    def expand(S, scal, present, first, depth):
        """The children of the cells (S, scal) whose levels are grouped in
        `present`, in depth-lexicographic order: child c of parent p goes to
        slot first[p] + c."""
        total = sum(len(idx) * cell_count(d, l) for l, idx in present)
        S_next, scal_next = np.empty((total, 3, n), dtype=S.dtype), np.empty((total, 4), dtype=object)
        for l, idx in present:
            MT, D, r, _ = stack(l)
            nc = MT.shape[0]
            P = S[idx]
            C = np.matmul(P[:, None], MT)  # C[p, c, k] = M_c P[p, k]
            sc = scal[idx] * np.array([D, r.denominator, r.numerator, 1], dtype=object)
            if depth <= N:
                # a child's corner is a corner of its parent only at corner i of
                # the corner cell i; a new vertex is no corner of the word, so 1
                C[:, :, 2] = 1
                corner = np.arange(min(nc, n))
                C[:, corner, 2, corner] = P[:, 2, : len(corner)]
            else:  # A is row-stochastic, so a constant potential stays as it is
                flat = P[:, 2].max(1) == P[:, 2].min(1)
                C[flat, :, 2] = P[flat, None, 2]
                sc[~flat, 3] *= D
            slots = (first[idx, None] + np.arange(nc)).reshape(-1)
            S_next[slots] = C.reshape(-1, 3, n)
            scal_next[slots] = np.repeat(sc, nc, axis=0)
        return S_next, scal_next

    blocks = []  # per block of depth-m cells: its points and exact parts
    by_den: dict = {}  # the weights' numerators tallied by their denominators
    max_num, max_den = 0, 1  # the largest squared vertex norm of the pair

    def record(S, scal):
        """Reduce a block of depth-m cells into `blocks`, `by_den` and the
        largest vertex norm."""
        nonlocal max_num, max_den
        S = _as_exact(S, lambda peak: 2 * n * n * peak * peak)
        V = S[:, :2]
        s = V.sum(2)
        sq = V * V
        qs = (n * sq.sum(2) - s * s).sum(1)  # Q(v1, v1) + Q(v2, v2), Q = (d+1) I - J
        tops = sq.sum(1).max(1)
        den, ir_num, ir_den, e_den = scal.T
        try:  # int / int is correctly rounded, so these are the floats of the reduced fractions
            means = (s.astype(object) / (n * den)[:, None]).astype(float)
        except OverflowError:  # then so does the largest vertex norm
            raise InvalidParameterError(_TOO_LARGE) from None
        den_sq = den * den
        # a parent's children share its denominators, so the runs are long
        at = _runs(den)
        for top, den_top in zip(np.maximum.reduceat(tops, at).tolist(), den_sq[at].tolist()):
            if top * max_den > max_num * den_top:
                max_num, max_den = top, den_top
        # mass is (1/2) sum of the 2/r_w energy masses; weight is e_mean^2 mass
        e_num, mean_den = S[:, 2].sum(1).astype(object), n * e_den
        mass_num, mass_den = ir_num * qs.astype(object), ir_den * den_sq
        w_num, w_den = e_num * e_num * mass_num, mean_den * mean_den * mass_den
        at = _runs(w_den)
        for key, part in zip(w_den[at].tolist(), np.add.reduceat(w_num, at).tolist()):
            by_den[key] = by_den.get(key, 0) + part
        blocks.append((means, e_num, mean_den, mass_num, mass_den, w_num, w_den))

    pair, den0 = integer_form(basis.raw[0] + basis.raw[1])
    S = np.array([[pair[:n], pair[n:], [0] * n]], dtype=object)
    if max(abs(x) for x in pair) < _LIMIT:
        S = S.astype(np.int64)
    scal = np.array([[den0, 1, 1, 1]], dtype=object)  # den, ir_num, ir_den, e_den
    tree_labels = []
    for depth, (labels, first, present) in enumerate(frontier(spec, m, word, budget), start=1):
        tree_labels.append(labels)
        rows = max(stack(l)[3] for l, _ in present)
        S = _as_exact(S, lambda peak: peak * rows)
        if depth < m:
            S, scal = expand(S, scal, present, first, depth)
            continue
        # the deepest cells are built and reduced a block of parents at a time
        per = max(1, 1024 // max(cell_count(d, l) for l, _ in present))
        for lo in range(0, len(labels), per):
            hi = lo + per
            cuts = [np.searchsorted(idx, (lo, hi)) for _, idx in present]
            block = [(l, idx[a:b] - lo) for (l, idx), (a, b) in zip(present, cuts)]
            record(*expand(S[lo:hi], scal[lo:hi], block, first[lo:hi] - first[lo], depth))
    if m == 0:
        record(S, scal)
    if max_num == 0:
        raise DegenerateBasisError("the harmonic pair vanishes on the cell")
    total = _exact_sum(by_den)
    try:
        norm = math.sqrt(max_num / max_den)
        float(total)  # every weight is at most the total, so all weights have floats
    except OverflowError:
        raise InvalidParameterError(_TOO_LARGE) from None
    if norm == 0.0:
        raise InvalidParameterError("the harmonic pair is too small for floating point")
    alpha = 1.0 / norm
    points, e_num, mean_den, mass_num, mass_den, w_num, w_den = (np.concatenate(part) for part in zip(*blocks))
    points *= alpha
    return BlowupCloud(
        word=word,
        depth=m,
        inner_depth=N,
        alpha=alpha,
        points=points,
        weights=Quotients(w_num, w_den),
        masses=Quotients(mass_num, mass_den),
        e_means=Quotients(e_num, mean_den),
        total_mass=total,
        labels=tree_labels,
        letters={l: [f"{i}^{l}" for i in range(1, cell_count(d, l) + 1)] for l in spec.levels},
    )


def density_grid(cloud: BlowupCloud, resolution: int) -> np.ndarray:
    """Cell-averaged mass histogram of the cloud on [-1, 1]^2.

    Bins nest under doubling (floor binning on aligned edges), so a coarse
    grid equals the 2x2 block sums of the doubled one.
    """
    if resolution < 8:
        raise InvalidParameterError(f"resolution must be >= 8, got {resolution}")
    try:
        grid = np.zeros((resolution, resolution))
    except (ValueError, MemoryError):  # numpy refuses the allocation
        raise InvalidParameterError(f"resolution {resolution} needs a grid too large to allocate") from None
    if cloud.n_points == 0:
        return grid
    pts = cloud.points
    ix = np.clip(((pts[:, 0] + 1.0) / 2.0 * resolution).astype(int), 0, resolution - 1)
    iy = np.clip(((pts[:, 1] + 1.0) / 2.0 * resolution).astype(int), 0, resolution - 1)
    np.add.at(grid, (ix, iy), cloud.weights.floats)
    return grid
