"""Discrete relative capacities, equilibrium potentials, inner sets, and the
empirical energy/capacity balance report.

The inner set below a word excludes one length-N corner chain per corner; by
finite ramification the only network vertices interior to an excluded chain
cell are the deeper subdivision vertices it encloses, so at the base depth N
the inner vertex set is everything except the word's own corners.

Capacity values are computed on root-normalized networks (the root cell
carries conductance weight 1).  The balance constants are scale invariant,
so the root factor cancels out of every reported ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import (
    EmptyInnerSetError,
    InvalidParameterError,
    InvalidVertexError,
)
from .energy import corner_decay_N
from .exactla import mat_mul, mat_t
from .gasket import (
    DEFAULT_WORD_BUDGET,
    ConductanceNetwork,
    GasketSpec,
    Word,
    _root_affine,
    cell_corners,
    dirichlet_solve,
    encode_word,
    enumerate_words,
    level_network,
    word_hash_unit,
)
from .harmonic import base_form, extension_matrices


@lru_cache(maxsize=None)
def _default_inner_depth(d: int, levels) -> int:
    return corner_decay_N((d, levels), Fraction(1, 2 * (d + 1)))


def default_inner_depth(spec: GasketSpec) -> int:
    """Corner-chain length from the mass-halving contraction target."""
    return _default_inner_depth(spec.d, spec.levels)


def corner_chain_labels(spec: GasketSpec, word: Word, corner: int, N: int) -> tuple:
    """Labels l_1..l_N of the admissible corner chain i^l1 ... i^lN below word."""
    labels = []
    key = spec.label_key(word)
    for _ in range(N):
        l = spec.key_label(key)
        labels.append(l)
        key = spec.child_key(key, (corner, l))
    return tuple(labels)


@dataclass
class InnerSetDescriptor:
    """The inner set below one word: everything except N-deep corner chains."""

    word: Word
    N: int
    corner_words: list = field(repr=False)       # absolute excluded words
    corner_affines: list = field(repr=False)     # (scale, offset) of each excluded cell
    corner_vertex_coords: list = field(repr=False)
    boundary_coords: frozenset = frozenset()
    inner_vertex_ids: list = field(default_factory=list, repr=False)
    inner_vertex_coords: list = field(default_factory=list, repr=False)
    network: ConductanceNetwork = None

    def classify(self, coord) -> str:
        """'boundary' for the word's own corners, 'excluded' for points
        strictly inside an excluded chain cell, else 'inner'.

        A barycentric point lies in the closed cell with map x -> scale x + o
        iff every coordinate is >= the offset's (the preimage coordinates are
        then nonnegative and sum to 1 automatically).
        """
        if coord in self.boundary_coords:
            return "boundary"
        for (scale, offset), corners in zip(self.corner_affines, self.corner_vertex_coords):
            if coord in corners:
                continue
            if all(coord[k] >= offset[k] for k in range(len(coord))):
                return "excluded"
        return "inner"


def inner_set(spec: GasketSpec, word: Word, N: int) -> InnerSetDescriptor:
    """Build the inner-set descriptor per the corner-chain construction."""
    if N < 1:
        raise InvalidParameterError(f"inner-set depth must be >= 1, got {N}")
    d = spec.d
    net = level_network(spec, N, root=word)  # validates the word
    corner_words = []
    corner_affines = []
    corner_vertex_coords = []
    for corner in range(1, d + 2):
        labels = corner_chain_labels(spec, word, corner, N)
        chain = tuple((corner, l) for l in labels)
        absolute = word + chain
        affine = _root_affine(spec, absolute)
        corner_words.append(absolute)
        corner_affines.append(affine)
        corner_vertex_coords.append(frozenset(cell_corners(affine)))
    boundary_coords = frozenset(net.coords[v] for v in net.boundary)
    boundary = set(net.boundary)
    inner_ids = [v for v in range(net.n_vertices) if v not in boundary]
    if not inner_ids:
        raise EmptyInnerSetError(f"no inner vertices below {encode_word(word)!r} at N={N}")
    return InnerSetDescriptor(
        word=word,
        N=N,
        corner_words=corner_words,
        corner_affines=corner_affines,
        corner_vertex_coords=corner_vertex_coords,
        boundary_coords=boundary_coords,
        inner_vertex_ids=inner_ids,
        inner_vertex_coords=[net.coords[v] for v in inner_ids],
        network=net,
    )


@dataclass
class CapacityResult:
    """Capacity estimates over nested refinements, with the equilibrium
    potential on the finest network.  Values are root normalized; divide by
    root_r for the absolute scale."""

    kind: str
    word: Word
    base_depth: int
    refinements: list
    values: list
    root_r: Fraction = Fraction(1)
    mode: str = "exact"
    finest_network: ConductanceNetwork = None
    finest_potentials: dict = None

    @property
    def absolute_values(self) -> list:
        out = []
        for v in self.values:
            if isinstance(v, Fraction):
                out.append(v / self.root_r)
            else:
                out.append(v / float(self.root_r))
        return out


def relative_capacity(
    spec: GasketSpec,
    word: Word,
    N: int,
    K: int = 0,
    mode: str = "auto",
    budget: int = DEFAULT_WORD_BUDGET,
) -> CapacityResult:
    """Capacity between the inner set and the word's own corners, estimated on
    networks of depth N..N+K below the word (non-increasing in the depth)."""
    if K < 0:
        raise InvalidParameterError(f"refinement must be >= 0, got {K}")
    desc = inner_set(spec, word, N)
    values = []
    refinements = []
    finest = None
    used_mode = mode
    for k in range(K + 1):
        net = desc.network if k == 0 else level_network(spec, N + k, root=word, budget=budget)
        bmap = {}
        for v in range(net.n_vertices):
            cls = desc.classify(net.coords[v])
            if cls == "boundary":
                bmap[v] = Fraction(0)
            elif cls == "inner":
                bmap[v] = Fraction(1)
        pots, energy, used_mode = dirichlet_solve(net, bmap, mode=mode)
        values.append(energy)
        refinements.append(k)
        finest = (net, pots)
    return CapacityResult(
        kind="inner-set",
        word=word,
        base_depth=N,
        refinements=refinements,
        values=values,
        root_r=finest[0].root_r,
        mode=used_mode,
        finest_network=finest[0],
        finest_potentials=finest[1],
    )


def point_capacity(
    spec: GasketSpec,
    word: Word,
    vertex: int,
    K: int = 0,
    base_depth: int = 1,
    mode: str = "auto",
    budget: int = DEFAULT_WORD_BUDGET,
) -> CapacityResult:
    """Capacity between one finite-level vertex and the word's corners.

    The vertex id refers to the depth-base_depth network below the word; the
    refinements re-identify it by its exact coordinates.
    """
    base = level_network(spec, base_depth, root=word, budget=budget)
    if not 0 <= vertex < base.n_vertices:
        raise InvalidVertexError(f"vertex {vertex} not in depth-{base_depth} network")
    if vertex in base.boundary:
        raise InvalidVertexError("point capacity target must not be a corner of the word")
    coord = base.coords[vertex]
    values = []
    refinements = []
    finest = None
    used_mode = mode
    for k in range(K + 1):
        net = base if k == 0 else level_network(spec, base_depth + k, root=word, budget=budget)
        x = net.coord_index[coord]
        bmap = {v: Fraction(0) for v in net.boundary}
        bmap[x] = Fraction(1)
        pots, energy, used_mode = dirichlet_solve(net, bmap, mode=mode)
        values.append(energy)
        refinements.append(k)
        finest = (net, pots)
    return CapacityResult(
        kind="point",
        word=word,
        base_depth=base_depth,
        refinements=refinements,
        values=values,
        root_r=base.root_r,
        mode=used_mode,
        finest_network=finest[0],
        finest_potentials=finest[1],
    )


# --- the balance report ---------------------------------------------------------


def sample_direction(d: int, seed: int, word_text: str, idx: int) -> list:
    """Deterministic nonconstant integer boundary vector for one sample."""
    span = 17
    attempt = 0
    while True:
        vals = []
        for k in range(d + 1):
            u = word_hash_unit(seed + 1_000_003 * attempt, f"{word_text}|{idx}|{k}")
            vals.append(int(u * (2 * span + 1)) - span)
        if len(set(vals)) > 1:
            return vals
        attempt += 1


def _int_quad(m, u) -> int:
    n = len(u)
    total = 0
    for i in range(n):
        row = m[i]
        ui = u[i]
        if ui:
            total += ui * sum(row[j] * u[j] for j in range(n))
    return total


@lru_cache(maxsize=None)
def _corner_chain_form(d: int, corner: int, labels) -> tuple:
    """(1/r_chain) A_chain^T Q A_chain cleared to integers: returns
    (integer matrix, denominator)."""
    Q = base_form(d)
    chain = None
    r_chain = Fraction(1)
    for l in labels:
        data = extension_matrices(d, l)
        A = data.A[corner - 1]
        chain = A if chain is None else mat_mul(A, chain)
        r_chain *= data.r
    M = mat_mul(mat_t(chain), mat_mul(Q.M, chain))
    entries = [[x / r_chain for x in row] for row in M]
    den = 1
    for row in entries:
        for x in row:
            den = lcm(den, x.denominator)
    ints = tuple(tuple(int(x * den) for x in row) for row in entries)
    return ints, den


@dataclass
class A3SampleRow:
    word: str
    sample_id: int
    nu_U: float
    nu_V: float
    osc: float
    cap_rel: float
    cap_pt: float
    ratio_a: float
    ratio_b: float
    ratio_c: float

    def as_list(self) -> list:
        return [
            self.word,
            self.sample_id,
            self.nu_U,
            self.nu_V,
            self.osc,
            self.cap_rel,
            self.cap_pt,
            self.ratio_a,
            self.ratio_b,
            self.ratio_c,
        ]


@dataclass
class A3Report:
    """Empirical balance constants over sampled words and harmonic directions."""

    spec_digest: str
    depth: int
    N: int
    K: int
    samples: int
    seed: int
    words_total: int
    words_with_capacity: int
    point_samples: int
    inequality_violations: int
    worst_mass_ratio: str           # max nu_U / nu_V as an exact fraction string
    C_a: float
    C_b: float
    C_c: float
    arithmetic_mode: str
    rows: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec_digest,
            "depth": self.depth,
            "inner_depth": self.N,
            "refinement": self.K,
            "samples_per_word": self.samples,
            "seed": self.seed,
            "words_total": self.words_total,
            "words_with_capacity": self.words_with_capacity,
            "point_samples": self.point_samples,
            "inequality_violations": self.inequality_violations,
            "worst_mass_ratio": self.worst_mass_ratio,
            "C_a": self.C_a,
            "C_b": self.C_b,
            "C_c": self.C_c,
            "arithmetic_mode": self.arithmetic_mode,
        }


def a3_report(
    spec: GasketSpec,
    m: int,
    N: int | None = None,
    samples: int = 64,
    K: int = 1,
    seed: int = 0,
    cap_words: int = 8,
    point_samples: int = 3,
    mode: str = "auto",
    budget: int = DEFAULT_WORD_BUDGET,
) -> A3Report:
    """Check the mass inequality exactly on every depth-m word and estimate
    the three balance constants on an equispaced word subsample.

    The inequality nu_h(U) <= 2 nu_h(V) is decided in integer arithmetic for
    `samples` seeded directions per word.  Capacities (hence C_b and C_c) use
    the Dirichlet solver on networks below each subsampled word; all three
    constants are scale invariant, so root normalization cancels.
    """
    if samples < 1:
        raise InvalidParameterError("need at least one sample per word")
    if N is None:
        N = default_inner_depth(spec)
    d = spec.d
    QI = [[int(x) for x in row] for row in base_form(d).M]
    words = enumerate_words(spec, m, budget)

    violations = 0
    worst_ratio = Fraction(0)
    per_word_samples: dict = {}
    for word, _, _ in words:
        text = encode_word(word)
        forms = []
        denoms = []
        for corner in range(1, d + 2):
            labels = corner_chain_labels(spec, word, corner, N)
            fm, den = _corner_chain_form(d, corner, labels)
            forms.append(fm)
            denoms.append(den)
        L = 1
        for den in denoms:
            L = lcm(L, den)
        mults = [L // den for den in denoms]
        rows = []
        for s_idx in range(samples):
            u = sample_direction(d, seed, text, s_idx)
            q0 = _int_quad(QI, u)
            corner_total = sum(_int_quad(fm, u) * mult for fm, mult in zip(forms, mults))
            # nu_U <= 2 nu_V  <=>  2 * corner masses <= q0
            if 2 * corner_total > q0 * L:
                violations += 1
            nu_V = Fraction(q0) - Fraction(corner_total, L)
            if nu_V > 0:
                ratio = Fraction(q0) / nu_V
                if ratio > worst_ratio:
                    worst_ratio = ratio
            osc = max(u) - min(u)
            rows.append((s_idx, q0, nu_V, osc))
        per_word_samples[word] = rows

    # capacity constants on an equispaced word subsample
    n_words = len(words)
    count = min(cap_words, n_words)
    picks = sorted({(j * n_words) // count for j in range(count)})
    C_a = float(worst_ratio)
    C_b = 0.0
    C_c = 0.0
    cap_mode = None
    sample_rows = []

    for idx in picks:
        word, r_w, _ = words[idx]
        rel = relative_capacity(spec, word, N, K, mode=mode, budget=budget)
        cap_mode = rel.mode
        cap_rel = float(rel.values[-1])
        inner = inner_set(spec, word, N).inner_vertex_ids
        pcount = min(point_samples, len(inner))
        pt_caps = []
        for j in range(pcount):
            v = inner[(j * len(inner)) // pcount]
            pt = point_capacity(spec, word, v, K=0, base_depth=N, mode=mode, budget=budget)
            pt_caps.append(float(pt.values[-1]))
        cap_pt = min(pt_caps) if pt_caps else float("nan")
        inv_r = 1.0 / float(r_w)
        for s_idx, q0, nu_V, osc in per_word_samples[word]:
            nu_U_abs = 2.0 * q0 * inv_r
            nu_V_abs = 2.0 * float(nu_V) * inv_r
            ratio_a = nu_U_abs / nu_V_abs if nu_V_abs else float("inf")
            ratio_b = cap_rel * osc * osc / (2.0 * q0)
            ratio_c = 2.0 * q0 / (cap_pt * osc * osc)
            C_b = max(C_b, ratio_b)
            C_c = max(C_c, ratio_c)
            sample_rows.append(
                A3SampleRow(
                    word=encode_word(word),
                    sample_id=s_idx,
                    nu_U=nu_U_abs,
                    nu_V=nu_V_abs,
                    osc=float(osc),
                    cap_rel=cap_rel * inv_r,
                    cap_pt=cap_pt * inv_r,
                    ratio_a=ratio_a,
                    ratio_b=ratio_b,
                    ratio_c=ratio_c,
                )
            )

    return A3Report(
        spec_digest=spec.describe(),
        depth=m,
        N=N,
        K=K,
        samples=samples,
        seed=seed,
        words_total=n_words,
        words_with_capacity=len(picks),
        point_samples=point_samples,
        inequality_violations=violations,
        worst_mass_ratio=f"{worst_ratio.numerator}/{worst_ratio.denominator}",
        C_a=C_a,
        C_b=C_b,
        C_c=C_c,
        arithmetic_mode=cap_mode or "exact",
        rows=sample_rows,
    )
