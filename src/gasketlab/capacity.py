"""Discrete relative capacities, equilibrium potentials, inner sets, and the
empirical energy/capacity balance report.

The inner set below a word excludes one N-deep corner chain per corner, by
default the shortest that contracts energy by 1/(2(d+1)) (`corner_decay_N`).  On
a network of depth >= N below the word, its capacity problem pins the word's
own corners to 0, and pins to 1 every vertex of a cell outside the chains
and every corner of a chain cell; the vertices strictly inside a chain cell
are free.  By finite ramification cells meet only at corners, so on the
depth-N network every vertex except the word's corners is pinned to 1.  The
relative capacity is then the energy of the chain cells' corner edges,
d * sum over the corners of 1/r_chain, and the networks are exact traces, so
every refinement reproduces that value.

So every capacity is one exact value, and nothing takes a refinement count.
`_chain_record` reads it off that identity for `corner_chain_capacity` and
the balance report alike; the network solve stays in the tests as its
oracle.  A point capacity pins only vertices of its base depth, so it is the
base depth's value.  Its target is where the numbering first reaches it,
corner j of a base-depth cell word + letters: `vertex_numbering` counts each
subtree's vertices from the labels of its internal cells and unranks the id
along one path of the word tree.  `_point_capacity` takes exterior traces
down those letters, on nodes named by each level's subdivision, and builds
no network and keys no vertex.

The corner masses of the A3 report are read off the corner-chain
eigenstructure: on u = a 1 + (u_i, u) v_i + y, the chain form
(1/r_chain) Q(A_chain u) is r_chain (u_i, u)^2 / d + (s_chain^2 / r_chain) Q(y),
since Q(v_i) = 1/d and Q(v_i, y) = 0.

The report takes its capacity words' floats first, then makes one pass of
its sampling loop over blocks of words and samples, writing each capacity
word's rows in the block that draws its samples.  It hashes the directions
as uint64 arrays (`_draws`, with `sample_direction` as the retry path and
oracle), and it takes every form on the quotient by constants: Q and each
chain form are symmetric with zero row sums, so
u^T M u = x^T M[1:, 1:] x with x = u[1:] - u[0], d (d + 1) / 2 monomials
instead of (d + 1)^2 products.  Q is applied in int64; the summed chain
forms, one `_chain_record` per distinct tuple of labels, keep Python ints.

Capacity values are computed on root-normalized networks (the root cell
carries conductance weight 1).  The balance constants are scale invariant,
so the root factor cancels out of every reported ratio.  Every capacity
is an exact rational.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field, fields
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm

import numpy as np

from .errors import InvalidParameterError, InvalidVertexError, NotFoundError
from .exactla import adjacency_from_edges, eliminate, integer_form
from .gasket import (
    DEFAULT_WORD_BUDGET,
    ConductanceNetwork,
    GasketSpec,
    Word,
    _mix_keys,
    _seed_state,
    encode_word,
    vertex_numbering,
    walk,
    word_hash_unit,
)
from .harmonic import base_form, check_corner, dual_vector, extension_matrices
from .subdivision import subdivide


def corner_decay_N(spec_or_dims, c, max_N: int = 64) -> int:
    """Smallest N such that every corner chain of length N contracts the
    energy mass of harmonic functions by the factor c.

    A chain fixes 1 and scales v_i by r_chain and every secondary y by
    s_chain, and Q(v_i, y) = 0, so sup_u Q(A u) / (r_chain Q(u)) over
    nonconstant u is max(r_chain, s_chain^2 / r_chain) = r_chain, since
    |s| < r.  The worst chain of length N repeats the level of largest r, so
    N is the smallest with r_max^N <= c, decided exactly.
    """
    if isinstance(spec_or_dims, GasketSpec):
        d, levels = spec_or_dims.d, spec_or_dims.levels
    else:
        d, levels = spec_or_dims
    if not levels:
        raise InvalidParameterError("need at least one level")
    c = Fraction(c)
    if not 0 < c < 1:
        raise InvalidParameterError(f"contraction target must be in (0,1), got {c}")
    r_max = max(extension_matrices(d, l).r for l in levels)
    for N in range(1, max_N + 1):
        if r_max**N <= c:
            return N
    raise NotFoundError(
        f"no N <= {max_N} achieves contraction {c}; worst sup at N={max_N} is {float(r_max**max_N):.6g}"
    )


def default_inner_depth(spec: GasketSpec) -> int:
    """Corner-chain length from the mass-halving contraction target."""
    return corner_decay_N(spec, Fraction(1, 2 * (spec.d + 1)))


def inner_depth(spec: GasketSpec, N: int | None) -> int:
    """The inner-set depth N, `default_inner_depth(spec)` for None; refused below 1."""
    if N is None:
        return default_inner_depth(spec)
    if N < 1:
        raise InvalidParameterError(f"inner-set depth must be >= 1, got {N}")
    return N


def corner_chain_labels(spec: GasketSpec, word: Word, corner: int, N: int) -> tuple:
    """Labels l_1..l_N of the admissible corner chain i^l1 ... i^lN below word,
    which must be admissible; the corner i must be in 1..d+1."""
    N = inner_depth(spec, N)
    check_corner(spec.d, corner)
    return _chain_labels(spec, spec.validate_word(word), corner, N)


def _chain_labels(spec: GasketSpec, key, corner: int, N: int) -> tuple:
    """The same labels below the word whose label key is `key`."""
    labels = []
    for _ in range(N):
        l = spec.key_label(key)
        labels.append(l)
        key = spec.child_key(key, (corner, l))
    return tuple(labels)


def corner_chain_capacity(spec: GasketSpec, word: Word, N: int) -> Fraction:
    """The root-normalized relative capacity below `word` from the corner-chain
    identity: d * sum over the corners of 1/r_chain, where r_chain is the
    product of r over the labels of the corner's N-deep chain."""
    N, key = inner_depth(spec, N), spec.validate_word(word)
    return _chain_record(spec.d, tuple(_chain_labels(spec, key, c, N) for c in range(1, spec.d + 2)))[2]


def inner_set_pins(spec: GasketSpec, word: Word, N: int, net: ConductanceNetwork) -> dict:
    """The boundary values of the inner-set capacity problem on `net`, a
    network of depth >= N below `word`: 0 on the word's corners, 1 on every
    vertex of a cell outside the N-deep corner chains and on every corner of
    a chain cell.  Vertices strictly inside a chain cell are left free.

    The child with letter k + 1 keeps its parent's corner k as its own corner
    k, so corner k of a chain cell is corner k of the network cell below it
    whose letters past the chain are all k + 1: one pass over `net.cells`."""
    if net.root != word or net.depth < N:
        raise InvalidParameterError(f"inner-set pins need a network of depth >= {N} below the word")
    one = Fraction(1)
    chains = {tuple((c, l) for l in corner_chain_labels(spec, word, c, N)) for c in range(1, spec.d + 2)}
    pins = {}
    for rel, ids, _ in net.cells:
        inside = rel[:N] in chains
        pins.update((v, one) for k, v in enumerate(ids) if not inside or all(i == k + 1 for i, _ in rel[N:]))
    pins.update(dict.fromkeys(net.boundary, Fraction(0)))
    return pins


def _point_capacity(spec: GasketSpec, letters: tuple, j: int) -> Fraction:
    """The root-normalized capacity between corner j of the cell
    word + letters (`_point_target`) and the word's corners, merged into one
    ground node, by one descent of exterior traces along `letters`.

    A trailing letter j + 1 is a corner cell that keeps the vertex its
    parent's corner j, so those letters are dropped: the vertex first
    appears in the subdivision of the last cell left.  At each cell the
    local network is `exterior`, the trace of everything outside the cell
    onto its corners and ground, plus each child's complete graph with
    conductance 1/r_child, the exact trace of its subtree.  Its nodes are
    the level-l subdivision's vertices p: the cell's corner c where p is
    subdivision corner c, else (depth, p).  At the last letter the value is
    the local network's effective conductance between the vertex and
    ground; above it, the next cell's exterior is the local network without
    that cell's graph, traced onto its corners and ground."""
    while letters[-1][0] == j + 1:
        letters = letters[:-1]
    d, r = spec.d, Fraction(1)
    ground = (0, -1)  # a tuple like every other node, since eliminate breaks ties by comparing nodes
    corners, exterior = [ground] * (d + 1), []
    for k, (i, l) in enumerate(letters):
        cell_vertices = subdivide(d, l).cell_vertices
        named = {cell_vertices[c][c]: corner for c, corner in enumerate(corners)}
        nodes = [[named.get(p, (k, p)) for p in vertices] for vertices in cell_vertices]
        r *= spec.r_of_letter((i, l))  # every child's r relative to the word
        graphs = [[(a, b, 1 / r) for a, b in combinations(ns, 2)] for ns in nodes]
        if k + 1 == len(letters):
            point = nodes[i - 1][j]
            local = adjacency_from_edges(exterior + [e for graph in graphs for e in graph])
            return eliminate(local, {point, ground})[0][point][ground]
        outside = adjacency_from_edges(exterior + [e for c, graph in enumerate(graphs) if c != i - 1 for e in graph])
        trace, _ = eliminate(outside, {*nodes[i - 1], ground})
        exterior = [(a, b, c) for a, nbrs in trace.items() for b, c in nbrs.items() if a < b]
        corners = nodes[i - 1]


def _point_target(spec: GasketSpec, word: Word, vertex: int, base_depth: int, budget: int) -> tuple:
    """(letters, j): vertex id `vertex` of the depth-base_depth network below
    the word, which is neither built nor numbered, as corner j of the cell
    word + letters where that network's walk first reaches it
    (`VertexNumbering.corner_of`).  Corner cell c holds one corner of its
    parent, its own corner c, so the vertex is the word's corner j iff every
    letter is j + 1, and such a target is refused."""
    letters, j = vertex_numbering(spec, base_depth, word, budget).corner_of(vertex)
    if all(i == j + 1 for i, _ in letters):
        raise InvalidVertexError("point capacity target must not be a corner of the word")
    return letters, j


def point_capacity(
    spec: GasketSpec, word: Word, vertex: int, base_depth: int = 1, budget: int = DEFAULT_WORD_BUDGET
) -> Fraction:
    """Root-normalized capacity between vertex id `vertex` of the
    depth-base_depth network below the word and the word's corners, by the
    `_point_capacity` descent to its `_point_target`; divide by r_w for the
    absolute scale."""
    return _point_capacity(spec, *_point_target(spec, word, vertex, base_depth, budget))


# --- the balance report ---------------------------------------------------------


_SPAN = 17  # direction coordinates lie in [-_SPAN, _SPAN]
_BLOCK = 1024  # word x sample cells per block of the sampling loop, so the temporaries stay small


def sample_direction(d: int, seed: int, word_text: str, idx: int) -> list:
    """Deterministic nonconstant integer boundary vector for one sample.

    Attempt a draws coordinate k as int(u * (2 * _SPAN + 1)) - _SPAN with
    u = word_hash_unit(seed + 1_000_003 * a, f"{word_text}|{idx}|{k}"), and
    the first nonconstant attempt is returned.  `_draws` draws the same
    vectors for whole blocks of words and samples from shared hash prefixes;
    this is its retry path and the oracle of its tests."""
    attempt = 0
    while True:
        vals = []
        for k in range(d + 1):
            u = word_hash_unit(seed + 1_000_003 * attempt, f"{word_text}|{idx}|{k}")
            vals.append(int(u * (2 * _SPAN + 1)) - _SPAN)
        if len(set(vals)) > 1:
            return vals
        attempt += 1


def _draws(d: int, seed: int, texts: list, start: int, stop: int) -> np.ndarray:
    """sample_direction(d, seed, text, idx) for every word text in `texts`
    and idx in range(start, stop), as an int64 array of shape
    (len(texts), stop - start, d + 1).

    The attempt-0 hash of f"{text}|{idx}|{k}" is one splitmix64 byte stream.
    The state after f"{text}|" is taken once per word; `_mix_keys` continues
    those states over f"{idx}|", one pass per digit count, and then over
    str(k).  A draw is constant exactly when its oscillation is 0, and
    sample_direction retries those."""
    states = np.array([_seed_state(seed, f"{text}|") for text in texts], dtype=np.uint64)
    out = np.empty((len(texts), stop - start, d + 1), dtype=np.int64)
    lo = start
    while lo < stop:
        hi = min(stop, 10 ** len(str(lo)))  # the samples whose idx has as many digits as lo
        tails = np.array([list(f"{idx}|".encode()) for idx in range(lo, hi)], dtype=np.uint64).T
        h = _mix_keys(states[:, None], tails)
        for k in range(d + 1):
            u = _mix_keys(h, str(k)) / 2.0**64
            out[:, lo - start : hi - start, k] = (u * (2 * _SPAN + 1)).astype(np.int64) - _SPAN
        lo = hi
    for w, s in np.argwhere(out.max(axis=2) == out.min(axis=2)):
        out[w, s] = sample_direction(d, seed, texts[w], start + int(s))
    return out


@lru_cache(maxsize=None)
def _monomials(d: int) -> tuple:
    """(iu, ju): the monomials x_i x_j, i <= j, of x = u[1:] - u[0]."""
    return np.triu_indices(d)


def _quotient_coefficients(M, iu, ju) -> list:
    """The coefficients of u^T M u over the monomials x_i x_j, (i, j) in
    zip(iu, ju), of x = u[1:] - u[0].  M is symmetric and vanishes on
    constants, so u^T M u = x^T M[1:, 1:] x."""
    return [M[i][i] if i == j else M[i][j] + M[j][i] for i, j in zip(iu + 1, ju + 1)]


@lru_cache(maxsize=None)
def _corner_chain_form(d: int, corner: int, labels) -> tuple:
    """(1/r_chain) A_chain^T Q A_chain cleared to integers: returns
    (integer matrix, denominator).  It is r_chain P + (s_chain^2 / r_chain)
    (Q - P) with P = u_i u_i^T / d, u_i the corner's dual vector."""
    r_chain = s_chain = Fraction(1)
    for l in labels:
        data = extension_matrices(d, l)
        r_chain *= data.r
        s_chain *= data.s
    t = s_chain * s_chain / r_chain
    u_i = dual_vector(d, corner)
    entries = [(r_chain - t) * a * b / d + t * q for a, row in zip(u_i, base_form(d).M) for b, q in zip(u_i, row)]
    ints, den = integer_form(entries)
    n = d + 1
    return tuple(tuple(ints[k : k + n]) for k in range(0, n * n, n)), den


@lru_cache(maxsize=None)
def _chain_record(d: int, chains: tuple) -> tuple:
    """(G, L, cap_rel) of one word's corner chains, `chains` their label tuples
    in corner order: G the summed chain forms as integer coefficients on the
    quotient monomials over their common denominator L, and the word's
    root-normalized relative capacity cap_rel = d * sum of 1/r_chain."""
    corner_forms = [_corner_chain_form(d, corner, labels) for corner, labels in enumerate(chains, 1)]
    L = lcm(*(den for _, den in corner_forms))
    form = [[sum(fm[i][j] * (L // den) for fm, den in corner_forms) for j in range(d + 1)] for i in range(d + 1)]
    # corner i's form is r_chain d at (i, i), as P_ii = Q_ii = d, so d / r_chain = d^2 den / fm[i][i]
    B = lcm(*(fm[i][i] for i, (fm, _) in enumerate(corner_forms)))
    cap_rel = Fraction(d * d * sum(den * (B // fm[i][i]) for i, (fm, den) in enumerate(corner_forms)), B)
    return tuple(_quotient_coefficients(form, *_monomials(d))), L, cap_rel


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
        return list(astuple(self))


@dataclass
class A3Report:
    """Empirical balance constants over sampled words and harmonic directions.
    Each field but `rows` is a key of `to_dict`, which adds the
    `arithmetic_mode`; the rows go to their own CSV."""

    spec: str
    depth: int
    inner_depth: int
    samples_per_word: int
    seed: int
    words_total: int
    words_with_capacity: int
    point_samples: int
    inequality_violations: int
    worst_mass_ratio: str           # max nu_U / nu_V as an exact fraction string
    C_a: float
    C_b: float
    C_c: float
    rows: list = field(default_factory=list, repr=False)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rows"}
        return {**out, "arithmetic_mode": "exact"}


def a3_report(
    spec: GasketSpec,
    m: int,
    N: int | None = None,
    samples: int = 64,
    seed: int = 0,
    cap_words: int = 8,
    point_samples: int = 3,
    budget: int = DEFAULT_WORD_BUDGET,
) -> A3Report:
    """Check the mass inequality exactly on every depth-m word and estimate
    the three balance constants on an equispaced word subsample.

    The capacity words come first, in ascending order.  C_b uses each one's
    relative capacity from the `_chain_record` of its chains, exact at every
    refinement.  C_c uses point capacities at vertices of the depth-N
    network below the word, equispaced among the ids that are not the word's
    corners: `vertex_numbering` counts them without numbering that network,
    refusing one over the budget, and its inner `corner_of` unranks each
    pick straight to its cell corner.  Each is the exact value of one
    `_point_capacity` descent, which `capacity --point` uses too.  cap_rel,
    the least point capacity and 1/r_w are taken to floats once per word,
    cap_rel before the descents; a value beyond float range raises
    InvalidParameterError before any sample is drawn.

    The inequality nu_h(U) <= 2 nu_h(V) is then decided in plain integers for
    `samples` seeded directions per word, drawn by `_draws` for up to
    `_BLOCK` word x sample cells at a time.  The d+1 corner-chain forms are
    summed into one integer form G over their common denominator L, the
    word's `_chain_record`, so nu_U = u^T Q u and
    nu_V = (nu_U L - u^T G u) / L.  Both are taken on the monomials of
    x = u[1:] - u[0]: u^T Q u in int64, exact since |x_i| <= 2 _SPAN + 1,
    and u^T G u against G's Python-int coefficients, exact for any L.  The
    worst nu_U / nu_V is kept as an integer pair compared by
    cross-multiplication.  A capacity word's rows are written, and C_b and
    C_c folded, in the block where its samples are drawn.
    All three constants are scale invariant, so root normalization cancels.
    """
    if samples < 1:
        raise InvalidParameterError("need at least one sample per word")
    if cap_words < 1:
        raise InvalidParameterError("need at least one capacity word")
    if point_samples < 1:
        raise InvalidParameterError("need at least one point sample per word")
    N = inner_depth(spec, N)
    d = spec.d
    words = list(walk(spec, m, None, spec.child_key, budget=budget))  # (word, label key)

    n_words = len(words)
    count = min(cap_words, n_words)
    picks = sorted({(j * n_words) // count for j in range(count)})

    # every form below vanishes on constants, so each is taken on x = u[1:] - u[0]
    iu, ju = _monomials(d)
    Q = np.array(_quotient_coefficients([[int(x) for x in row] for row in base_form(d).M], iu, ju))
    texts = [encode_word(word) for word, _ in words]
    records = [_chain_record(d, tuple(_chain_labels(spec, key, c, N) for c in range(1, d + 2))) for _, key in words]
    # word by word: the summed form G over its denominator L, in Python ints, exact for any L
    G = np.array([g for g, _, _ in records], dtype=object)
    L = np.array([den for _, den, _ in records], dtype=object)

    # numbered first, so a depth-N network over the budget is refused before
    # anything is solved, and cap_rel is a float before the descents, so a
    # capacity beyond float range is refused before they run
    constants = {}  # word index -> (cap_rel, cap_pt, 1/r_w) as floats
    for idx in picks:
        word, _ = words[idx]
        numbering = vertex_numbering(spec, N, word, budget)
        try:
            cap_rel = float(records[idx][2])
            # the point samples are equispaced among the ids that are not the word's corners
            n_inner = numbering.n_vertices - (d + 1)
            pcount = min(point_samples, n_inner)
            targets = (numbering.corner_of((j * n_inner) // pcount, inner=True) for j in range(pcount))
            cap_pt = float(min(_point_capacity(spec, *target) for target in targets))
            constants[idx] = cap_rel, cap_pt, 1.0 / float(spec.r_of_word(word))
        except OverflowError:
            raise InvalidParameterError("the capacities below a word are too large for floating point") from None

    violations = 0
    wp, wq = 0, 1  # the worst nu_U / nu_V so far, as the integer pair wp / wq
    C_b = C_c = 0.0
    rows = []
    block_words = max(1, _BLOCK // samples)
    block_samples = min(samples, _BLOCK)
    for w0 in range(0, n_words, block_words):
        w1 = min(n_words, w0 + block_words)
        for s0 in range(0, samples, block_samples):
            s1 = min(samples, s0 + block_samples)
            u = _draws(d, seed, texts[w0:w1], s0, s1)
            x = u[..., 1:] - u[..., :1]
            mono = x[..., iu] * x[..., ju]
            q0 = mono @ Q
            corner_total = (mono * G[w0:w1, None, :]).sum(axis=2)
            # nu_U = q0 and nu_V = nv / L;  nu_U <= 2 nu_V  <=>  2 * corner masses <= q0
            qL = q0 * L[w0:w1, None]
            nv = qL - corner_total
            violations += int(np.count_nonzero(2 * corner_total > qL))
            positive = nv > 0
            for p, q in zip(qL[positive].tolist(), nv[positive].tolist()):
                if p * wq > wp * q:
                    wp, wq = p, q
            # a word's samples span blocks only with one word per block, so the
            # rows come word by word, samples ascending
            for w in sorted(constants.keys() & range(w0, w1)):
                cap_rel, cap_pt, inv_r = constants[w]
                i = w - w0
                osc = u[i].max(axis=1) - u[i].min(axis=1)
                for s_idx, q, v, o in zip(range(s0, s1), q0[i].tolist(), nv[i].tolist(), osc.tolist()):
                    nu_U = 2.0 * q * inv_r
                    nu_V = 2.0 * (v / L[w]) * inv_r  # int / int is correctly rounded, so this is float(Fraction(v, L))
                    ratio_b = cap_rel * o * o / (2.0 * q)
                    ratio_c = 2.0 * q / (cap_pt * o * o)
                    C_b = max(C_b, ratio_b)
                    C_c = max(C_c, ratio_c)
                    rows.append(
                        A3SampleRow(
                            word=texts[w],
                            sample_id=s_idx,
                            nu_U=nu_U,
                            nu_V=nu_V,
                            osc=float(o),
                            cap_rel=cap_rel * inv_r,
                            cap_pt=cap_pt * inv_r,
                            ratio_a=nu_U / nu_V if nu_V else float("inf"),
                            ratio_b=ratio_b,
                            ratio_c=ratio_c,
                        )
                    )
    worst_ratio = Fraction(wp, wq)
    return A3Report(
        spec=spec.describe(),
        depth=m,
        inner_depth=N,
        samples_per_word=samples,
        seed=seed,
        words_total=n_words,
        words_with_capacity=len(picks),
        point_samples=point_samples,
        inequality_violations=violations,
        worst_mass_ratio=f"{worst_ratio.numerator}/{worst_ratio.denominator}",
        C_a=float(worst_ratio),
        C_b=C_b,
        C_c=C_c,
        rows=rows,
    )
