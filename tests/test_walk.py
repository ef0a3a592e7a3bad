"""Property tests of the word-tree walk and the incremental label keys, across
dimensions, level sets, labelings, seeds and measures."""

import ast
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gasketlab
import gasketlab.cli
import gasketlab.gasket as gasket
from gasketlab.energy import (
    _cell_energies,
    _child_chains,
    _depth_scan,
    _energy_form,
    _float_letter_stacks,
    _stack_eigvalsh,
    basis_from_vectors,
    default_basis,
)
from gasketlab.errors import BudgetExceededError, DegenerateBasisError, GasketLabError, InvalidVertexError
from gasketlab.gasket import (
    DEFAULT_WORD_BUDGET,
    ConductanceNetwork,
    GasketSpec,
    _corner_keys,
    _denominator,
    _key_ops,
    _label_pass_numbering,
    _mix64,
    _mix_text,
    _one_level_numbering,
    _root_cell,
    encode_word,
    frontier,
    iter_words,
    level_network,
    measure_totals,
    vertex_numbering,
    walk,
    word_hash_unit,
)
from gasketlab.harmonic import extension_matrices
from gasketlab.subdivision import cell_count, subdivide

PROPERTY = settings(max_examples=40, deadline=None)


@st.composite
def specs(draw, dims=(2, 3), homogeneous=False):
    d = draw(st.sampled_from(dims))
    levels = sorted(draw(st.lists(st.integers(2, 5), min_size=1, max_size=1 if homogeneous else 4, unique=True)))
    kinds = ["homogeneous"] if homogeneous else ["seeded", "explicit"] + (["homogeneous"] if len(levels) == 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "homogeneous":
        labeling = None
    elif kind == "seeded":
        weights = {l: float(draw(st.integers(0, 4))) for l in levels}
        if not any(weights.values()):
            weights[levels[0]] = 1.0
        labeling = {"type": "seeded", "seed": draw(st.integers(-(2**70), 2**70)), "weights": weights}
    else:
        default = draw(st.sampled_from(levels))
        # letters of the default level make most of the entries reachable
        letters = st.sampled_from([(i, l) for l in levels for i in range(1, min(cell_count(d, l), 4) + 1)])
        letters |= st.sampled_from([(i, default) for i in range(1, 4)])
        words = st.lists(letters, max_size=3).map(lambda w: encode_word(tuple(w)))
        entries = draw(st.dictionaries(words, st.sampled_from(levels), max_size=8))
        labeling = {"type": "explicit", "entries": entries, "default": default}
    measure = "natural"
    if draw(st.booleans()):
        table = {}
        for l in levels:
            raw = draw(st.lists(st.integers(1, 9), min_size=cell_count(d, l), max_size=cell_count(d, l)))
            table[l] = [Fraction(x, sum(raw)) for x in raw]
        measure = {"per_letter": table}
    return GasketSpec(d, levels, labeling, measure)


def max_depth(spec: GasketSpec) -> int:
    """The deepest walk that stays below a few thousand words."""
    widest = max(cell_count(spec.d, l) for l in spec.levels)
    m = 0
    while widest ** (m + 1) <= 4000:
        m += 1
    return m


def reference_label(spec: GasketSpec, word) -> int:
    """The label from the whole word: the hash of its encoding, or the entry."""
    labeling = spec.labeling
    if labeling["type"] == "homogeneous":
        return spec.levels[0]
    text = encode_word(word)
    if labeling["type"] == "explicit":
        return labeling["entries"].get(text, labeling["default"])
    u = word_hash_unit(labeling["seed"], text)
    weights = labeling["weights"]
    total = sum(weights[l] for l in spec.levels)
    acc = 0.0
    for l in spec.levels:
        acc += weights[l] / total
        if u < acc:
            return l
    return spec.levels[-1]


def reference_words(spec: GasketSpec, m: int, root=()) -> list:
    """Admissible depth-m continuations of root, level by level."""
    words = [root]
    for _ in range(m):
        words = [
            w + ((i, l),)
            for w in words
            for l in [reference_label(spec, w)]
            for i in range(1, cell_count(spec.d, l) + 1)
        ]
    return [w[len(root):] for w in words]


def walked_words(spec: GasketSpec, m: int, root=()) -> list:
    return [w for w, _ in walk(spec, m, None, lambda state, letter: None, root=root)]


@PROPERTY
@given(specs(), st.data())
def test_label_keys_match_the_whole_word_reference(spec, data):
    m = max_depth(spec)
    for word in data.draw(st.lists(st.sampled_from(reference_words(spec, m)), max_size=10)):
        key = None
        for n in range(len(word) + 1):
            prefix = word[:n]
            assert spec.key_label(key) == reference_label(spec, prefix)
            assert spec.label_of(prefix) == reference_label(spec, prefix)
            if spec.labeling["type"] == "seeded" and prefix:
                assert key / 2.0**64 == word_hash_unit(spec.labeling["seed"], encode_word(prefix))
            if n < len(word):
                key = spec.child_key(key, word[n])
        assert spec.validate_word(word) == key == spec.label_key(word)


def mix_text_reference(h: int, text: str) -> int:
    """The splitmix64 state h continued over text: one _mix64 per UTF-8 byte."""
    for b in text.encode("utf-8"):
        h = _mix64(h ^ b)
    return h


@PROPERTY
@given(st.integers(0, 2**64 - 1), st.text())
@example(2**64 - 1, "1^2.3^3|é∂|")
def test_mix_text_is_the_per_byte_mix64_fold(h, text):
    assert _mix_text(h, text) == mix_text_reference(h, text)


def test_gasket_is_the_one_owner_of_the_label_hash():
    # the splitmix64 constants are spelled in gasket alone, and capacity
    # reaches the hash without the float module
    package = Path(gasketlab.__file__).parent
    spelled = sorted(path.name for path in package.glob("*.py") if "9E3779B97F4A7C15" in path.read_text().upper())
    assert spelled == ["gasket.py"]
    imports = [node for node in ast.walk(ast.parse((package / "capacity.py").read_text()))
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = [node.module or "" for node in imports if isinstance(node, ast.ImportFrom)]
    names += [alias.name for node in imports for alias in node.names]
    assert not [name for name in names if name.rsplit(".", 1)[-1] == "energy"]


def test_the_frontier_is_the_one_caller_of_the_whole_depth_keys():
    # a depth at a time, the label keys are hashed in gasket.frontier alone
    package = Path(gasketlab.__file__).parent
    callers = set()
    for path in package.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                name = getattr(node, "func", None)
                if isinstance(node, ast.Call) and "_key_ops" in (getattr(name, "id", None), getattr(name, "attr", None)):
                    callers.add((path.name, getattr(top, "name", None)))
    assert callers == {("gasket.py", "frontier")}


def test_the_point_path_is_key_free():
    # a point target is a cell corner read off the numbering's own path, so
    # the point path keys no vertex, composes no cell and hashes no label,
    # and no module tests a cell for a vertex
    package = Path(gasketlab.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}
    defined = {
        getattr(node, "name", None) or getattr(node, "id", None)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) or isinstance(getattr(node, "ctx", None), ast.Store)
    }
    assert "_misses" not in defined
    banned = {"_denominator", "_root_cell", "_cell_step", "_corner_keys", "child_key", "key_label", "validate_word"}
    for module, *path in (("capacity.py", "_point_capacity"), ("capacity.py", "_point_target"),
                          ("gasket.py", "VertexNumbering", "corner_of")):
        body = trees[module]
        for name in path:
            body = next(node for node in body.body if getattr(node, "name", None) == name)
        named = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(body)}
        assert not named & banned, (module, path, named & banned)


def test_the_input_boundary_rules_are_written_once():
    # cli catches library errors only as GasketLabError, whose type sets the
    # exit code, and gasket alone spells the default budget, the depth and
    # budget checks and the refusals of too many words and too many cells
    package = Path(gasketlab.__file__).parent
    sources = {path.name: path.read_text() for path in package.glob("*.py")}
    namespace = vars(gasketlab.cli)
    for node in ast.walk(ast.parse(sources["cli.py"])):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = eval(ast.unparse(node.type), namespace)
            caught = caught if isinstance(caught, tuple) else (caught,)
            assert [c for c in caught if issubclass(c, GasketLabError)] in ([], [GasketLabError])
    assert [name for name, text in sources.items() if "10_000_000" in text] == ["gasket.py"]
    for message in ("depth must be >= 0", "budget must be >= 1", "more than {budget} words at depth {m}"):
        assert sum(text.count(message) for text in sources.values()) == 1
    cells = "more than {budget} cells at depth"
    assert sources["gasket.py"].count(cells) == sum(text.count(cells) for text in sources.values()) == 1
    # and cli declares each shared argument once, in a parent parser
    for flag in ('"--spec"', '"--out"', '"--budget"'):
        assert sources["cli.py"].count(flag) == 1, flag
    # capacity alone spells the inner-set depth rule, and harmonic the corner rule
    for name, message in (("capacity.py", "inner-set depth must be >= 1"), ("harmonic.py", "corner must be in 1..")):
        assert sources[name].count(message) == sum(text.count(message) for text in sources.values()) == 1, message


@PROPERTY
@given(specs(), st.data())
def test_walk_yields_the_admissible_words_in_depth_lex_order(spec, data):
    m = data.draw(st.integers(0, max_depth(spec)))
    words = walked_words(spec, m)
    assert words == sorted(reference_words(spec, m))


@PROPERTY
@given(specs(), st.data())
def test_walk_below_a_root_is_the_matching_suffixes(spec, data):
    m = max_depth(spec)
    k = data.draw(st.integers(0, m))
    full = walked_words(spec, m)
    root = data.draw(st.sampled_from(full))[:k]
    assert walked_words(spec, m - k, root) == [w[k:] for w in full if w[:k] == root]


@PROPERTY
@given(specs(), st.data())
def test_iter_words_weights_are_the_per_letter_products(spec, data):
    m = data.draw(st.integers(0, max_depth(spec)))
    k = data.draw(st.integers(0, m))
    root = data.draw(st.sampled_from(walked_words(spec, k)))
    for word, r, mu in iter_words(spec, m - k, root=root):
        want_r, want_mu = Fraction(1), Fraction(1)
        for i, l in word:
            want_r *= extension_matrices(spec.d, l).r
            if spec.measure == "natural":
                want_mu *= Fraction(1, cell_count(spec.d, l))
            else:
                want_mu *= spec.measure["per_letter"][l][i - 1]
        assert (r, mu) == (want_r, want_mu)


@PROPERTY
@given(specs())
def test_measure_totals_are_one_at_every_depth(spec):
    m = max_depth(spec)
    assert measure_totals(spec, m) == [1] * (m + 1)


def test_iter_words_is_the_fraction_fold_below_a_root_with_a_per_letter_measure():
    measure = {"per_letter": {2: ["1/2", "1/4", "1/4"], 3: ["1/3", "1/6", "1/6", "1/12", "1/12", "1/6"]}}
    spec = GasketSpec(2, [2, 3], {"type": "seeded", "seed": 4, "weights": {2: 1.0, 3: 2.0}}, measure)
    root = walked_words(spec, 2)[-1]
    rows = list(iter_words(spec, 3, root=root))
    assert [w for w, _, _ in rows] == walked_words(spec, 3, root)
    for word, r, mu in rows:
        want_r, want_mu = Fraction(1), Fraction(1)
        for letter in word:
            want_r *= spec.r_of_letter(letter)
            want_mu *= spec.mu_of_letter(letter)
        assert (r, mu) == (want_r, want_mu)
    assert len({mu for _, _, mu in rows}) > 1


def network_depth(spec: GasketSpec) -> int:
    """The deepest network that stays below a few hundred cells."""
    widest = max(cell_count(spec.d, l) for l in spec.levels)
    m = 0
    while widest ** (m + 1) <= 400:
        m += 1
    return m


@PROPERTY
@given(specs())
def test_every_network_sets_each_cell_edge_once(spec):
    # distinct cells share at most one vertex, so no two cells share an edge
    net = level_network(spec, network_depth(spec))
    d = spec.d
    assert len(net.edges) == len(net.cells) * d * (d + 1) // 2
    for _, ids, w in net.cells:
        assert all(net.edges[min(i, j), max(i, j)] == w for i in ids for j in ids if i != j)


# --- the Fraction-keyed network builder, kept as the oracle of level_network ---


def reference_affine_step(affine, letter):
    """The map (scale, offset) of the child cell `letter`, in Fractions."""
    scale, offset = affine
    i, l = letter
    alpha = subdivide(len(offset) - 1, l).cells[i - 1]
    return scale / l, [offset[k] + scale * alpha[k] for k in range(len(offset))]


def reference_root_affine(spec, root):
    return reduce(reference_affine_step, root, (Fraction(1), [Fraction(0)] * (spec.d + 1)))


def reference_corners(affine):
    scale, offset = affine
    n = len(offset)
    return [tuple(offset[t] + (scale if t == k else 0) for t in range(n)) for k in range(n)]


def reference_network(spec, m, root=()):
    """level_network with Fraction coordinates all the way: the walk carries
    each cell's map (scale, offset) and r_w as Fractions, and a vertex is
    numbered by its coordinate tuple."""
    d = spec.d
    root_affine = reference_root_affine(spec, root)
    coords, coord_index, edges, cells = [], {}, {}, []

    def vid_of(coord):
        if coord not in coord_index:
            coord_index[coord] = len(coords)
            coords.append(coord)
        return coord_index[coord]

    def step(state, letter):
        affine, r = state
        return reference_affine_step(affine, letter), r * spec.r_of_letter(letter)

    for word, (affine, r) in walk(spec, m, (root_affine, Fraction(1)), step, root):
        ids = tuple(vid_of(coord) for coord in reference_corners(affine))
        for a in range(d + 1):
            for b in range(a + 1, d + 1):
                edges[min(ids[a], ids[b]), max(ids[a], ids[b])] = 1 / r
        cells.append((word, ids, 1 / r))
    boundary = [vid_of(coord) for coord in reference_corners(root_affine)]
    root_r = reduce(lambda r, letter: r * spec.r_of_letter(letter), root, Fraction(1))
    return ConductanceNetwork(d, coords, coord_index, edges, boundary, cells, root, root_r, m)


@PROPERTY
@given(specs(), st.data())
def test_level_network_is_the_fraction_keyed_reference(spec, data):
    # below a root word of depth 0..2
    root = data.draw(st.sampled_from(walked_words(spec, data.draw(st.integers(0, 2)))))
    m = network_depth(spec)
    want = reference_network(spec, m, root)
    got = level_network(spec, m, root)
    assert got.coords == want.coords
    assert all(type(x) is Fraction for coord in got.coords for x in coord)
    assert got.coord_index == want.coord_index
    assert got.edges == want.edges
    assert got.cells == want.cells
    assert (got.boundary, got.root_r, got.root, got.depth) == (want.boundary, want.root_r, root, m)


def test_explicit_entries_are_matched_by_canonical_text():
    spec = GasketSpec(2, [2, 3], {"type": "explicit", "entries": {"": 3, "01^3": 3, "1^3.2^3": 3}, "default": 2})
    assert spec.labeling["entries"] == {"": 3, "1^3": 3, "1^3.2^3": 3}
    assert spec.label_of(((1, 3),)) == 3
    below = [w[2] for w in walked_words(spec, 3) if w[:2] == ((1, 3), (2, 3))]
    assert below == [(i, 3) for i in range(1, 7)]


def test_walk_rejects_a_negative_depth():
    with pytest.raises(ValueError):
        list(walk(GasketSpec(2, [2]), -1, None, lambda state, letter: None))


@pytest.mark.parametrize("m, budget", [(5, 242), (100_000, 1)], ids=["one-short", "deep"])
def test_a_walk_that_must_exceed_its_budget_refuses_before_any_step(m, budget):
    # every standard-gasket cell has 3 children, so depth m has 3^m words;
    # the deep walk would hold its whole stack of word tuples before a leaf
    def step(state, letter):
        raise AssertionError("stepped")

    with pytest.raises(BudgetExceededError, match=f"^more than {budget} words at depth {m}$"):
        next(walk(GasketSpec(2, [2]), m, None, step, budget=budget))


def test_a_walk_at_exactly_its_budget_yields_every_word():
    assert len(list(walk(GasketSpec(2, [2]), 5, None, lambda state, letter: None, budget=243))) == 243
    # a level-2 cell has 3 children and a level-3 cell 6: 3^4 is below the count
    mixed = GasketSpec(2, [2, 3], {"type": "seeded", "seed": 1, "weights": {2: 1.0, 3: 1.0}})
    count = len(list(walk(mixed, 4, None, lambda state, letter: None)))
    assert 3**4 < count < 6**4
    assert len(list(walk(mixed, 4, None, lambda state, letter: None, budget=count))) == count
    with pytest.raises(BudgetExceededError, match=f"^more than {count - 1} words at depth 4$"):
        list(walk(mixed, 4, None, lambda state, letter: None, budget=count - 1))


# --- one vertex from label counts, against the numbering walk ------------------


@PROPERTY
@given(specs(), st.data())
def test_vertex_numbering_is_the_numbering_walk(spec, data):
    # below a root word of depth 0..2, at depths 0..4; each corner_of is
    # keyed here as its cell's corner, over the network's P
    root = data.draw(st.sampled_from(walked_words(spec, data.draw(st.integers(0, 2)))))
    m = data.draw(st.integers(0, min(4, max_depth(spec))))
    net, P = level_network(spec, m, root), _denominator(spec, m, root)
    keys, boundary = [tuple(int(x * P) for x in coord) for coord in net.coords], net.boundary
    numbering = vertex_numbering(spec, m, root)

    def corner_key(letters, j):
        assert len(letters) == m
        return _corner_keys(_root_cell(spec, root + letters, P))[j]

    assert numbering.n_vertices == len(keys)
    assert [corner_key(*numbering.corner_of(v)) for v in range(len(keys))] == keys
    # inner ids count only the vertices that are not the root's corners
    n_inner = numbering.n_vertices - (spec.d + 1)
    inner = [key for v, key in enumerate(keys) if v not in boundary]
    assert [corner_key(*numbering.corner_of(v, inner=True)) for v in range(n_inner)] == inner
    for v in (-1, n_inner):
        with pytest.raises(InvalidVertexError):
            numbering.corner_of(v, inner=True)


@PROPERTY
@given(specs().filter(lambda spec: len(spec.levels) == 1), st.data())
def test_the_one_level_closed_form_is_the_label_pass(spec, data):
    root = data.draw(st.sampled_from(walked_words(spec, data.draw(st.integers(0, 1)))))
    m = data.draw(st.integers(0, max_depth(spec)))
    closed = _one_level_numbering(spec, m, root, DEFAULT_WORD_BUDGET)
    passed = _label_pass_numbering(spec, m, root, DEFAULT_WORD_BUDGET)
    assert closed.n_vertices == passed.n_vertices
    for k in range(m):
        assert list(passed.labels[k]) == [spec.levels[0]] * len(passed.labels[k])
        assert list(passed.extra[k]) == [closed.extra[k][0]] * len(passed.extra[k])
    for v in data.draw(st.lists(st.integers(0, closed.n_vertices - 1), max_size=5)):
        assert closed.corner_of(v) == passed.corner_of(v)
        if v < closed.n_vertices - (spec.d + 1):
            assert closed.corner_of(v, inner=True) == passed.corner_of(v, inner=True)


# --- the array frontier, against the walk ---------------------------------------


def placed_words(spec, m, root, grouped):
    """(words, labels, first) of each depth k < m that frontier yields, and
    the words of depth m, each depth's words placed by the frontier's own
    slots: child c of cell p at depth k is cell first[p] + c at depth k+1."""
    words, depths = [()], []
    for labels, first, groups in frontier(spec, m, root, DEFAULT_WORD_BUDGET, grouped):
        labels, first = labels.tolist(), first.tolist()
        present = [l for l in spec.levels if l in labels]
        assert [(l, idx.tolist()) for l, idx in groups] == [
            (l, [p for p, q in enumerate(labels) if q == l]) for l in present
        ]
        depths.append((words, labels, first))
        below = {
            first[p] + i - 1: w + ((i, l),) for p, (w, l) in enumerate(zip(words, labels))
            for i in range(1, cell_count(spec.d, l) + 1)
        }
        assert sorted(below) == list(range(len(below)))  # every slot filled once
        words = [below[slot] for slot in range(len(below))]
    return depths, words


def frontier_roots(spec, data) -> list:
    """The empty root and a drawn non-empty one, each with a depth below it."""
    m = max_depth(spec)
    j = data.draw(st.integers(1, min(2, m - 1)))
    return [((), m), (data.draw(st.sampled_from(walked_words(spec, j))), m - j)]


# every labeling kind, half of the draws homogeneous, which _key_ops labels
# as whole arrays with no per-key call
FRONTIER_SPECS = specs() | specs(homogeneous=True)


@PROPERTY
@given(FRONTIER_SPECS, st.data())
def test_frontier_in_depth_lex_order_is_the_walk(spec, data):
    for root, m in frontier_roots(spec, data):
        depths, deepest = placed_words(spec, m, root, grouped=False)
        assert len(depths) == m and deepest == walked_words(spec, m, root)
        for k, (words, labels, first) in enumerate(depths):
            assert words == walked_words(spec, k, root)
            assert labels == [spec.label_of(root + w) for w in words]
            counts = [cell_count(spec.d, l) for l in labels]
            assert first == [sum(counts[:p]) for p in range(len(counts))]


def reference_grouped_words(spec, m, root) -> list:
    """The words of depths 0..m below root, each depth by level, then
    parent, then cell, as reference_depth_scan places its cells."""
    words = [()]
    out = [words]
    for _ in range(m):
        labels = [spec.label_of(root + w) for w in words]
        words = [
            w + ((i, l),) for l in spec.levels for w, q in zip(words, labels) if q == l
            for i in range(1, cell_count(spec.d, l) + 1)
        ]
        out.append(words)
    return out


@PROPERTY
@given(FRONTIER_SPECS, st.data())
def test_frontier_in_grouped_order_places_by_level_then_parent_then_cell(spec, data):
    for root, m in frontier_roots(spec, data):
        depths, deepest = placed_words(spec, m, root, grouped=True)
        want = reference_grouped_words(spec, m, root)
        assert [words for words, _, _ in depths] + [deepest] == want
        for k, (words, labels, _) in enumerate(depths):
            assert sorted(words) == walked_words(spec, k, root)  # the same multiset
            assert labels == [spec.label_of(root + w) for w in words]
        assert sorted(deepest) == walked_words(spec, m, root)


@PROPERTY
@given(FRONTIER_SPECS, st.data(), st.booleans())
def test_frontier_refuses_a_depth_over_budget_before_hashing_its_children(spec, data, grouped):
    # children_of is counted through a patched _key_ops: depth k has its own
    # keys hashed, to label it, and those of depth k+1 wait until the caller
    # asks for that depth, so a refused depth k hashes none of them
    real = gasket._key_ops
    hashed = []

    def counted_key_ops(spec, root=()):
        keys, labels_of, children_of = real(spec, root)

        def counted(keys, l, n, at_root):
            out = children_of(keys, l, n, at_root)
            hashed.append(len(out))
            return out

        return keys, labels_of, counted

    for root, m in frontier_roots(spec, data):
        k = data.draw(st.integers(0, m - 1))
        counts = [len(walked_words(spec, j, root)) for j in range(k + 2)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gasket, "_key_ops", counted_key_ops)
            hashed.clear()
            depths = frontier(spec, m, root, counts[k + 1], grouped)
            for _ in range(k + 1):  # a budget of exactly depth k+1's cells
                next(depths)
            assert sum(hashed) == sum(counts[1 : k + 1])
            hashed.clear()
            depths = frontier(spec, m, root, counts[k + 1] - 1, grouped)
            for _ in range(k):
                next(depths)
            text = f"cells at depth {k + 1}" if grouped else f"words at depth {m}"
            with pytest.raises(BudgetExceededError, match=f"^more than {counts[k + 1] - 1} {text}$"):
                next(depths)
            assert sum(hashed) == sum(counts[1 : k + 1])


# --- the depth scan's whole-depth label keys, against the per-key oracle -------

seeded_specs = specs().filter(lambda spec: spec.labeling["type"] == "seeded")
EDGE_KEYS = [0, 1, 2**63 - 1, 2**63, 2**64 - 1025, 2**64 - 1024, 2**64 - 1]


@PROPERTY
@given(seeded_specs, st.lists(st.integers(0, 2**64 - 1), max_size=8), st.integers(2, 12), st.sampled_from([3, 10, 15]))
def test_array_child_keys_are_child_key(spec, keys, l, n):
    # n >= 10 gives letters with a multi-digit cell index
    root, _, children = _key_ops(spec)
    keys = keys + EDGE_KEYS
    got = children(np.array(keys, dtype=np.uint64), l, n, False)
    assert got.tolist() == [spec.child_key(key, (i, l)) for key in keys for i in range(1, n + 1)]
    assert children(root, l, n, True).tolist() == [spec.child_key(None, (i, l)) for i in range(1, n + 1)]


@PROPERTY
@given(specs(), st.data())
def test_whole_depth_keys_below_a_root_are_the_folded_keys(spec, data):
    # two depths below a non-empty root, parent by parent, against child_key
    # and key_label folded from the root's own key
    root = data.draw(st.sampled_from([w for w in reference_words(spec, data.draw(st.integers(1, 2))) if w]))
    keys, labels, children = _key_ops(spec, root)
    expect = [spec.validate_word(root)]
    for depth in (1, 2):
        assert keys.tolist() == expect
        assert labels(keys).tolist() == [spec.key_label(key) for key in expect]
        next_keys, next_expect = [], []
        for p, key in enumerate(expect):
            l = spec.key_label(key)
            n = cell_count(spec.d, l)
            next_keys.append(children(keys[p : p + 1], l, n, depth == 1))
            next_expect += [spec.child_key(key, (i, l)) for i in range(1, n + 1)]
        keys, expect = np.concatenate(next_keys), next_expect
    assert keys.tolist() == expect
    assert labels(keys).tolist() == [spec.key_label(key) for key in expect]


@PROPERTY
@given(seeded_specs, st.lists(st.integers(0, 2**64 - 1), max_size=8))
def test_array_labels_are_key_label_at_every_threshold(spec, keys):
    # the weights drawn by specs() include zeros, so thresholds repeat
    # the keys whose u = key / 2**64 rounds onto acc lie within half a float64
    # ulp of acc * 2**64, and that ulp is at most 4096 below 2**64
    root, labels, _ = _key_ops(spec)
    edges = []
    for _, acc in spec.labeling["_cum"]:
        at = int(acc * 2**64)
        edges += [x for x in range(at - 2048, at + 2049) if 0 <= x < 2**64]
    keys = keys + edges + EDGE_KEYS
    assert labels(np.array(keys, dtype=np.uint64)).tolist() == [spec.key_label(key) for key in keys]
    assert labels(root).tolist() == [spec.key_label(None)]


@pytest.mark.parametrize(
    "weights, key, label",
    [
        # acc == 1.0 puts the threshold at 2**64 - 1024, whose keys map to
        # u == 1.0 and so to the last level, though its weight is 0
        ({2: 1.0, 3: 0.0}, 2**64 - 1025, 2),
        ({2: 1.0, 3: 0.0}, 2**64 - 1024, 3),
        ({2: 1.0, 3: 0.0}, 2**64 - 1, 3),
        # the last two levels' acc round above 1.0: no key reaches them, so
        # the keys above level 3's threshold take the first of them
        ({2: 0.2, 3: 0.3, 4: 0.2, 5: 0.0}, 2**64 - 1, 4),
    ],
)
def test_array_labels_keep_the_edge_quirks(weights, key, label):
    spec = GasketSpec(2, list(weights), {"type": "seeded", "seed": 3, "weights": weights})
    _, labels, _ = _key_ops(spec)
    assert spec.key_label(key) == label
    assert labels(np.array([key], dtype=np.uint64)).tolist() == [label]


def reference_depth_scan(spec, m, basis):
    """_depth_scan with the label keys taken one at a time through
    GasketSpec.child_key / key_label."""
    d, k = spec.d, basis.size
    QM = np.array([[float(d) if i == j else -1.0 for j in range(d + 1)] for i in range(d + 1)])
    stacks = _float_letter_stacks(spec)
    chains = basis.float_columns()[None, :, :]
    inv_r = np.array([1.0])
    keys = [None]
    for depth in range(1, m + 1):
        labels = [spec.key_label(key) for key in keys]
        chunk_chains, chunk_inv_r, new_keys = [], [], []
        for l in spec.levels:
            idx = [t for t, lab in enumerate(labels) if lab == l]
            if not idx:
                continue
            A_stack, rl = stacks[l]
            n_children = A_stack.shape[0]
            chunk_chains.append(np.einsum("cij,njk->ncik", A_stack, chains[idx]).reshape(-1, d + 1, k))
            chunk_inv_r.append(np.repeat(inv_r[idx] / rl, n_children))
            for t in idx:
                new_keys.extend(spec.child_key(keys[t], (i, l)) for i in range(1, n_children + 1))
        chains = np.concatenate(chunk_chains, axis=0)
        inv_r = np.concatenate(chunk_inv_r)
        keys = new_keys
        B = 2.0 * inv_r[:, None, None] * np.einsum("nij,ik,nkl->njl", chains, QM, chains)
        masses = np.trace(B, axis1=1, axis2=2) / k
        yield depth, B, masses / masses.sum()


@st.composite
def bases(draw, d):
    """The default basis, or 1..d boundary vectors independent modulo
    constants, through basis_from_vectors."""
    if draw(st.booleans()):
        return default_basis(d)
    size = draw(st.integers(1, d))
    vectors = draw(st.lists(st.lists(st.integers(-5, 5), min_size=d + 1, max_size=d + 1), min_size=size, max_size=size))
    try:
        return basis_from_vectors(d, vectors)
    except DegenerateBasisError:
        assume(False)


@PROPERTY
@given(specs(dims=(2, 3, 4)), st.data())
def test_depth_scan_is_the_per_key_reference(spec, data):
    # bitwise: full B, the upper triangle included, and the masses
    m = max_depth(spec)
    basis = data.draw(bases(spec.d))
    got = list(_depth_scan(spec, m, basis, 10**7))
    want = list(reference_depth_scan(spec, m, basis))
    assert len(got) == len(want) == m
    for (depth, B, w), (depth_ref, B_ref, w_ref) in zip(got, want):
        assert depth == depth_ref
        assert np.array_equal(B, B_ref) and np.array_equal(w, w_ref)
        assert_eigvalsh_bits(B)


@PROPERTY
@given(st.integers(1, 20), st.integers(1, 4), st.integers(1, 7), st.integers(1, 5), st.integers(0, 2**32 - 1))
@example(count=17, k=1, n_children=3, n=5, seed=0)
def test_contraction_kernels_are_the_einsums(count, k, n_children, n, seed):
    # a one-vector basis (k == 1) runs the einsum itself, whose reduction over
    # j numpy splits into SIMD lanes, so summing in plain j order differs
    rng = np.random.default_rng(seed)
    A_stack = rng.standard_normal((n_children, count, count))
    parents = rng.standard_normal((n, count, k)) * 10.0 ** rng.integers(-8, 3, (n, count, k))
    want = np.einsum("cij,njk->ncik", A_stack, parents).reshape(-1, count, k)
    got = np.zeros((count, k, n * n_children))
    _child_chains(A_stack, np.ascontiguousarray(parents.transpose(1, 2, 0)), got.reshape(count, k, n, n_children))
    assert np.array_equal(got.transpose(2, 0, 1), want)
    if count >= 3:  # a gasket has d >= 2
        QM = _energy_form(count - 1)
        assert np.array_equal(_cell_energies(got, QM).transpose(2, 0, 1), np.einsum("nij,ik,nkl->njl", want, QM, want))


@pytest.mark.parametrize("d, k", [(d, k) for d in (2, 3, 4) for k in range(1, d + 1)])
def test_cell_energies_are_the_cell_major_einsum(d, k):
    # every cell count up to 64 crosses numpy's inner-loop blocks, and 51,030
    # is the seeded d=2 T={2,3} scan's depth 8
    rng = np.random.default_rng(d * 10 + k)
    QM = _energy_form(d)
    for n in [*range(1, 65), 51030]:
        chains = rng.standard_normal((n, d + 1, k)) * 10.0 ** rng.integers(-8, 3, (n, d + 1, k))
        want = np.einsum("nij,ik,nkl->njl", chains, QM, chains)
        got = _cell_energies(np.ascontiguousarray(chains.transpose(1, 2, 0)), QM)
        assert np.array_equal(got.transpose(2, 0, 1), want)


def assert_eigvalsh_bits(B):
    # bit patterns, so signed zeros and NaNs count too
    got, want = _stack_eigvalsh(B), np.linalg.eigvalsh(B)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def stack_2x2(a, b, c, upper=None):
    """The (n, 2, 2) stack [[a, upper], [b, c]]; upper defaults to b."""
    a, b, c = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, b, c)))
    B = np.empty((a.size, 2, 2))
    B[:, 0, 0], B[:, 1, 0], B[:, 1, 1] = a.ravel(), b.ravel(), c.ravel()
    B[:, 0, 1] = B[:, 1, 0] if upper is None else np.broadcast_to(upper, a.shape).ravel()
    return B


ENTRY = st.builds(lambda x, e: x * 10.0**e, st.floats(-10, 10), st.integers(-8, 3))


@PROPERTY
@given(st.lists(st.tuples(ENTRY, ENTRY, ENTRY), min_size=1, max_size=64))
def test_stack_eigvalsh_is_eigvalsh(cells):
    a, b, c = np.array(cells).T
    assert_eigvalsh_bits(stack_2x2(a, b, c))
    assert_eigvalsh_bits(stack_2x2(a, b, -c))
    assert_eigvalsh_bits(stack_2x2(a, b, a))  # a == c
    assert_eigvalsh_bits(stack_2x2(a, b, -a))  # a == -c, so sm == 0
    assert_eigvalsh_bits(stack_2x2(a * a, a * c, c * c))  # rank one


def test_stack_eigvalsh_is_eigvalsh_on_constructed_cells():
    rng = np.random.default_rng(18)
    a = rng.standard_normal(200) * 10.0 ** rng.integers(-8, 4, 200)
    c = rng.standard_normal(200) * 10.0 ** rng.integers(-8, 4, 200)
    zeros = np.zeros(4)
    signed = np.array([0.0, -0.0])
    cases = [
        stack_2x2(zeros, zeros, zeros),
        stack_2x2(signed[:, None], signed[None, :], signed[:, None, None]),  # every sign of zero
        stack_2x2(a, 0.0, c),  # diagonal
        stack_2x2(a, zeros[:1], -0.0),
        stack_2x2(0.0, a, 0.0),
        stack_2x2(a, c, a),
        stack_2x2(a, c, -a),
        stack_2x2(np.abs(a), c, np.abs(a) * np.sign(c)),  # |a| == |c|, either sign
        stack_2x2(a, np.abs(a) * 0.5, a),  # adf < ab
        stack_2x2(a, a, -a),  # sm == 0 with adf == ab
        stack_2x2(a, 0.5 * a, 0.0),  # adf == ab, sm != 0
        stack_2x2(a, a, 0.0),
    ]
    # off-diagonals a few ulps either side of dsterf's two split tests,
    # |b| <= sqrt|a| sqrt|c| eps and b^2 <= eps^2 |a c|; with c close to a
    # the split and the dlae2 eigenvalues differ in their last bits
    eps = 2.0**-53
    for c2 in (c, a * (1.0 + 1e-15 * rng.standard_normal(200))):
        for edge in (np.sqrt(np.abs(a)) * np.sqrt(np.abs(c2)) * eps, np.sqrt(eps * eps * np.abs(a * c2))):
            b = edge
            for _ in range(4):
                b = np.nextafter(b, 0.0)
            for _ in range(9):
                cases += [stack_2x2(a, b, c2), stack_2x2(a, -b, c2)]
                b = np.nextafter(b, np.inf)
    for case in cases:
        assert_eigvalsh_bits(case)


@pytest.mark.parametrize(
    "scale",
    [1e-300, 1e-200, 1e-147, 1e-140, 1e-125, 1e-120, 1e145, 1e147, 1e150, 1e160, 1e300],
)
def test_stack_eigvalsh_is_eigvalsh_where_lapack_rescales(scale):
    # dsyevd rescales below 2**-485 and above 2**485 (about 1e146), dsterf
    # below 2**-405 (about 1.5e-122); mixed scales keep some cells unscaled
    rng = np.random.default_rng(int(np.log10(scale)) + 400)
    B = stack_2x2(*(rng.standard_normal((3, 64)) * scale))
    B[::2] /= scale
    assert_eigvalsh_bits(B)
    assert_eigvalsh_bits(stack_2x2(scale, 1.0, 1.0))
    assert_eigvalsh_bits(stack_2x2(1.0, scale, 1.0))


def test_stack_eigvalsh_is_eigvalsh_on_non_finite_and_asymmetric_cells():
    inf, nan = np.inf, np.nan
    for special in (nan, inf, -inf):
        for at in range(3):
            entries = [1.0, 0.5, 2.0]
            entries[at] = special
            assert_eigvalsh_bits(stack_2x2(*entries))
    # only the lower triangle counts, as with uplo='L'
    B = stack_2x2([1.0, 1.0, 3.0, 1.0], [0.0, 5.0, 1.0, 1.0], [2.0, 2.0, 3.0, 1.0], upper=[5.0, 0.0, nan, -7.0])
    assert_eigvalsh_bits(B)
    assert np.array_equal(_stack_eigvalsh(B), _stack_eigvalsh(stack_2x2(B[:, 0, 0], B[:, 1, 0], B[:, 1, 1])))


@pytest.mark.parametrize("n", [0, 1, 8191, 8192, 8193, 2 * 8192 + 5])
def test_stack_eigvalsh_is_eigvalsh_across_blocks(n):
    rng = np.random.default_rng(n)
    a, b, c = rng.standard_normal((3, n)) * 10.0 ** rng.integers(-8, 4, (3, n))
    B = stack_2x2(a, b, c)
    if n:
        B[n // 2, 0, 0] = 1e200  # one rescaled cell in the middle block
    assert_eigvalsh_bits(B)


@pytest.mark.parametrize("k", [1, 3, 4])
def test_stack_eigvalsh_is_eigvalsh_for_other_sizes(k):
    rng = np.random.default_rng(k)
    X = rng.standard_normal((100, k, k))
    assert_eigvalsh_bits(X + X.transpose(0, 2, 1))
