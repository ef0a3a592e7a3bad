"""Inhomogeneous gaskets: labeled word trees, admissible words with their
weights, conductance networks, harmonic evaluation and Dirichlet problems.

A letter is a pair (i, l): cell index i (1-based, matching the textual
encoding "i^l") inside the level-l subdivision.  A word is a tuple of
letters; the empty tuple is the root.  A word is admissible when each
letter's level equals the label the spec assigns to its prefix.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .errors import (
    BudgetExceededError,
    DisconnectedNetworkError,
    EmptyBoundaryError,
    InadmissibleWordError,
    InvalidParameterError,
    InvalidVertexError,
    SpecSemanticError,
)
from .exactla import (
    back_substitute,
    connected_components,
    edge_energy,
    eliminate,
    identity,
    integer_form,
    mat_mul,
    mat_vec,
)
from .harmonic import extension_matrices
from .subdivision import cell_count, subdivide

DEFAULT_WORD_BUDGET = 10_000_000

Letter = tuple
Word = tuple


def encode_word(word: Word) -> str:
    """Textual form "i^l" joined by "."; the root is the empty string."""
    return ".".join(f"{i}^{l}" for i, l in word)


def parse_word(text: str) -> Word:
    if text == "":
        return ()
    letters = []
    for part in text.split("."):
        try:
            i_str, l_str = part.split("^")
            letters.append((int(i_str), int(l_str)))
        except ValueError as exc:
            raise InadmissibleWordError(f"malformed letter {part!r} in word {text!r}") from exc
    return tuple(letters)


# --- seeded labeling hash ----------------------------------------------------
# A seeded label is a function of the splitmix64 state over (seed, word
# encoding).  Only this module hashes: key by key here and in GasketSpec's
# label keys, and whole arrays in `_mix_keys` and `_key_ops`.

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB


def _mix64(x: int) -> int:
    """The splitmix64 finalizer; a fixed, platform-independent 64-bit mix."""
    z = (x + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
    return z ^ (z >> 31)


def _mix_text(h: int, text: str) -> int:
    """Continue the splitmix64 state h over the bytes of text: h = _mix64(h ^ b)
    for each byte b, with the finalizer inlined because this loop is the hash's
    hot path."""
    for b in text.encode("utf-8"):
        z = ((h ^ b) + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * _MUL1) & _MASK64
        z = ((z ^ (z >> 27)) * _MUL2) & _MASK64
        h = z ^ (z >> 31)
    return h


def _mix_keys(h: np.ndarray, text) -> np.ndarray:
    """_mix_text over a uint64 array of splitmix64 states at once: numpy's
    uint64 arithmetic wraps mod 2**64 as the masks do.

    `text` is a str, whose bytes continue every state, or a uint64 array of
    shape (bytes, ...) whose row b holds byte b of each state's own text and
    broadcasts against h."""
    gamma, mul1, mul2 = np.uint64(_GAMMA), np.uint64(_MUL1), np.uint64(_MUL2)
    for b in text.encode("utf-8") if isinstance(text, str) else text:
        z = (h ^ np.uint64(b)) + gamma
        z = (z ^ (z >> np.uint64(30))) * mul1
        z = (z ^ (z >> np.uint64(27))) * mul2
        h = z ^ (z >> np.uint64(31))
    return h


def _seed_state(seed: int, text: str) -> int:
    """The splitmix64 state over `text` from the seed's own state."""
    return _mix_text(_mix64(seed & _MASK64), text)


def word_hash_unit(seed: int, text: str) -> float:
    """Deterministic hash of (seed, word encoding) mapped into [0, 1)."""
    return _seed_state(seed, text) / 2.0**64


def _rational(value) -> Fraction:
    """Fraction(value), but a ValueError for a decimal exponent beyond 4,300,
    Python's default limit on an int's digits (which `cli.main` lifts), which
    Fraction would expand to that many digits; the exponent's length is
    checked before it is converted."""
    if isinstance(value, str) and (match := re.search(r"e[-+]?([\d_]*)", value, re.IGNORECASE)):
        digits = match[1].replace("_", "").lstrip("0")
        if len(digits) > 4 or int(digits or 0) > 4300:
            raise ValueError(value)
    return Fraction(value)


def _spec_value(convert, value, what: str):
    """convert(value) (`_rational` for a Fraction), or a SpecSemanticError naming what was malformed."""
    try:
        out = _rational(value) if convert is Fraction else convert(value)
        if isinstance(value, float) and out != value:  # int() truncates 2.5
            raise ValueError(value)
        return out
    except (TypeError, ValueError, ArithmeticError):
        raise SpecSemanticError(f"{what} is not a valid {convert.__name__}: {value!r}") from None


class GasketSpec:
    """Labeling rule on the word tree defining one inhomogeneous gasket.

    labeling is one of
      {"type": "homogeneous"}                      (allowed iff one level)
      {"type": "explicit", "entries": {...}, "default": l}
      {"type": "seeded", "seed": s, "weights": {l: w}}
    measure is "natural" (mu of a cell is the product of 1/N(l) along the
    word) or {"per_letter": {l: [w_1..w_N(l)]}} with each level's weights
    summing to 1.
    """

    def __init__(self, d: int, levels, labeling=None, measure="natural"):
        if d < 2:
            raise SpecSemanticError(f"dimension must be >= 2, got {d}")
        levels = tuple(sorted(set(_spec_value(int, l, "level") for l in levels)))
        if not levels or any(l < 2 for l in levels):
            raise SpecSemanticError(f"levels must be a nonempty set of integers >= 2, got {levels}")
        self.d = d
        self.levels = levels
        if labeling is None:
            labeling = {"type": "homogeneous"}
        self.labeling = self._check_labeling(labeling)
        self.measure = self._check_measure(measure)

    def _check_labeling(self, labeling: dict) -> dict:
        if not isinstance(labeling, dict):
            raise SpecSemanticError(f"labeling must be an object, got {labeling!r}")
        kind = labeling.get("type")
        if kind == "homogeneous":
            if len(self.levels) != 1:
                raise SpecSemanticError("homogeneous labeling needs exactly one level")
            return {"type": "homogeneous"}
        if kind == "explicit":
            default = _spec_value(int, labeling.get("default"), "explicit labeling default")
            if default not in self.levels:
                raise SpecSemanticError(f"explicit labeling default {default} not in levels {self.levels}")
            # labels are looked up by canonical text, so "01^3" is stored as "1^3"
            raw = labeling.get("entries", {})
            if not isinstance(raw, dict):
                raise SpecSemanticError(f"explicit entries must map words to labels, got {raw!r}")
            entries = {}
            for text, label in raw.items():
                if not isinstance(text, str):
                    raise SpecSemanticError(f"explicit entry word must be a string, got {text!r}")
                label = _spec_value(int, label, f"label for word {text!r}")
                if label not in self.levels:
                    raise SpecSemanticError(f"label {label} for word {text!r} not in levels {self.levels}")
                key = encode_word(parse_word(text))
                if entries.setdefault(key, label) != label:
                    raise SpecSemanticError(f"conflicting labels for word {key!r}")
            return {"type": "explicit", "entries": entries, "default": default}
        if kind == "seeded":
            seed = _spec_value(int, labeling.get("seed", 0), "seeded labeling seed")
            weights = {l: 1.0 for l in self.levels} if labeling.get("weights") is None else labeling["weights"]
            if not isinstance(weights, dict):
                raise SpecSemanticError(f"seeded weights must map levels to numbers, got {weights!r}")
            weights = {
                _spec_value(int, l, "seeded weight level"): _spec_value(float, w, f"seeded weight of level {l}")
                for l, w in weights.items()
            }
            if not all(math.isfinite(w) for w in weights.values()):
                raise SpecSemanticError(f"seeded weights must be finite, got {weights}")
            if set(weights) != set(self.levels):
                raise SpecSemanticError(f"seeded weights keys {sorted(weights)} != levels {self.levels}")
            if any(w < 0 for w in weights.values()) or sum(weights.values()) <= 0:
                raise SpecSemanticError("seeded weights must be nonnegative with positive sum")
            total = sum(weights[l] for l in self.levels)
            if not math.isfinite(total):
                raise SpecSemanticError(f"seeded weights must have a finite sum, got {weights}")
            cum = []
            acc = 0.0
            for l in self.levels:
                acc += weights[l] / total
                cum.append((l, acc))
            return {"type": "seeded", "seed": seed, "weights": weights, "_cum": cum, "_root": _seed_state(seed, "")}
        raise SpecSemanticError(f"unknown labeling type {kind!r}")

    def _check_measure(self, measure):
        if measure == "natural":
            return "natural"
        if isinstance(measure, dict) and "per_letter" in measure:
            table = {}
            per_letter = measure["per_letter"]
            if not isinstance(per_letter, dict):
                raise SpecSemanticError(f"per-letter measure must map levels to weight lists, got {per_letter!r}")
            for l, ws in per_letter.items():
                l = _spec_value(int, l, "measure level")
                if l not in self.levels:
                    raise SpecSemanticError(f"measure weights for level {l} not in levels {self.levels}")
                if not isinstance(ws, (list, tuple)):
                    raise SpecSemanticError(f"measure weights for level {l} must be a list, got {ws!r}")
                ws = [_spec_value(Fraction, w, f"measure weight for level {l}") for w in ws]
                if len(ws) != cell_count(self.d, l):
                    raise SpecSemanticError(f"measure weights for level {l} must have N(l) entries")
                if any(w <= 0 for w in ws) or sum(ws) != 1:
                    raise SpecSemanticError(f"measure weights for level {l} must be positive and sum to 1")
                table[l] = ws
            if set(table) != set(self.levels):
                raise SpecSemanticError("per-letter measure must cover every level")
            return {"per_letter": table}
        raise SpecSemanticError(f"unknown measure {measure!r}")

    # -- label keys -------------------------------------------------------------
    #
    # A word's label key fixes its label, and a child's key comes from its
    # parent's in O(1), so a descent letter by letter (`validate_word`, a
    # corner chain) never re-reads a whole word.  The root's key is None.
    # Seeded: the splitmix64 state over the word's encoding, so a child
    # continues it over ".i^l" ("i^l" below the root).  Explicit: the
    # canonical encoding.  Homogeneous: always None.  `frontier` takes the
    # same keys a whole depth at a time, through `_key_ops`, for the word
    # tree that `walk` and `vertex_numbering` read.

    def child_key(self, key, letter: Letter):
        """The label key of the word `key` belongs to, extended by `letter`."""
        kind = self.labeling["type"]
        if kind == "homogeneous":
            return None
        text = f"{letter[0]}^{letter[1]}"
        if kind == "explicit":
            return text if key is None else f"{key}.{text}"
        if key is None:
            return _mix_text(self.labeling["_root"], text)
        return _mix_text(key, "." + text)

    def key_label(self, key) -> int:
        """The label of the word whose label key is `key`."""
        kind = self.labeling["type"]
        if kind == "homogeneous":
            return self.levels[0]
        if kind == "explicit":
            return self.labeling["entries"].get(key or "", self.labeling["default"])
        u = (self.labeling["_root"] if key is None else key) / 2.0**64
        for l, acc in self.labeling["_cum"]:
            if u < acc:
                return l
        return self.labeling["_cum"][-1][0]

    def label_key(self, word: Word):
        """The label key of `word`, folded letter by letter from the root."""
        return reduce(self.child_key, word, None)

    def label_of(self, word: Word) -> int:
        """The subdivision level used below `word`; a pure function of the word."""
        return self.key_label(self.label_key(word))

    def validate_word(self, word: Word):
        """Raise unless `word` is admissible; return its label key."""
        key = None
        for n, (i, l) in enumerate(word):
            expect = self.key_label(key)
            if l != expect:
                raise InadmissibleWordError(
                    f"letter {i}^{l} after prefix {encode_word(word[:n])!r} must have level {expect}"
                )
            if not 1 <= i <= cell_count(self.d, l):
                raise InadmissibleWordError(f"cell index {i} out of range for level {l}")
            key = self.child_key(key, (i, l))
        return key

    def r_of_letter(self, letter: Letter) -> Fraction:
        return extension_matrices(self.d, letter[1]).r

    def r_of_word(self, word: Word) -> Fraction:
        """The product of r over the word's letters."""
        return math.prod((self.r_of_letter(letter) for letter in word), start=Fraction(1))

    def mu_of_letter(self, letter: Letter) -> Fraction:
        i, l = letter
        if self.measure == "natural":
            return Fraction(1, cell_count(self.d, l))
        return self.measure["per_letter"][l][i - 1]

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        out = {"dimension": self.d, "levels": list(self.levels)}
        kind = self.labeling["type"]
        if kind == "explicit":
            out["labeling"] = {
                "type": "explicit",
                "entries": [{"word": w, "label": l} for w, l in sorted(self.labeling["entries"].items())],
                "default": self.labeling["default"],
            }
        elif kind == "seeded":
            out["labeling"] = {
                "type": "seeded",
                "seed": self.labeling["seed"],
                "weights": {str(l): w for l, w in sorted(self.labeling["weights"].items())},
            }
        if self.measure == "natural":
            out["measure"] = "natural"
        else:
            out["measure"] = {
                "per_letter": {str(l): [str(w) for w in ws] for l, ws in self.measure["per_letter"].items()}
            }
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "GasketSpec":
        if not isinstance(data, dict):
            raise SpecSemanticError("spec must be a JSON object")
        if "dimension" not in data or "levels" not in data:
            raise SpecSemanticError("spec needs 'dimension' and 'levels'")
        if not isinstance(data["levels"], list):
            raise SpecSemanticError(f"levels must be a list of integers, got {data['levels']!r}")
        labeling = data.get("labeling")
        if isinstance(labeling, dict) and labeling.get("type") == "explicit":
            items = labeling.get("entries", [])
            if not isinstance(items, list) or not all(
                isinstance(item, dict) and isinstance(item.get("word"), str) and "label" in item for item in items
            ):
                raise SpecSemanticError(f"explicit entries must be a list of {{word, label}} objects, got {items!r}")
            labeling = dict(labeling, entries={item["word"]: item["label"] for item in items})
        dimension = _spec_value(int, data["dimension"], "dimension")
        return cls(dimension, data["levels"], labeling, data.get("measure", "natural"))

    def describe(self) -> str:
        kind = self.labeling["type"]
        extra = ""
        if kind == "seeded":
            extra = f" seed={self.labeling['seed']}"
        elif kind == "explicit":
            extra = f" entries={len(self.labeling['entries'])}"
        return f"d={self.d} T={list(self.levels)} labeling={kind}{extra}"


def _key_ops(spec: GasketSpec, root: Word = ()) -> tuple:
    """(root keys, labels(keys), children(keys, l, n, at_root)): the label
    keys of a whole depth below `root` at once, with child_key and key_label
    as the per-key oracle.  The root keys hold the one key of the admissible
    word `root`.

    children gives the keys of cells 1..n of level l below each key, grouped
    by parent; at_root says the keys are the root keys, whose seeded
    children continue without the "." separator only when the root is the
    empty word.  Seeded keys are uint64 arrays (`_mix_keys`), and numpy
    rounds a uint64 to float64 as Python's int / float does, so a key's
    label is key_label's own test on u = key / 2**64: the first level whose
    cumulative weight is above u, else the last level.  A homogeneous spec
    has one label and only None keys; an explicit labeling goes key by key.
    """
    key = spec.validate_word(root)
    kind = spec.labeling["type"]
    if kind == "homogeneous":

        def labels(keys):
            return np.full(len(keys), spec.levels[0])

        def children(keys, l, n, at_root):
            return np.empty(len(keys) * n, dtype=object)  # all None, as child_key gives

        return np.array([key], dtype=object), labels, children

    if kind == "explicit":

        def labels(keys):
            return np.array([spec.key_label(key) for key in keys])

        def children(keys, l, n, at_root):
            return np.array([spec.child_key(key, (i, l)) for key in keys for i in range(1, n + 1)], dtype=object)

        return np.array([key], dtype=object), labels, children

    cum = spec.labeling["_cum"]
    levels = np.array([l for l, _ in cum])
    accs = np.array([acc for _, acc in cum])

    def labels(keys):
        return levels[np.minimum(np.searchsorted(accs, keys / 2.0**64, side="right"), len(levels) - 1)]

    def children(keys, l, n, at_root):
        keys = _mix_keys(keys, "" if at_root and not root else ".")
        return np.stack([_mix_keys(keys, f"{i}^{l}") for i in range(1, n + 1)], axis=1).reshape(-1)

    # a 1-element array, not a scalar: numpy warns when a uint64 scalar overflows
    return np.array([spec.labeling["_root"] if key is None else key], dtype=np.uint64), labels, children


# --- the word-tree walk ---------------------------------------------------------


def _check_depth(m: int, budget: int = 1) -> None:
    """Refuse a negative depth m and a budget below 1."""
    if m < 0:
        raise InvalidParameterError(f"depth must be >= 0, got {m}")
    if budget < 1:
        raise InvalidParameterError(f"budget must be >= 1, got {budget}")


def _check_budget(count: int, budget: int, m: int) -> None:
    """Refuse `count` words at depth m when that is more than `budget`."""
    if count > budget:
        raise BudgetExceededError(f"more than {budget} words at depth {m}")


def walk(spec: GasketSpec, m: int, start, step, root: Word = (), budget: int = DEFAULT_WORD_BUDGET):
    """Yield (word, state) for the admissible depth-m continuations of `root`,
    in depth-lexicographic order; words are relative to the root.

    `start` is the state at the root and a child's state is
    step(parent_state, letter), so each caller carries only what it needs.
    The walk is a depth-first fold over `_word_tree`, which refuses more
    than `budget` leaves before any step.
    """
    labels, first, stride = _word_tree(spec, m, root, budget)
    if m == 0:
        yield (), start
        return
    letters = {l: [(i, l) for i in range(1, cell_count(spec.d, l) + 1)] for l in spec.levels}
    # memoryviews index the int64 arrays as Python ints, with no copy
    labels, first = [memoryview(level) for level in labels], [memoryview(starts) for starts in first]
    stack = [((), start, 0)]
    while stack:
        word, state, i = stack.pop()
        k = len(word)
        row = letters[labels[k][i]]
        if k + 1 < m:
            # pushed last-first, so cell 1 is walked first
            at = first[k][i]
            for c in range(len(row) - 1, -1, -1):
                stack.append((word + (row[c],), step(state, row[c]), at + stride * c))
            continue
        for letter in row:
            yield word + (letter,), step(state, letter)


def frontier(spec: GasketSpec, m: int, root: Word, budget: int, grouped: bool = False):
    """Yield (labels, first, groups) for each depth k = 0..m-1 below `root`:
    the cells' labels, first[p] the slot at depth k+1 of cell p's first child
    (child c goes to first[p] + c), and (l, the level-l cells' indices) for
    each level present.  first is the running sum of the child counts in
    depth-lexicographic order, `walk`'s, or, `grouped`, over a stable argsort
    of the labels, so the children go by level, then parent, then cell.  A
    depth with more than `budget` children is refused before it is yielded,
    and depth k+1's keys are hashed only when the caller asks for it."""
    _check_depth(m, budget)
    keys, labels_of, children_of = _key_ops(spec, root)
    n_of = np.zeros(max(spec.levels) + 1, dtype=np.int64)
    n_of[list(spec.levels)] = [cell_count(spec.d, l) for l in spec.levels]
    for k in range(m):
        labels = labels_of(keys)
        groups = [(l, idx) for l in spec.levels if len(idx := np.flatnonzero(labels == l))]
        sizes = [len(idx) * int(n_of[l]) for l, idx in groups]  # each group's children
        total = sum(sizes)
        if grouped and total > budget:
            raise BudgetExceededError(f"more than {budget} cells at depth {k + 1}")
        _check_budget(total, budget, m)
        if grouped:  # the stable argsort of the labels lists the groups in turn
            first = np.empty(len(labels), dtype=np.int64)
            for (l, idx), start in zip(groups, np.cumsum([0] + sizes)):
                first[idx] = start + n_of[l] * np.arange(len(idx))
        else:
            first = np.cumsum(counts := n_of[labels]) - counts
        yield labels, first, groups
        if k + 1 < m:
            below = np.empty(total, dtype=keys.dtype)
            for l, idx in groups:
                slots = (first[idx, None] + np.arange(n_of[l])).reshape(-1)
                below[slots] = children_of(keys[idx], l, n_of[l], k == 0)
            keys = below


def _word_tree(spec: GasketSpec, m: int, root: Word, budget: int) -> tuple:
    """(labels, first, stride): the depth-m word tree below `root`, which
    `walk` folds and `vertex_numbering` counts.  Depth k < m lists its cells
    in depth-lexicographic order: `labels[k]` their labels and `first[k]` the
    index at depth k+1 of each one's first child, so child c of cell i is
    cell first[k][i] + stride * c.  A one-level spec keeps one cell per
    depth, which stands for all of them, with stride 0; any other spec takes
    int64 arrays a depth at a time from `frontier`, with stride 1.

    More than `budget` cells at depth m are refused, before any label is
    taken when every cell's fewest children already make more."""
    _check_depth(m, budget)
    spec.validate_word(root)
    # depth m has at least fewest^m cells, and fewest >= 3, so the power
    # is past the budget once m >= budget.bit_length() and stops there
    fewest = min(cell_count(spec.d, l) for l in spec.levels)
    _check_budget(fewest ** min(m, budget.bit_length()), budget, m)
    if len(spec.levels) == 1:
        return [np.array(spec.levels)] * m, [np.zeros(1, dtype=np.int64)] * m, 0
    labels, first = [], []
    for level, starts, _ in frontier(spec, m, root, budget):
        labels.append(level)
        first.append(starts)
    return labels, first, 1


def _letter_pairs(spec: GasketSpec, weight) -> dict:
    """level -> [(numerator, denominator) of weight((i, level)) for each cell i]."""
    pairs = {}
    for l in spec.levels:
        ws = (weight((i, l)) for i in range(1, cell_count(spec.d, l) + 1))
        pairs[l] = [(w.numerator, w.denominator) for w in ws]
    return pairs


def iter_words(spec: GasketSpec, m: int, budget: int = DEFAULT_WORD_BUDGET, root: Word = ()):
    """Yield (word, r_w, mu_w) for the admissible depth-m continuations of
    `root`, in depth-lexicographic order.  r and mu are relative to the root.
    The walk carries both as unreduced integer pairs, and each yielded word
    builds its two Fractions once.
    """
    r_pairs, mu_pairs = _letter_pairs(spec, spec.r_of_letter), _letter_pairs(spec, spec.mu_of_letter)

    def step(state, letter):
        r_num, r_den, mu_num, mu_den = state
        a, b = r_pairs[letter[1]][letter[0] - 1]
        c, e = mu_pairs[letter[1]][letter[0] - 1]
        return r_num * a, r_den * b, mu_num * c, mu_den * e

    for word, (r_num, r_den, mu_num, mu_den) in walk(spec, m, (1, 1, 1, 1), step, root, budget):
        yield word, Fraction(r_num, r_den), Fraction(mu_num, mu_den)


def enumerate_words(spec: GasketSpec, m: int, budget: int = DEFAULT_WORD_BUDGET) -> list:
    """All of the depth-m admissible words with their weights, as a list."""
    return list(iter_words(spec, m, budget))


def _exact_sum(by_den: dict) -> Fraction:
    """The sum of n/d over a {d: n} tally, exact and independent of order."""
    return sum((Fraction(n, d) for d, n in sorted(by_den.items())), Fraction(0))


def measure_totals(spec: GasketSpec, m: int, budget: int = DEFAULT_WORD_BUDGET) -> list:
    """Exact per-depth mass sums [depth 0 .. m], one walk per depth.

    Each walk carries a cell's mass as an unreduced (numerator, denominator)
    pair of integers.  Depth m, which has the most cells, is walked first,
    so a budget too small for any depth is refused under depth m.
    """
    _check_depth(m, budget)
    weights = _letter_pairs(spec, spec.mu_of_letter)

    def step(mass, letter):
        w_num, w_den = weights[letter[1]][letter[0] - 1]
        return mass[0] * w_num, mass[1] * w_den

    totals = []
    for k in range(m, -1, -1):
        by_den = {}
        for _, (num, den) in walk(spec, k, (1, 1), step, budget=budget):
            by_den[den] = by_den.get(den, 0) + num
        totals.append(_exact_sum(by_den))
    return totals[::-1]


def chain_matrix(spec: GasketSpec, word: Word):
    """Ordered extension-matrix product for a word; the empty word gives the
    identity.  Appending a letter multiplies on the left."""
    spec.validate_word(word)
    out = identity(spec.d + 1)
    for i, l in word:
        out = mat_mul(extension_matrices(spec.d, l).A[i - 1], out)
    return out


def harmonic_values(spec: GasketSpec, m: int, u, budget: int = DEFAULT_WORD_BUDGET) -> dict:
    """Values of the harmonic function with boundary data u on every depth-m
    cell: cell w carries the vector A_w u.  The data must be rationals; the
    walk carries integer numerators over one denominator."""
    if len(u) != spec.d + 1:
        raise InvalidParameterError(f"boundary vector must have {spec.d + 1} entries")
    if any(isinstance(x, float) for x in u):
        raise InvalidParameterError("boundary values must be rationals (int or Fraction)")

    def step(state, letter):
        vec, den = state
        data = extension_matrices(spec.d, letter[1])
        return mat_vec(data.M[letter[0] - 1], vec), den * data.D

    start = integer_form(u)
    return {word: [Fraction(x, den) for x in vec] for word, (vec, den) in walk(spec, m, start, step, budget=budget)}


# --- cell geometry ------------------------------------------------------------
#
# The vertices of one network are keyed by integers over one denominator P
# (`_denominator`), which every coordinate of the network divides.  A cell is
# the pair (q, offset) of its map z -> (q z + offset) / P in barycentric
# coordinates: q = P * scale and offset a tuple of integer numerators.


def _denominator(spec: GasketSpec, m: int, root: Word) -> int:
    """P = lcm(levels) ** (len(root) + m): every vertex coordinate of the
    depth-m network below `root` is an integer over it."""
    return math.lcm(*spec.levels) ** (len(root) + m)


@lru_cache(maxsize=None)
def _anchor_rows(d: int, l: int) -> list:
    """The integer anchors a of the level-l cells, whose maps are z -> (z + a) / l."""
    return [tuple(int(x * l) for x in cell) for cell in subdivide(d, l).cells]


def _cell_step(cell, letter: Letter) -> tuple:
    """The child cell `letter` of `cell`: (q // l, offset + (q // l) * anchor)."""
    q, offset = cell
    i, l = letter
    q //= l
    return q, tuple(o + q * a for o, a in zip(offset, _anchor_rows(len(offset) - 1, l)[i - 1]))


def _root_cell(spec: GasketSpec, root: Word, P: int) -> tuple:
    """The root word's cell over the denominator P, composed letter by letter."""
    return reduce(_cell_step, root, (P, (0,) * (spec.d + 1)))


def _corner_keys(cell) -> list:
    """The integer keys of a cell's d+1 corners, in corner order."""
    q, offset = cell
    return [offset[:k] + (offset[k] + q,) + offset[k + 1 :] for k in range(len(offset))]


def _coord(key, P: int) -> tuple:
    """The exact barycentric coordinates of the vertex with integer key `key`."""
    return tuple(Fraction(x, P) for x in key)


# --- conductance networks -----------------------------------------------------


@dataclass
class ConductanceNetwork:
    """Finite weighted graph built from the depth-m cells below a root word.

    Coordinates are exact barycentric rationals; conductances are exact
    rationals normalized so the root cell has weight 1 (the root's own r
    factor is divided out and recorded in root_r).
    """

    d: int
    coords: list = field(repr=False)            # id -> coordinate tuple
    coord_index: dict = field(repr=False)       # coordinate tuple -> id
    edges: dict = field(repr=False)             # (i, j) with i < j -> conductance
    boundary: list = field(default_factory=list)
    cells: list = field(default_factory=list, repr=False)  # (relative word, vertex ids, 1/r_w)
    root: Word = ()
    root_r: Fraction = Fraction(1)
    depth: int = 0

    @property
    def n_vertices(self) -> int:
        return len(self.coords)

    def adjacency(self) -> dict:
        adj = {v: {} for v in range(self.n_vertices)}
        for (i, j), c in self.edges.items():
            adj[i][j] = adj[i].get(j, 0) + c
            adj[j][i] = adj[j].get(i, 0) + c
        return adj


# --- one vertex without the numbering walk --------------------------------------
#
# `level_network`'s walk gives out ids at the leaves, in depth-lexicographic
# order, so the ids first reached inside one cell's subtree form one
# contiguous range.  Cells meet only at corners, so the depth-m network
# below a cell has its d+1 corners plus V(d, l) - (d+1) more vertices for
# each internal cell of level l in its subtree, and the range is that count
# less the cell's corners numbered before it is entered.  `VertexNumbering`
# unranks one id along one path from those counts, to the depth-m cell that
# first numbers it and the corner it is there; the whole network,
# `level_network`, stays as its oracle in the tests.


@dataclass
class VertexNumbering:
    """The vertex ids of `level_network(spec, m, root)`, from label counts,
    unranked to cell corners by `corner_of`.

    `labels`, `first` and `stride` are the `_word_tree` below the root, and
    `extra[k]` holds the vertices each depth-k cell's subtree adds to its own
    d+1 corners.
    """

    spec: GasketSpec
    m: int
    labels: list = field(repr=False)
    first: list = field(repr=False)
    extra: list = field(repr=False)
    stride: int

    @property
    def n_vertices(self) -> int:
        return self.spec.d + 1 + (int(self.extra[0][0]) if self.m else 0)

    def corner_of(self, v: int, inner: bool = False) -> tuple:
        """(letters, j): vertex v is corner j (0-based) of the depth-m cell
        root + letters where the numbering first reaches it.  With `inner`,
        v counts, in id order, only the vertices that are not the root's
        corners.

        The descent skips each earlier child by the ids it gives out.  A
        child's corner was numbered on entry if it is a numbered corner of
        its parent or a vertex of an earlier sibling; `inner` starts with the
        root's corners numbered, and a root corner is a corner of every cell
        on its path, so it is never counted."""
        d = self.spec.d
        seen = (inner,) * (d + 1)
        if not 0 <= v < self.n_vertices - sum(seen):
            raise InvalidVertexError(f"vertex {v} not in depth-{self.m} network")
        letters, base, i = [], 0, 0
        for k in range(self.m):
            l = int(self.labels[k][i])
            cell_vertices = subdivide(d, l).cell_vertices
            # corner cell c fixes corner c, so corner c is its own vertex c
            done = {cell_vertices[c][c] for c, s in enumerate(seen) if s}
            first = int(self.first[k][i])
            for c, vertices in enumerate(cell_vertices):
                seen = tuple(p in done for p in vertices)
                i = first + self.stride * c
                new = d + 1 - sum(seen) + (int(self.extra[k + 1][i]) if k + 1 < self.m else 0)
                if v < base + new:
                    break
                base += new
                done.update(vertices)
            letters.append((c + 1, l))
        return tuple(letters), [j for j, s in enumerate(seen) if not s][v - base]


def vertex_numbering(
    spec: GasketSpec, m: int, root: Word = (), budget: int = DEFAULT_WORD_BUDGET
) -> VertexNumbering:
    """The vertex numbering of `level_network(spec, m, root, budget)`, with no
    vertex keyed: its `_word_tree` refuses its inputs as that network's walk
    does, and each cell's count is its own plus its children's, summed
    bottom-up.  A one-level spec's one cell per depth stands for all N(l)
    children of the cell above, and its counts, which pass int64 from about
    depth 40, are Python ints."""
    labels, first, stride = _word_tree(spec, m, root, budget)
    d = spec.d
    extra_of = np.zeros(max(spec.levels) + 1, dtype=np.int64)
    extra_of[list(spec.levels)] = [subdivide(d, l).n_vertices - (d + 1) for l in spec.levels]
    extra, below = [None] * m, None
    for k in reversed(range(m)):
        own = extra_of[labels[k]]
        if stride:  # each cell's children are contiguous from its first
            below = own if below is None else own + np.add.reduceat(below, first[k])
        else:
            below = [int(own[0]) + cell_count(d, int(labels[k][0])) * (below[0] if below else 0)]
        extra[k] = below
    return VertexNumbering(spec, m, labels, first, extra, stride)


def level_network(spec: GasketSpec, m: int, root: Word = (), budget: int = DEFAULT_WORD_BUDGET) -> ConductanceNetwork:
    """The depth-m cell network below `root`: vertices are the distinct
    images of the simplex corners, each cell contributes complete-graph edges
    with conductance 1/r_w (relative to the root).  The walk keys each corner
    over P = `_denominator(spec, m, root)` and numbers it where it first
    reaches it; its exact coordinates are built once from that integer key.
    A cell's complete graph is the exact trace of every cell below it."""
    spec.validate_word(root)
    d = spec.d
    r_pairs = _letter_pairs(spec, spec.r_of_letter)

    def step(state, letter):
        q, offset, r_num, r_den = state
        a, b = r_pairs[letter[1]][letter[0] - 1]
        return (*_cell_step((q, offset), letter), r_num * a, r_den * b)

    P = _denominator(spec, m, root)
    index, edges, cells = {}, {}, []
    start = (*_root_cell(spec, root, P), 1, 1)
    for word, (q, offset, r_num, r_den) in walk(spec, m, start, step, root, budget):
        ids = tuple(index.setdefault(key, len(index)) for key in _corner_keys((q, offset)))
        w = Fraction(r_den, r_num)
        # distinct cells share at most one vertex, so no edge is set twice
        for a in range(d + 1):
            for b in range(a + 1, d + 1):
                i, j = ids[a], ids[b]
                key = (i, j) if i < j else (j, i)
                edges[key] = w
        cells.append((word, ids, w))
    coords = [_coord(key, P) for key in index]
    return ConductanceNetwork(
        d=d,
        coords=coords,
        coord_index={coord: v for v, coord in enumerate(coords)},
        edges=edges,
        boundary=[index[key] for key in _corner_keys(_root_cell(spec, root, P))],
        cells=cells,
        root=root,
        root_r=spec.r_of_word(root),
        depth=m,
    )


# --- Dirichlet problems -------------------------------------------------------


def dirichlet_solve(net: ConductanceNetwork, boundary: dict):
    """Minimize the conductance-weighted energy subject to boundary values.

    Returns (potentials, energy, method); potentials is a dict over all
    vertex ids.  The boundary values must be rationals (int or Fraction),
    and the solve is an exact rational star-mesh elimination ("exact"), or
    no solve at all when every vertex is pinned ("direct").
    """
    if not boundary:
        raise EmptyBoundaryError("no boundary vertices given")
    n = net.n_vertices
    for v in boundary:
        if not 0 <= v < n:
            raise InvalidVertexError(f"boundary vertex {v} not in network")
    if not all(isinstance(x, (int, Fraction)) for x in boundary.values()):
        raise InvalidParameterError("boundary values must be rationals (int or Fraction)")
    adj = net.adjacency()
    if len(connected_components(adj)) != 1:
        raise DisconnectedNetworkError("network is not connected")

    if len(boundary) == n:
        values = {v: boundary[v] for v in range(n)}
        return values, edge_energy(adj, values), "direct"
    # the minimum energy is the energy of the Schur complement on the pinned
    # vertices, a network of len(boundary) vertices, not n
    reduced, steps = eliminate(adj, set(boundary))
    pinned = {v: Fraction(x) for v, x in boundary.items()}
    return back_substitute(steps, pinned), edge_energy(reduced, pinned), "exact"
