"""Per-layer timing of gasketlab from outside the program.

The tracer replaces each public function with a wrapper where its callers
look it up, records one span per call (name, start, end, parent span), and
puts the originals back afterwards.  Spans stay in memory until the sample
ends; the per-layer metrics are computed from them.

gasketlab is imported only by install(), so this module can be loaded before
a sample's set-up clock starts.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


def _targets():
    """(span name, the owners the function is looked up on, attribute, what to
    keep from a call for the counters)."""
    from gasketlab import blowup, capacity, energy, gasket, harmonic

    return [
        ("gasket.label_of", [gasket.GasketSpec], "label_of", lambda a, r: a[1]),
        ("gasket.word_hash_unit", [gasket, capacity], "word_hash_unit", lambda a, r: a[1]),
        ("gasket.level_network", [gasket, capacity], "level_network",
         lambda a, r: (r.root, r.depth, r.n_vertices, len(r.edges))),
        ("gasket.dirichlet_solve", [gasket, capacity], "dirichlet_solve",
         lambda a, r: (r[2], a[0].n_vertices - len(a[1]))),
        ("gasket.enumerate_words", [gasket, capacity], "enumerate_words", None),
        ("exactla.eliminate", [gasket, harmonic], "eliminate", lambda a, r: r[1]),
        ("exactla.edge_energy", [gasket], "edge_energy", None),
        ("capacity.relative_capacity", [capacity, blowup], "relative_capacity", None),
        ("capacity.inner_set", [capacity], "inner_set", None),
        ("capacity.point_capacity", [capacity], "point_capacity", None),
        ("capacity.sample_direction", [capacity], "sample_direction", None),
        ("capacity.a3_report", [capacity], "a3_report", None),
        ("energy.index_estimate", [energy], "index_estimate", lambda a, r: r.cells_at_depth),
        ("blowup.blowup_cloud", [blowup], "blowup_cloud", lambda a, r: r.n_points),
        ("blowup.density_grid", [blowup], "density_grid", None),
    ]


class Tracer:
    """Spans of one sample.  A span is [name, start, end, parent index, kept]."""

    def __init__(self, sample: int):
        self.sample = sample
        self.spans: list = []
        self._stack = [-1]
        self._originals: list = []

    @contextmanager
    def span(self, name: str):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        record = [name, 0.0, 0.0, stack[-1], None]
        spans.append(record)
        stack.append(idx)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, name, fn, keep):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        # The span bookkeeping is inlined rather than using span(): this runs
        # on every traced call, and a generator context manager costs more.
        def traced(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1], None]
            spans.append(record)
            stack.append(idx)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if keep is not None:
                record[4] = keep(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target on each owner that still looks it up; a function
        the program no longer has is skipped, and its metrics read 0."""
        for name, owners, attr, keep in _targets():
            if attr not in owners[0].__dict__:
                continue
            original = owners[0].__dict__[attr]
            wrapped = self._wrap(name, original, keep)
            for owner in owners:
                if owner.__dict__.get(attr) is original:
                    self._originals.append((owner, attr, original))
                    setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start, "end": end,
                                     "parent": parent, "sample": self.sample}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics from the spans: `.s` is time inside the calls,
        `.self_s` the part not spent in a wrapped child call."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict = {}
        total: dict = {}
        own: dict = {}
        kept: dict = {}
        for idx, (name, start, end, _, info) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            own[name] = own.get(name, 0.0) + (end - start - child[idx])
            kept.setdefault(name, []).append(info)

        def ratio(n, d):
            return n / d if d else 0.0

        labels = kept.get("gasket.label_of", [])
        texts = kept.get("gasket.word_hash_unit", [])
        nets = kept.get("gasket.level_network", [])
        solves = kept.get("gasket.dirichlet_solve", [])
        steps = kept.get("exactla.eliminate", [])
        return {
            "harmonic.extension_matrices.s": total.get("harmonic.extension_matrices", 0.0),
            "capacity.default_inner_depth.s": total.get("capacity.default_inner_depth", 0.0),
            "gasket.label_of.calls": len(labels),
            "gasket.label_of.s": total.get("gasket.label_of", 0.0),
            "gasket.label_of.unique_frac": ratio(len(set(labels)), len(labels)),
            "gasket.word_hash_unit.calls": len(texts),
            "gasket.word_hash_unit.s": total.get("gasket.word_hash_unit", 0.0),
            "gasket.word_hash_unit.bytes": sum(len(t.encode("utf-8")) for t in texts),
            "gasket.level_network.calls": len(nets),
            "gasket.level_network.s": total.get("gasket.level_network", 0.0),
            "gasket.level_network.vertices": sum(n[2] for n in nets),
            "gasket.level_network.edges": sum(n[3] for n in nets),
            "gasket.level_network.unique_frac": ratio(len({n[:2] for n in nets}), len(nets)),
            "gasket.dirichlet_solve.calls": len(solves),
            "gasket.dirichlet_solve.self_s": own.get("gasket.dirichlet_solve", 0.0),
            "gasket.dirichlet_solve.exact": sum(1 for s in solves if s[0] == "exact"),
            "gasket.dirichlet_solve.float": sum(1 for s in solves if s[0] == "float"),
            "gasket.dirichlet_solve.free_vertices": sum(s[1] for s in solves),
            "gasket.enumerate_words.s": total.get("gasket.enumerate_words", 0.0),
            "exactla.eliminate.calls": len(steps),
            "exactla.eliminate.s": total.get("exactla.eliminate", 0.0),
            "exactla.eliminate.eliminated": sum(len(s) for s in steps),
            "exactla.eliminate.fill": sum(len(coeffs) for s in steps for _, coeffs in s),
            "exactla.edge_energy.s": total.get("exactla.edge_energy", 0.0),
            "energy.index_estimate.self_s": own.get("energy.index_estimate", 0.0),
            "energy.cells_at_depth": sum(kept.get("energy.index_estimate", [])),
            "capacity.a3_report.self_s": own.get("capacity.a3_report", 0.0),
            "capacity.sample_direction.calls": calls.get("capacity.sample_direction", 0),
            "capacity.sample_direction.s": total.get("capacity.sample_direction", 0.0),
            "capacity.relative_capacity.calls": calls.get("capacity.relative_capacity", 0),
            "capacity.relative_capacity.self_s": own.get("capacity.relative_capacity", 0.0),
            "capacity.point_capacity.calls": calls.get("capacity.point_capacity", 0),
            "capacity.inner_set.calls": calls.get("capacity.inner_set", 0),
            "capacity.inner_set.s": total.get("capacity.inner_set", 0.0),
            "blowup.blowup_cloud.self_s": own.get("blowup.blowup_cloud", 0.0),
            "blowup.points": sum(kept.get("blowup.blowup_cloud", [])),
            "blowup.density_grid.s": total.get("blowup.density_grid", 0.0),
            "cli.self_s": own.get("cli.main", 0.0),
        }
