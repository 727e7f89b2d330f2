"""Spans and counters recorded around semmap's public functions.

The tracer replaces functions in the namespaces the pipeline calls them
through (``typology`` imports ``contains`` and ``fisher_exact`` by name,
``mixture`` imports ``BallTree`` by name), so nothing in ``src/`` changes.
Spans stay in memory as (name, start, end, parent) and are reduced to
per-layer metrics when the run ends. Counts marked "computed" follow from
arguments and return values alone, so they repeat exactly between runs.
"""

from __future__ import annotations

import functools
import inspect
import threading
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.root: int | None = None
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        # pool threads start with an empty stack; their spans belong to
        # the run that submitted them
        parent = stack[-1] if stack else self.root
        index = len(self.spans)
        span = [name, perf_counter(), None, parent]
        self.spans.append(span)
        if self.root is None:
            self.root = index
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a traced version.

        ``count(counts, bound_arguments, result)`` runs after each call
        that returned.
        """
        fn = getattr(owner, attr)
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                result = tracer.call(name, fn, args, kwargs)
            except Exception:
                tracer.counts[f"{name}.errors"] += 1
                raise
            tracer.counts[f"{name}.calls"] += 1
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(tracer.counts, bound.arguments, result)
            return result

        setattr(owner, attr, traced)

    def durations(self) -> tuple[Counter, Counter]:
        """Total and self seconds per span name.

        Self time is a span's duration minus the part of it that its
        children cover (children of one span may run on another thread).
        """
        children: dict[int, list[int]] = {}
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent is not None:
                children.setdefault(parent, []).append(i)
        total, self_s = Counter(), Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            covered, reach = 0.0, start
            for c_start, c_end in sorted(
                    (self.spans[c][1], self.spans[c][2]) for c in children.get(i, [])):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            self_s[name] += (end - start) - covered
        return total, self_s


def _fit_surface(counts, a, result):
    n = len(a["labels"])
    nodes = a["grid"] ** 2
    # LU of the (n+1)^2 kriging system plus the triangular solves for
    # every grid node, as if the first jitter succeeds
    counts["surfaces.solve_flop_computed"] += (2 * (n + 1) ** 3) // 3 + 2 * (n + 1) ** 2 * nodes
    # the (grid^2, n, 2) float64 difference array behind the node distances
    counts["surfaces.grid_temp_bytes_computed"] += nodes * n * 2 * 8


def _contour(counts, a, result):
    counts["surfaces.polygon_vertices"] += sum(len(p) for p in result)


def _contains(counts, a, result):
    counts["typology.contains_edge_tests"] += sum(len(p) for p in a["polygons"])


def _align_pair(counts, a, result):
    counts["align.verse_pairs"] += len(set(a["pivot_verses"]) & set(a["target_verses"]))
    counts["align.parallels"] += len(result)
    counts["align.nulls"] += sum(1 for p in result if p.form is None)


def _build_matrix(counts, a, result):
    counts["pivot.rows"] += result.n_rows
    counts["pivot.columns"] += len(result.columns)


def _select_k(counts, a, result):
    counts["mixture.failed_k"] += sum(1 for row in result.rows if row["failed"])


def _fit_gmm(counts, a, result):
    counts["mixture.gmm_iterations"] += len(result.loglik)


def _load_corpus(counts, a, result):
    counts["corpus.verses"] += sum(len(d.verses) for d in result.doculects.values())


def _render_map(counts, a, result):
    counts["svg.bytes"] += len(result.encode("utf-8"))


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions where the pipeline reaches them."""
    from semmap import align, balltree, corpus, mixture, pipeline, pivot, surfaces, svg, typology

    tracer.wrap(pipeline, "run", "pipeline.run")
    tracer.wrap(corpus, "load_corpus", "corpus.load_corpus", _load_corpus)
    tracer.wrap(align, "align_pair", "align.align_pair", _align_pair)
    tracer.wrap(align, "train_em", "align.train_em")
    tracer.wrap(align, "argmax_links", "align.argmax_links")
    tracer.wrap(pivot, "build_matrix", "pivot.build_matrix", _build_matrix)
    tracer.wrap(pivot, "hamming", "pivot.hamming")
    tracer.wrap(pivot, "classical_mds", "pivot.classical_mds")
    tracer.wrap(mixture, "select_k", "mixture.select_k", _select_k)
    tracer.wrap(mixture, "fit_gmm", "mixture.fit_gmm", _fit_gmm)
    tracer.wrap(balltree.BallTree, "query", "balltree.query")
    tracer.wrap(surfaces, "fit_surface", "surfaces.fit_surface", _fit_surface)
    tracer.wrap(surfaces, "contour", "surfaces.contour", _contour)
    tracer.wrap(typology, "build_dictionary", "typology.build_dictionary")
    tracer.wrap(typology, "contains", "typology.contains", _contains)
    tracer.wrap(typology, "fisher_exact", "typology.fisher_exact")
    tracer.wrap(svg, "render_map", "svg.render_map", _render_map)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run (names as in BENCHMARK.json)."""
    total, self_s = tracer.durations()
    modules = module_seconds(tracer)
    c = tracer.counts
    pairs = c["align.verse_pairs"]
    return {
        "surfaces.fit_surface_self_s": self_s["surfaces.fit_surface"],
        "surfaces.fit_surface_calls": c["surfaces.fit_surface.calls"],
        "surfaces.surface_errors": c["surfaces.fit_surface.errors"],
        "surfaces.solve_flop_computed": c["surfaces.solve_flop_computed"],
        "surfaces.grid_temp_bytes_computed": c["surfaces.grid_temp_bytes_computed"],
        "surfaces.contour_s": total["surfaces.contour"],
        "surfaces.contour_calls": c["surfaces.contour.calls"],
        "surfaces.polygon_vertices": c["surfaces.polygon_vertices"],
        "typology.contains_s": total["typology.contains"],
        "typology.contains_calls": c["typology.contains.calls"],
        "typology.contains_edge_tests": c["typology.contains_edge_tests"],
        "typology.build_dictionary_self_s": self_s["typology.build_dictionary"],
        "typology.fisher_calls": c["typology.fisher_exact.calls"],
        "align.align_pair_s": total["align.align_pair"],
        "align.train_em_s": total["align.train_em"],
        "align.argmax_links_s": total["align.argmax_links"],
        "align.verse_pairs": pairs,
        "align.ms_per_verse_pair": 1000.0 * total["align.align_pair"] / pairs if pairs else 0.0,
        "align.null_share": c["align.nulls"] / c["align.parallels"] if c["align.parallels"] else 0.0,
        "pivot.build_matrix_s": total["pivot.build_matrix"],
        "pivot.hamming_s": total["pivot.hamming"],
        "pivot.classical_mds_s": total["pivot.classical_mds"],
        "pivot.rows": c["pivot.rows"],
        "pivot.columns": c["pivot.columns"],
        # select_k runs only when several K are given; the final fit always
        "mixture.gmm_s": modules["mixture"],
        "mixture.fit_gmm_calls": c["mixture.fit_gmm.calls"],
        "mixture.gmm_iterations": c["mixture.gmm_iterations"],
        "mixture.failed_k": c["mixture.failed_k"],
        "balltree.query_s": total["balltree.query"],
        "corpus.load_corpus_s": total["corpus.load_corpus"],
        "corpus.verses": c["corpus.verses"],
        "svg.render_map_s": total["svg.render_map"],
        "svg.bytes": c["svg.bytes"],
        "pipeline.self_s": self_s["pipeline.run"],
    }


def module_seconds(tracer: Tracer) -> dict[str, float]:
    """Seconds spent inside each module, nested calls within it counted once."""
    names = [span[0] for span in tracer.spans]
    seconds: Counter = Counter()
    for name, start, end, parent in tracer.spans:
        module = name.split(".")[0]
        if parent is None or names[parent].split(".")[0] != module:
            seconds[module] += end - start
    return dict(seconds)
