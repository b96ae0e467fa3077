"""In-memory spans recorded around the benchmark's calls into each layer.

Spans live in the benchmark, not in the library: a traced replay calls the
library's public functions one by one inside ``Tracer.span`` blocks, and the
methods of source objects the benchmark created are replaced, on those
instances only, by wrappers that open a span.  Calls the library makes on
such an instance (``domain_entropy`` calling ``ball_marginal``, a coarsened
source calling its base chain, ``markov_approximation`` reading marginals)
therefore become child spans.  Work that stays inside one library call, such
as the words work inside ``domain_entropy``, is measured by probe spans that
repeat it on the same domains after the request.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from freemarkov import (CoarsenedSource, EmpiricalSource, MarkovSource,
                        induced_left_edges, tree_entropy, tree_hull)


class Tracer:
    """Spans as [name, start, end, parent index, request id, error]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = None
        self._stack: list[int] = []
        self._domains: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
               self.request, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield rec
        except BaseException as exc:
            rec[5] = type(exc).__name__
            raise
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def _in_measure(self) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]][0].startswith("measure.")

    def _wrap(self, obj, attr: str, name: str, probe_src=None, on_result=None):
        call = getattr(obj, attr)

        def traced(domain, *args, **kwargs):
            if probe_src is not None and not self._in_measure():
                self._domains.append((probe_src, domain))
            with self.span(name):
                out = call(domain, *args, **kwargs)
            if on_result is not None:
                on_result(out)
            return out

        setattr(obj, attr, traced)

    def _count_table(self, marg) -> None:
        if marg.is_dense:
            cells, positive = marg.dense.size, int(np.count_nonzero(marg.dense))
        else:
            cells = len(marg.sparse)
            positive = sum(1 for p in marg.sparse.values() if p > 0)
        self.counts["measure.cells"] += cells
        self.counts["measure.positive"] += positive

    def wrap_source(self, src):
        """Trace the measure-layer methods of one source instance."""
        if isinstance(src, MarkovSource):
            self._wrap(src, "domain_entropy", "measure.domain_entropy", src)
            self._wrap(src, "ball_marginal", "measure.ball_marginal", src,
                       self._count_table)
        elif isinstance(src, CoarsenedSource):
            self.wrap_source(src.base)
            self._wrap(src, "domain_entropy", "measure.domain_entropy", src)
            self._wrap(src, "ball_marginal", "measure.pushforward", src)
        elif isinstance(src, EmpiricalSource):
            self._wrap(src, "domain_entropy", "measure.domain_entropy")
            self._wrap(src, "ball_marginal", "measure.empirical")
        else:
            raise TypeError(f"cannot trace {type(src).__name__}")
        return src

    def probe(self) -> None:
        """Repeat the words work of the request's measure calls, as spans."""
        domains, self._domains = self._domains, []
        for src, domain in domains:
            with self.span("words.tree_hull"):
                hull = tree_hull(domain)
            with self.span("words.shortlex_sort"):
                order = sorted(hull)
            with self.span("words.induced_left_edges"):
                induced_left_edges(order, src.spec)
            self.counts["words.hull_vertices"] += len(hull)
            if isinstance(src, MarkovSource):
                with self.span("measure.tree_entropy"):
                    tree_entropy(src.ts, domain)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, error in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request,
                                     "error": error}) + "\n")


# Per-layer metrics: name -> (unit, better).  Times are busy seconds per
# round of the workload's request list; ``*.self_s`` and
# ``measure.pushforward_s`` subtract the time of child spans.
# ``measure.refusals`` and ``refusal.*`` count and time the refused requests
# (CLI exit code 3) whatever layer refuses them; ``measure.refusal_s`` is the
# part of their replay refused by the measure layer.  The traced run's own
# throughput, set against an untraced run's, gives the overhead.
LAYER_METRICS = {
    "words.ball_s": ("s", "lower"),
    "words.translate_s": ("s", "lower"),
    "words.shortlex_sort_s": ("s", "lower"),
    "words.tree_hull_s": ("s", "lower"),
    "words.induced_left_edges_s": ("s", "lower"),
    "words.hull_vertices": ("count", "lower"),
    "transition.json_s": ("s", "lower"),
    "transition.validate_s": ("s", "lower"),
    "measure.domain_entropy_s": ("s", "lower"),
    "measure.tree_entropy_s": ("s", "lower"),
    "measure.ball_marginal_s": ("s", "lower"),
    "measure.pushforward_s": ("s", "lower"),
    "measure.cells": ("count", "lower"),
    "measure.support_ratio": ("ratio", "higher"),
    "measure.sample_s": ("s", "lower"),
    "measure.empirical_s": ("s", "lower"),
    "measure.refusal_s": ("s", "lower"),
    "measure.refusals": ("count", "lower"),
    "refusal.process_s": ("s", "lower"),
    "refusal.replay_s": ("s", "lower"),
    "entropy.big_F_s": ("s", "lower"),
    "entropy.self_s": ("s", "lower"),
    "entropy.f_markov_s": ("s", "lower"),
    "approx.markov_approximation_s": ("s", "lower"),
    "approx.self_s": ("s", "lower"),
    "approx.superstates": ("count", "lower"),
    "verify.run_all_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "cli.process_s": ("s", "lower"),
    "trace.throughput_rps": ("1/s", "higher"),
}


def refusal_by_layer(spans: list) -> dict[str, float]:
    """Busy time of refused work, by the layer that raised the refusal.

    A refusal is a CapabilityError.  Its time is that of the outermost span
    it ended, and it goes to the layer of the innermost span it ended: the
    one that raised it.
    """
    refused = [error == "CapabilityError" for *_, error in spans]
    raiser: dict[int, int] = {}
    for i in reversed(range(len(spans))):  # children come after their parent
        if refused[i]:
            raiser.setdefault(i, i)
            parent = spans[i][3]
            if parent is not None and refused[parent]:
                raiser.setdefault(parent, raiser[i])
    out: dict[str, float] = defaultdict(float)
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if refused[i] and (parent is None or not refused[parent]):
            out[spans[raiser[i]][0].split(".")[0]] += end - start
    return out


def layer_metrics(tracer: Tracer, rounds: int, throughput_rps: float) -> dict:
    """Aggregate spans and counts into the per-layer metrics, per round."""
    total: dict[str, float] = defaultdict(float)
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, _, _ in tracer.spans:
        total[name] += end - start
        if parent is not None:
            child[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent, _, _) in enumerate(tracer.spans):
        self_time[name] += end - start - child[i]
    c = tracer.counts
    refused_s = refusal_by_layer(tracer.spans)
    raw = {
        "words.ball_s": total["words.ball"],
        "words.translate_s": total["words.translate"],
        "words.shortlex_sort_s": total["words.shortlex_sort"],
        "words.tree_hull_s": total["words.tree_hull"],
        "words.induced_left_edges_s": total["words.induced_left_edges"],
        "words.hull_vertices": c["words.hull_vertices"],
        "transition.json_s": total["transition.json"],
        "transition.validate_s": total["transition.validate"],
        "measure.domain_entropy_s": total["measure.domain_entropy"],
        "measure.tree_entropy_s": total["measure.tree_entropy"],
        "measure.ball_marginal_s": total["measure.ball_marginal"],
        "measure.pushforward_s": self_time["measure.pushforward"],
        "measure.cells": c["measure.cells"],
        "measure.sample_s": total["measure.sample"],
        "measure.empirical_s": total["measure.empirical"],
        "measure.refusal_s": refused_s["measure"],
        "measure.refusals": c["measure.refusals"],
        "refusal.process_s": c["refusal.process_s"],
        "refusal.replay_s": sum(refused_s.values()),
        "entropy.big_F_s": total["entropy.big_F"],
        "entropy.self_s": self_time["entropy.big_F"] + self_time["entropy.big_F_star"],
        "entropy.f_markov_s": total["entropy.f_markov"],
        "approx.markov_approximation_s": total["approx.markov_approximation"],
        "approx.self_s": self_time["approx.markov_approximation"],
        "approx.superstates": c["approx.superstates"],
        "verify.run_all_s": total["verify.run_all"],
        "cli.import_s": c["cli.import_us"] / 1e6,
        "cli.main_s": total["cli.main"],
        "cli.process_s": total["cli.process"],
    }
    out = {name: value / rounds for name, value in raw.items()}
    cells = c["measure.cells"]
    out["measure.support_ratio"] = c["measure.positive"] / cells if cells else 0.0
    out["trace.throughput_rps"] = throughput_rps
    return {name: {"value": out[name], "unit": LAYER_METRICS[name][0]}
            for name in LAYER_METRICS}
