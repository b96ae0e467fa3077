"""The chain source against the benchmark's systems, and what ``bench/`` reads
from sources.

``bench/`` is imported read-only, as ``bench/test_bench.py`` imports it.  A
Markov source is the one-to-one coarsening of its chain: on every system the
benchmark builds, the identity and the reversed labelling give the Markov
source's marginals and F bit for bit.  The benchmark tells sources apart by
class: ``bench/serve.py``'s ``Checker`` holds a ``MarkovSource``'s F to
``f_markov(src.ts)``, and ``bench/tracing.py`` wraps a ``CoarsenedSource``'s
``base`` as its chain.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from freemarkov import (CoarsenedSource, MarkovSource, big_F, coarsen,  # noqa: E402
                        flip_system, from_json_dict)
from freemarkov.errors import CapabilityError  # noqa: E402
from freemarkov.words import ball_domain  # noqa: E402
from inputs import WORKLOADS, generate  # noqa: E402
from tracing import Tracer  # noqa: E402


def _bench_systems():
    """Each distinct system of the three workloads at seeds 801 and 1, by name."""
    docs = {}
    for seed in (801, 1):
        for workload in WORKLOADS:
            for name, doc in generate(workload, seed)["systems"].items():
                docs.setdefault(json.dumps(doc, sort_keys=True), f"{workload}-{seed}-{name}")
    return {name: json.loads(key) for key, name in docs.items()}


BENCH_SYSTEMS = _bench_systems()


def _answers(src):
    """Each marginal on B(e, 0..2) and the pair domains of B(e, 1) as codes,
    their dtype and masses as bytes, or its refusal; and F at n = 0..2."""
    domains = [ball_domain(src.spec, n) for n in range(3)]
    domains += [ball_domain(src.spec, 1, s) for s in src.spec.positive_generators()]
    out = []
    for dom in domains:
        try:
            marg = src.ball_marginal(dom)
        except CapabilityError as refusal:
            out.append((str(refusal), refusal.needed, refusal.limit))
        else:
            out.append((str(marg.codes.dtype), repr(marg.codes.tolist()),
                        marg.masses.tobytes()))
    return out + [repr(big_F(src, n)) for n in range(3)]


@pytest.mark.parametrize("name", sorted(BENCH_SYSTEMS))
def test_one_to_one_coarsenings_are_the_markov_source(name):
    ts = from_json_dict(BENCH_SYSTEMS[name])
    expected = _answers(MarkovSource(ts))
    k = ts.n_states
    for labels in (range(k), range(k - 1, -1, -1)):
        assert _answers(coarsen(ts, labels)) == expected


@pytest.mark.parametrize("labels", [[0, 1], [1, 0], [0, 0]])
def test_what_bench_reads_from_a_coarsened_source(labels):
    ts = flip_system(2, 0.3)
    src = coarsen(ts, labels)
    assert isinstance(src, CoarsenedSource) and not isinstance(src, MarkovSource)
    assert type(src.base) is MarkovSource and src.base.ts is src.ts is ts
    assert Tracer().wrap_source(src) is src  # the walk into .base ends
