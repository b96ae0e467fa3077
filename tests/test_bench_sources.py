"""The chain source against the benchmark's systems, and what ``bench/`` reads
from sources.

``bench/`` is imported read-only, as ``bench/test_bench.py`` imports it.  A
Markov source is the one-to-one coarsening of its chain: on every system the
benchmark builds, the identity and the reversed labelling give the Markov
source's marginals and F bit for bit.  The benchmark tells sources apart by
class: ``bench/serve.py``'s ``Checker`` holds a ``MarkovSource``'s F to
``f_markov(src.ts)``, and ``bench/tracing.py`` wraps a ``CoarsenedSource``'s
``base`` as its chain.  The sum-product's tables on the ``hidden_exact``
sources and on masked Sinkhorn coarsenings are pinned by sha256 digests, as
are the hull grids of the ``markov_deep`` sources and the ``big_F`` reports
the ``hidden_exact`` and ``markov_deep`` requests read.
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from freemarkov import (CoarsenedSource, GroupSpec, MarkovSource, ball,  # noqa: E402
                        big_F, coarsen, empirical_source, flip_system,
                        from_json_dict)
from freemarkov.errors import CapabilityError  # noqa: E402
from freemarkov.measure import _grid_fits  # noqa: E402
from freemarkov.words import IDENTITY, Domain, Word, ball_domain  # noqa: E402
from inputs import WORKLOADS, generate, load_inputs  # noqa: E402
from systems import sinkhorn_system  # noqa: E402
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


def _table_digest(src, domains):
    """sha256 of each domain's marginal (codes with their dtype, and masses)
    and uncoded sum-product masses, or its refusal, in domain order."""
    digest = hashlib.sha256()
    for dom in domains:
        dom = Domain.of(dom, src.spec)
        try:
            marg = src.ball_marginal(dom)
            uncoded = src._sum_product(dom, coded=False)
        except CapabilityError as refusal:
            digest.update(repr((str(refusal), refusal.needed, refusal.limit)).encode())
            continue
        assert uncoded[0] is None
        digest.update(str(marg.codes.dtype).encode() + repr(marg.codes.tolist()).encode())
        digest.update(marg.masses.tobytes() + uncoded[1].tobytes())
    return digest.hexdigest()


def _hidden_exact_sources():
    """The sources of the ``hidden_exact`` workload at seed 801, each with its
    balls and pair domains up to the deepest radius its requests read."""
    doc = generate("hidden_exact", 801)
    deepest = {}
    for request in doc["requests"]:
        if "source" in request:
            n = request.get("n", request.get("m"))
            deepest[request["source"]] = max(n, deepest.get(request["source"], 0))
    out = {}
    for name, sdoc in doc["sources"].items():
        src = CoarsenedSource(from_json_dict(doc["systems"][sdoc["system"]]), sdoc["coarsen"])
        domains = [ball_domain(src.spec, n) for n in range(deepest[name] + 1)]
        domains += [ball_domain(src.spec, n, s) for n in range(deepest[name] + 1)
                    for s in src.spec.positive_generators()]
        out[name] = (src, domains)
    return out


# sha256 pins of ``_table_digest``, taken before the sum-product joined each
# class in one pass
HIDDEN_EXACT_PINS = {
    "cycle": "8bd887ba00fd72e1bda3bf40ff3a211d3c2b6de9638d2333713e58f0a1bfab4f",
    "flipflip": "ab70e97b297520041f2ad6111ad36a0f00649799f21920edb70ddaa1465952b1",
    "wsf2": "f16005b2ee6552a9990f632795dfc95662b63a79f0e2bbd221321c372225f927",
    "matching2": "aa4c27175f963fbf8808b806a9259edcba172340fc154edde262523e4d8c9c3e",
    "rand_g3": "cbbe2931442eb87d0e68e431bc1bc94a33668961296aba53b8dfb5d1a7de8d20",
    "rand_g4": "552bb5cd319cd6df62eb3bb861d4fd57ffd9032376ff153d9cabb935c0b38e5e",
    "rank3": "4b234b02b70591084af314431146b5833a6fddd990ee9a357c55be60860477fc",
    "semigroup": "3115c7fa44fbaeee59aa40a3dd913ba07610b16a7ca514e58eba7bb5cdf3ff44",
}


@pytest.mark.parametrize("name", sorted(HIDDEN_EXACT_PINS))
def test_sum_product_tables_pinned(name):
    src, domains = _hidden_exact_sources()[name]
    assert _table_digest(src, domains) == HIDDEN_EXACT_PINS[name]


def _masked_sources():
    """Masked Sinkhorn coarsenings, whose matrices have zeros, so that the
    joined tables have zero rows; one has a domain that is not its own hull,
    and one refuses on its deepest ball."""
    g2, s2 = GroupSpec(2), GroupSpec(2, "semigroup")
    group = coarsen(sinkhorn_system(g2, 4, 5, n_perms=1), [0, 1, 1, 0])
    semigroup = coarsen(sinkhorn_system(s2, 5, 7, n_perms=2), [0, 1, 2, 1, 0])
    return {
        "group": (group, [ball_domain(g2, n) for n in range(3)]
                  + [ball_domain(g2, 1, s) for s in (1, 2)] + [ball(g2, 2)[1:9]]),
        "semigroup": (semigroup, [ball_domain(s2, n) for n in range(5)]
                      + [ball_domain(s2, 3, s) for s in (1, 2)]),
    }


MASKED_PINS = {
    "group": "8be0f2a2b7419850a82abba84d8c44cbfb2c888132d422c9555bf5c8e857407d",
    "semigroup": "f066d1a933245e1d3333969fb522dfccc8079b3ac786d6c6f6b82a3fbdfc5ebb",
}


@pytest.mark.parametrize("name", sorted(MASKED_PINS))
def test_masked_sinkhorn_tables_pinned(name):
    src, domains = _masked_sources()[name]
    assert _table_digest(src, domains) == MASKED_PINS[name]


def _markov_deep_grids():
    """The Markov sources of the ``markov_deep`` workload at seed 801, each with
    every ball and pair domain whose hull grid fits, and a domain with a gap
    between e and aa, which is not its own hull."""
    out = {}
    for name, sdoc in generate("markov_deep", 801)["systems"].items():
        src = MarkovSource(from_json_dict(sdoc))
        k, spec = src.ts.n_states, src.spec
        domains = []
        for n in itertools.count():
            if not _grid_fits(k, ball_domain(spec, n).hull_size):
                break
            domains += [ball_domain(spec, n)] + [
                d for d in (ball_domain(spec, n, s) for s in spec.positive_generators())
                if _grid_fits(k, d.hull_size)]
        domains.append(Domain.of([IDENTITY, Word((1, 1))], spec))
        out[name] = (src, domains)
    return out


def _grid_digest(src, domains):
    """sha256 of each domain's coded grid (codes with their dtype, and masses)
    and uncoded grid (the flat masses), in domain order."""
    digest = hashlib.sha256()
    for dom in domains:
        codes, masses = src._grid(dom)
        uncoded = src._grid(dom, coded=False)
        assert uncoded[0] is None
        digest.update(str(codes.dtype).encode() + codes.tobytes() + masses.tobytes())
        digest.update(uncoded[1].tobytes())
    return digest.hexdigest()


# sha256 pins of ``_grid_digest``, taken before the grid was filled a matrix
# column at a time
MARKOV_DEEP_GRID_PINS = {
    "flip2": "3a3f0a0eb94a5f1be29aea198fec0d04997922630f712bd4998098d208e00d40",
    "matching2": "d847a040625057227dcde4f8c47d0bc53395bd18d5eb0a9b19344fb120ccc862",
    "rand_g3": "069829740b71d7ae9206f22334cb6c562a4431a7f7cccb67ab96c4e7e452b265",
    "rand_g4": "0c0d157e1dd24477165cadc042c679cb884fb61db3ddaa90420201d3624c2f93",
    "rand_g5": "d1cbd890b8a035ed3ca496996f0f99fa02863b67246a804d6e30be39ec34e0e8",
    "rand_s3": "021f994a6ba7b6fa21de37e10639975596b8654ad79dbd73e8418c8cc99f1fad",
    "rand_s4": "3d428c6034a24652b22ab5905142b7e88eb5f1a8903275d122a1b364a024afdb",
    "rand_s5": "f1403758b1fc6e622f63c251ea24a77b32c9cc9b60052f31b2a4220c63eb75f9",
    "semigroup": "22f3cb10495abfe38bb125150f938d8e5d97ceda415313315cfd0e5d9af3d0d4",
    "wsf2": "15409845fd63705f984115b49203064855ecde83d3e34c2006a0e6f114e530a9",
    "wsf3": "87d8fdec58759f66622a007311b5c1f5dab001d9c4bc3291ce86814d87c666a6",
}


@pytest.mark.parametrize("name", sorted(MARKOV_DEEP_GRID_PINS))
def test_grid_tables_pinned(name):
    src, domains = _markov_deep_grids()[name]
    assert _grid_digest(src, domains) == MARKOV_DEEP_GRID_PINS[name]


def _report_digest(workload, seed):
    """sha256 of the ``repr`` of each ``big_F`` report a workload's requests
    read, in request order: the report of each ``big_F`` request, and
    ``big_F(emp, 1)`` of each ``empirical`` request's sample."""
    doc, systems, sources = load_inputs(json.dumps(generate(workload, seed)))
    digest = hashlib.sha256()
    for request in doc["requests"]:
        if request["op"] == "big_F":
            report = big_F(sources[request["source"]], request["n"])
        elif request["op"] == "empirical":
            emp = empirical_source(systems[request["system"]], request["radius"],
                                   request["sample_seed"], request["count"])
            report = big_F(emp, 1)
        else:
            continue
        digest.update(repr(report).encode())
    return digest.hexdigest()


# sha256 pins of ``_report_digest``, taken before the one-block entropy tail
REPORT_PINS = {
    ("hidden_exact", 801):
        "ad05bf4e3bbf04d97c25ff4fb8e374be28141738198175c1ebffc34c261ea28d",
    ("hidden_exact", 1):
        "3ef08ca2756053d3594a5d0362592d1d89deb3b994d2f6f91a29e7e64566c7c4",
    ("markov_deep", 801):
        "d00f6ed5d80d405045b3099e226ecf695592697f95334cad1c73e64e4d3aa495",
    ("markov_deep", 1):
        "4b263695b221efd7bc863e88bfe72e8d08110f337b38f263adc51222117699ad",
}


@pytest.mark.parametrize("workload,seed", sorted(REPORT_PINS))
def test_entropy_reports_pinned(workload, seed):
    assert _report_digest(workload, seed) == REPORT_PINS[workload, seed]
