"""Seeded inputs for the benchmark workloads.

Everything the library sees is generated here from the workload seed: the
transition systems (as ``to_json_dict`` documents), the coarsenings that turn
them into hidden-Markov sources, and the list of requests that makes up one
round of a workload.  The library never sees the seed itself.

Random invariant systems come from Sinkhorn scaling (Sinkhorn, Ann. Math.
Statist. 35, 1964): a random positive K x K matrix is scaled to row and
column sums pi, which gives a pair joint J_s.  Group systems take
P[s] = J_s / pi and P[s^-1] = J_s^T / pi; semigroup systems take
P[s] = J_s / pi.  Both are built through ``from_pair_marginals`` and must pass
``validate`` at ``DEFAULT_TOL``.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np

from freemarkov import (CoarsenedSource, GroupSpec, MarkovSource,
                        from_json_dict, from_pair_marginals, flip_system,
                        matching_system, product_system, to_json_dict,
                        validate, wsf_system)
from freemarkov.transition import DEFAULT_TOL
from freemarkov.verify import DEFAULT_SEED, cycle_system, semigroup_example

WORKLOADS = ("markov_deep", "hidden_exact", "cli")

# Percentile reported as latency_tail_ms: the highest of p50, p75, p90, p95,
# p99 that leaves at least ten samples beyond it in every run at the commit
# that defined the benchmark.  It is fixed per workload, so that a faster
# commit, which fits more requests into a run, is compared at the same
# percentile.
TAIL_PERCENTILE = {"markov_deep": 90.0, "hidden_exact": 99.0, "cli": 75.0}

# Empirical requests sample with seeds that do not depend on the workload
# seed: the 4-sigma band check is a statistical test, and fixed samples keep
# a chance excursion from turning into a failed operation on some seeds.
EMPIRICAL_COUNT = 20_000
EMPIRICAL_SEEDS = tuple(int(s.generate_state(1)[0])
                        for s in np.random.SeedSequence(DEFAULT_SEED).spawn(3))


def sinkhorn(a: np.ndarray, pi: np.ndarray, tol: float = 1e-15,
             max_iter: int = 10_000) -> np.ndarray:
    """Scale a positive matrix to row and column sums pi."""
    j = np.array(a, dtype=float)
    for _ in range(max_iter):
        j *= (pi / j.sum(axis=1))[:, None]
        j *= (pi / j.sum(axis=0))[None, :]
        if np.abs(j.sum(axis=1) - pi).max() <= tol:
            return j
    raise RuntimeError("Sinkhorn scaling did not converge")


def random_system(rng: np.random.Generator, spec: GroupSpec, k: int):
    """A random invariant transition system with k states."""
    pi = rng.uniform(0.5, 1.5, size=k)
    pi /= pi.sum()
    joints = {}
    for s in spec.positive_generators():
        j = sinkhorn(rng.uniform(0.05, 1.0, size=(k, k)), pi)
        joints[s] = j
        if spec.is_group:
            joints[-s] = j.T
    ts = from_pair_marginals(spec, pi, joints)
    report = validate(ts, DEFAULT_TOL)
    if report:
        raise RuntimeError(f"generated system fails validation: {report[:3]}")
    return ts


def _eps(rng: np.random.Generator) -> float:
    return float(np.round(rng.uniform(0.1, 0.4), 6))


class Builder:
    """Collects named systems, sources and requests for one workload."""

    def __init__(self, workload: str, seed: int):
        self.doc = {"workload": workload, "seed": seed,
                    "systems": {}, "sources": {}, "requests": []}

    def system(self, name: str, ts) -> str:
        self.doc["systems"][name] = to_json_dict(ts)
        return name

    def source(self, name: str, system: str, coarsen=None) -> str:
        self.doc["sources"][name] = {"system": system, "coarsen": coarsen}
        return name

    def request(self, **req) -> None:
        self.doc["requests"].append(req)


def _markov_deep(b: Builder, rng: np.random.Generator) -> None:
    g2, s2 = GroupSpec(2, "group"), GroupSpec(2, "semigroup")
    # Every depth from 1 up, so that the median and the tail percentile fall
    # among several requests of similar cost rather than in a gap between two.
    fixed = {
        "wsf3": (wsf_system(3), range(1, 6)),
        "wsf2": (wsf_system(2), range(1, 8)),
        "matching2": (matching_system(2), range(1, 6)),
        "flip2": (flip_system(2, _eps(rng)), range(1, 6)),
        "semigroup": (semigroup_example(), range(1, 11)),
    }
    randoms = {
        "rand_g3": (random_system(rng, g2, 3), range(1, 6)),
        "rand_g4": (random_system(rng, g2, 4), range(1, 6)),
        "rand_g5": (random_system(rng, g2, 5), range(1, 6)),
        "rand_s3": (random_system(rng, s2, 3), range(1, 9)),
        "rand_s4": (random_system(rng, s2, 4), range(1, 9)),
        "rand_s5": (random_system(rng, s2, 5), range(1, 8)),
    }
    for name, (ts, depths) in {**fixed, **randoms}.items():
        b.source(name, b.system(name, ts))
        for n in depths:
            b.request(op="big_F", source=name, n=n)


def _hidden_exact(b: Builder, rng: np.random.Generator) -> None:
    g2, g3 = GroupSpec(2, "group"), GroupSpec(3, "group")
    # (system, coarsening, deepest n for big_F and marginals, deepest m)
    hidden = {
        "cycle": (cycle_system(2), [0, 1, 1], 5, 3),
        "flipflip": (product_system(flip_system(2, _eps(rng)),
                                    flip_system(2, _eps(rng))), [0, 1, 1, 0], 1, 1),
        "wsf2": (wsf_system(2), [0, 0, 1, 1], 1, 1),
        "matching2": (matching_system(2), [0, 1, 0, 1], 1, 1),
        "rand_g3": (random_system(rng, g2, 3), [0, 1, 1], 1, 1),
        "rand_g4": (random_system(rng, g2, 4), [0, 1, 1, 0], 1, 1),
        "rank3": (random_system(rng, g3, 3), [0, 1, 1], 1, 1),
        "semigroup": (random_system(rng, GroupSpec(2, "semigroup"), 3),
                      [0, 1, 1], 2, 2),
    }
    for name, (ts, cmap, n_max, m_max) in hidden.items():
        b.source(name, b.system(name, ts), cmap)
        for n in range(n_max + 1):
            b.request(op="big_F", source=name, n=n)
            b.request(op="marginal", source=name, n=n)
        for m in range(m_max + 1):
            b.request(op="approx", source=name, m=m)
    exact = len(b.doc["requests"])
    samplers = {"flip03": flip_system(2, 0.3), "wsf2_markov": wsf_system(2),
                "matching2_markov": matching_system(2)}
    for name, ts in samplers.items():
        b.system(name, ts)
    names = list(samplers)
    for i in range(exact // 4):  # one request in five is empirical
        b.request(op="empirical", system=names[i % len(names)], radius=2,
                  count=EMPIRICAL_COUNT,
                  sample_seed=EMPIRICAL_SEEDS[i % len(EMPIRICAL_SEEDS)])


def _cli(b: Builder, rng: np.random.Generator) -> None:
    g2 = GroupSpec(2, "group")
    systems = {
        "wsf2": wsf_system(2),
        "flip2": flip_system(2, _eps(rng)),
        "flipflip": product_system(flip_system(2, _eps(rng)),
                                   flip_system(2, _eps(rng))),
        "cycle": cycle_system(2),
        "semigroup": semigroup_example(),
        "rand_g3": random_system(rng, g2, 3),
        "rand_s3": random_system(rng, GroupSpec(2, "semigroup"), 3),
    }
    for name, ts in systems.items():
        b.system(name, ts)

    def cli(cmd, system, *args, expect=0):
        b.request(op="cli", cmd=cmd, system=system, args=list(args), expect=expect)

    for name in systems:
        cli("validate", name)
    for name in ("wsf2", "flip2", "flipflip", "cycle", "semigroup", "rand_g3",
                 "rand_s3"):
        cli("finv", name)
    for name, nmax in (("wsf2", 3), ("flip2", 3), ("flipflip", 1), ("rand_g3", 2),
                       ("semigroup", 4), ("rand_s3", 3)):
        cli("fseq", name, "--nmax", str(nmax))
    cli("fseq", "flip2", "--nmax", "1", "--star")
    cli("fseq", "semigroup", "--nmax", "1", "--star")
    for name, cmap, nmax in (("flipflip", "0,1,1,0", 1), ("cycle", "0,1,1", 3),
                             ("rand_g3", "0,1,1", 1), ("rand_s3", "0,1,1", 2)):
        cli("fseq", name, "--coarsen", cmap, "--nmax", str(nmax))
    cli("fseq", "cycle", "--coarsen", "0,1,1", "--nmax", "1", "--star")
    for name, extra, radius in (("wsf2", (), 1),
                                ("flipflip", ("--coarsen", "0,1,1,0"), 1),
                                ("cycle", ("--coarsen", "0,1,1"), 3),
                                ("semigroup", (), 2), ("rand_g3", (), 1),
                                ("rand_s3", (), 2)):
        cli("marginal", name, *extra, "--radius", str(radius))
    for name, radius, count in (("flip2", 2, 2000), ("wsf2", 2, 1000),
                                ("semigroup", 3, 2000), ("rand_g3", 2, 1000)):
        cli("sample", name, "--radius", str(radius), "--count", str(count),
            "--seed", str(int(rng.integers(1, 2 ** 31))))
    for name, cmap, depth in (("flipflip", "0,1,1,0", 1), ("cycle", "0,1,1", 1),
                              ("rand_g3", "0,1,1", 1), ("rand_s3", "0,1,1", 2)):
        cli("approx", name, "--coarsen", cmap, "--depth", str(depth))
    cli("check", None, "--seed", str(int(rng.integers(1, 2 ** 31))))
    # Refused at the seed with exit code 3 after seconds of work.
    cli("fseq", "flipflip", "--coarsen", "0,1,1,0", "--nmax", "2", expect=3)
    cli("marginal", "wsf2", "--radius", "2", expect=3)
    cli("approx", "flipflip", "--coarsen", "0,1,1,0", "--depth", "2", expect=3)


def generate(workload: str, seed: int) -> dict:
    """The inputs of one workload: systems, sources and one round of requests.

    The seed picks the random systems, flip parameters and CLI seeds; the
    order and kinds of requests are the same for every seed, so that runs
    on different seeds do the same amount of work.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    b = Builder(workload, seed)
    {"markov_deep": _markov_deep, "hidden_exact": _hidden_exact,
     "cli": _cli}[workload](b, rng)
    return b.doc


def make_source(ts, coarsen):
    return MarkovSource(ts) if coarsen is None else CoarsenedSource(ts, coarsen)


def load_inputs(text: str, span=None):
    """Systems and sources from an inputs document; raises if one is invalid.

    ``span`` is ``Tracer.span`` in a traced run, so that loading and
    validating are recorded as transition-layer work.
    """
    span = span or (lambda name: contextlib.nullcontext())
    with span("transition.json"):
        doc = json.loads(text)
        systems = {name: from_json_dict(sdoc) for name, sdoc in doc["systems"].items()}
    for name, ts in systems.items():
        with span("transition.validate"):
            report = validate(ts, DEFAULT_TOL)
        if report:
            raise ValueError(f"system {name} fails validation: {report[:3]}")
    sources = {name: make_source(systems[s["system"]], s["coarsen"])
               for name, s in doc["sources"].items()}
    return doc, systems, sources
