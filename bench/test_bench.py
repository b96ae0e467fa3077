"""Tests of the benchmark itself: inputs, answer checks, tracing, compare.

    python3 -m pytest bench -q
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import serve  # noqa: E402
from freemarkov import (GroupSpec, MarkovSource, big_F, coarsen,  # noqa: E402
                        f_markov, validate, wsf_system)
from freemarkov.errors import CapabilityError  # noqa: E402
from freemarkov.verify import cycle_coarsening, perturbed_wsf  # noqa: E402
from inputs import WORKLOADS, generate, load_inputs, random_system  # noqa: E402
from report import verdict  # noqa: E402
from tracing import (LAYER_METRICS, Tracer, layer_metrics,  # noqa: E402
                     refusal_by_layer)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert json.dumps(generate(workload, 7)) == json.dumps(generate(workload, 7))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_systems(workload):
    a, b = generate(workload, 7), generate(workload, 8)
    assert a["systems"]["rand_g3"] != b["systems"]["rand_g3"]
    assert len(a["requests"]) == len(b["requests"])


@pytest.mark.parametrize("kind", ["group", "semigroup"])
@pytest.mark.parametrize("k", [3, 4, 5])
def test_random_systems_are_invariant(kind, k):
    ts = random_system(np.random.default_rng(k), GroupSpec(2, kind), k)
    assert validate(ts) == []
    assert ts.n_states == k


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_inputs_load_and_validate(workload):
    doc, systems, sources = load_inputs(json.dumps(generate(workload, 3)))
    assert set(doc["systems"]) == set(systems)
    assert set(doc["sources"]) == set(sources)


def test_wrong_answer_counts_as_failed(monkeypatch):
    doc = {"systems": {}, "sources": {"wsf2": {"system": "wsf2", "coarsen": None}},
           "requests": [{"op": "big_F", "source": "wsf2", "n": 1}]}
    systems = {"wsf2": wsf_system(2)}
    sources = {"wsf2": MarkovSource(systems["wsf2"])}
    wrong = big_F(MarkovSource(perturbed_wsf()), 1).big_f
    checker = serve.Checker(systems, sources)
    assert checker.check(doc["requests"][0], big_F(sources["wsf2"], 1).big_f) is None
    assert checker.check(doc["requests"][0], wrong) is not None

    monkeypatch.setattr(serve, "execute", lambda req, systems, sources: wrong)
    res = serve.serve("markov_deep", doc, systems, sources, 0, None, None)
    assert len(res.latencies) == 1
    assert len(res.failures) == 1 and not res.failures[0]["known"]


def _serve_wsf3_depth5(monkeypatch, answer):
    """Serve the known-miss request once, answered by ``answer()``."""
    doc = {"systems": {}, "sources": {"wsf3": {"system": "wsf3", "coarsen": None}},
           "requests": [{"op": "big_F", "source": "wsf3", "n": 5}]}
    systems = {"wsf3": wsf_system(3)}
    sources = {"wsf3": MarkovSource(systems["wsf3"])}
    monkeypatch.setattr(serve, "execute", lambda req, systems, sources: answer())
    return serve.serve("markov_deep", doc, systems, sources, 0, None, None)


def test_known_miss_is_known_only_within_its_limit(monkeypatch):
    f = f_markov(wsf_system(3))
    res = _serve_wsf3_depth5(monkeypatch, lambda: f + 1.7e-9)
    assert len(res.failures) == 1 and res.correct

    res = _serve_wsf3_depth5(monkeypatch, lambda: f + 1e-2)
    assert len(res.failures) == 1 and not res.correct

    def crash():
        raise ArithmeticError("overflow")
    res = _serve_wsf3_depth5(monkeypatch, crash)
    assert len(res.failures) == 1 and not res.correct


def test_refusals_go_to_the_layer_that_raised_them():
    tr = Tracer()
    for inner in ("measure.ball_marginal", "approx.markov_approximation"):
        with pytest.raises(CapabilityError):
            with tr.span("entropy.big_F"):
                with tr.span("words.ball"):
                    pass
                with tr.span(inner):
                    raise CapabilityError("too large")
    by_layer = refusal_by_layer(tr.spans)
    assert set(by_layer) == {"measure", "approx"}
    assert sum(by_layer.values()) == pytest.approx(
        sum(end - start for name, start, end, *_ in tr.spans if name == "entropy.big_F"))


def test_non_monotone_hidden_F_counts_as_failed():
    src = cycle_coarsening()
    checker = serve.Checker({}, {"cycle": src})
    req = {"op": "big_F", "source": "cycle", "n": 1}
    assert checker.check(req, big_F(src, 1).big_f) is None
    assert checker.check(req, big_F(src, 0).big_f + 1e-6) is not None


@pytest.mark.parametrize("make", [lambda: MarkovSource(wsf_system(2)),
                                  lambda: coarsen(wsf_system(2), [0, 0, 1, 1])])
def test_traced_big_F_is_big_F(make):
    tr = Tracer()
    for n in (0, 1):
        assert serve.traced_big_F(tr, tr.wrap_source(make()), n) == big_F(make(), n).big_f
    tr.probe()
    names = {span[0] for span in tr.spans}
    assert {"entropy.big_F", "words.ball", "measure.domain_entropy",
            "words.tree_hull"} <= names
    metrics = layer_metrics(tr, 1, 1.0)
    assert set(metrics) == set(LAYER_METRICS)
    assert metrics["entropy.big_F_s"]["value"] >= metrics["entropy.self_s"]["value"] > 0


def test_cli_checks_accept_cli_output_and_reject_tampering(tmp_path):
    doc, systems, _ = load_inputs(json.dumps(generate("cli", 5)))
    runner = serve.CliRunner(HERE.parent, tmp_path, systems)
    checker = serve.Checker(systems, {})
    wanted = {"validate", "finv", "fseq", "marginal", "sample", "approx"}
    seen = set()
    for req in doc["requests"]:
        if req["cmd"] in seen or req["cmd"] not in wanted or req["expect"] != 0:
            continue
        seen.add(req["cmd"])
        code, out, err = serve.cli_main(runner.argv(req))
        assert checker.check_cli(req, code, out, err) is None, req
        assert checker.check_cli(req, code, _tamper(req["cmd"], out), err) is not None, req
    assert seen == wanted


def test_replay_cli_spans_the_layers(tmp_path):
    doc, systems, _ = load_inputs(json.dumps(generate("cli", 5)))
    runner = serve.CliRunner(HERE.parent, tmp_path, systems)
    tr = Tracer()
    for req in doc["requests"]:
        if req["expect"] == 0 and req["cmd"] != "check":
            serve.replay_cli(tr, req, runner)
    names = {span[0] for span in tr.spans}
    assert {"transition.json", "transition.validate", "entropy.f_markov",
            "entropy.big_F_star", "measure.pushforward", "measure.sample",
            "approx.markov_approximation"} <= names


def _tamper(cmd: str, out: str) -> str:
    """The output with one answer changed."""
    if cmd == "validate":
        return "INVALID: 1 violated condition(s)"
    if cmd == "sample":
        lines = out.splitlines()
        lines[1] = ("1" if lines[1][0] == "0" else "0") + lines[1][1:]
        return "\n".join(lines)
    m = re.search(r"\d\.(\d)", out)
    return out[:m.start(1)] + str((int(m.group(1)) + 1) % 10) + out[m.end(1):]


def test_refusal_passes_only_as_refusal():
    checker = serve.Checker({}, {})
    req = {"op": "cli", "cmd": "marginal", "system": "wsf2", "args": ["--radius", "2"],
           "expect": 3}
    assert checker.check_cli(req, 3, "", "refused: support exceeds 1048576 patterns") is None
    assert checker.check_cli(req, 1, "", "error") is not None


def test_verdicts():
    base = [10.0, 10.2, 9.8, 10.1, 9.9]
    assert verdict(base, [x * 1.5 for x in base], "lower", 0.1) == "worse"
    assert verdict(base, [x * 1.02 for x in base], "lower", 0.1) == "within"
    assert verdict(base, [x * 0.5 for x in base], "lower", 0.1) == "better"
    assert verdict(base, [5.0, 20.0, 9.0, 12.0, 30.0], "lower", 0.1) == "unresolved"
    assert verdict(base, [x * 1.5 for x in base], "higher", 0.1) == "better"
