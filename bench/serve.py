"""Serving the requests of one workload: plain runs, traced replays, checks.

An untraced run calls the library exactly as a user would: one public call
per in-process request, or one ``python -m freemarkov.cli`` process per CLI
request.  A traced run produces the same answers from the public calls the
plain call is made of, inside spans (see ``tracing``).  Every answer is
checked; a check that fails counts the request as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import signal
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

from freemarkov import (EmpiricalSource, MarkovSource, Word, ball, big_F,
                        big_F_star, empirical_source, f_markov, from_json_dict,
                        markov_approximation, run_all, sample_indices,
                        to_json_dict, validate)
from freemarkov import cli as cli_mod
from freemarkov.errors import CapabilityError
from freemarkov.transition import DEFAULT_TOL
from freemarkov.verify import ENTROPY_TOL, EXACT_TOL

from inputs import make_source
from tracing import Tracer

MONOTONE_TOL = 1e-10   # tolerance of verify.check_monotonicity
SIGMA = 4.0            # band of verify.check_sampling_frequencies
CHILD_TIMEOUT_S = 150

# Tolerance misses that the code under test is known to produce, as
# (workload, source, n) -> the largest |F - f_markov| still taken for that
# miss.  They count in ``failed``; ``correct`` is false for any other
# failure, and for these requests too when they raise or miss by more.
# At depth 5 the per-edge float sum in big_F(wsf_system(3), 5) drifts
# 1.7e-9 from the closed form, past ENTROPY_TOL.
KNOWN_MISSES = {("markov_deep", "wsf3", 5): 1e-8}


def request_key(req: dict) -> str:
    if req["op"] == "cli":
        return " ".join(["cli", req["cmd"], req["system"] or ""] + req["args"])
    where = req.get("source") or req.get("system")
    depth = req.get("n", req.get("m", req.get("radius")))
    return f"{req['op']} {where} {depth}"


# ---------------------------------------------------------------------------
# CLI child processes
# ---------------------------------------------------------------------------

def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv: list[str], env: dict, out: Path, err: Path):
    """Run a child to completion; (exit code, seconds, peak RSS in MB).

    ``os.wait4`` reaps the child and returns its resource usage, which is
    where its peak RSS comes from.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    t0 = perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)])
    killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    return os.waitstatus_to_exitcode(status), perf_counter() - t0, usage.ru_maxrss / 1024


class CliRunner:
    def __init__(self, root: Path, workdir: Path, systems: dict):
        self.workdir = workdir
        self.env = child_env(root)
        self.paths = {}
        for name, ts in systems.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(to_json_dict(ts)))
            self.paths[name] = str(path)

    def argv(self, req: dict) -> list[str]:
        files = [self.paths[req["system"]]] if req["system"] else []
        return [req["cmd"]] + files + req["args"]

    def run(self, req: dict, importtime: bool = False):
        """(exit code, stdout, stderr, seconds, peak RSS MB, import us)."""
        flags = ["-X", "importtime"] if importtime else []
        out, err = self.workdir / "cli.out", self.workdir / "cli.err"
        code, secs, rss = spawn([sys.executable] + flags + ["-m", "freemarkov.cli"]
                                + self.argv(req), self.env, out, err)
        errs, import_us = [], 0
        for line in err.read_text().splitlines():
            if not line.startswith("import time:"):
                errs.append(line)
            elif line.rstrip().endswith("| freemarkov"):
                import_us += int(line.split("|")[1])
        return code, out.read_text(), "\n".join(errs), secs, rss, import_us


# ---------------------------------------------------------------------------
# Plain execution and traced replay
# ---------------------------------------------------------------------------

def execute(req: dict, systems: dict, sources: dict):
    """One in-process request, as a user would call the library."""
    op = req["op"]
    if op == "big_F":
        return big_F(sources[req["source"]], req["n"]).big_f
    if op == "marginal":
        src = sources[req["source"]]
        return src.ball_marginal(ball(src.spec, req["n"]))
    if op == "approx":
        return markov_approximation(sources[req["source"]], req["m"])
    if op == "empirical":
        emp = empirical_source(systems[req["system"]], req["radius"],
                               req["sample_seed"], req["count"])
        return emp, big_F(emp, 1).big_f
    raise ValueError(f"unknown request op {op!r}")


def traced_big_F(tr: Tracer, src, n: int) -> float:
    """entropy.big_F as the public calls it is made of."""
    with tr.span("entropy.big_F"):
        with tr.span("words.ball"):
            b = ball(src.spec, n)
        h_ball = src.domain_entropy(b)
        pairs = []
        for s in src.spec.positive_generators():
            step = Word((s,))
            with tr.span("words.translate"):
                union = set(b) | {w * step for w in b}
            with tr.span("words.shortlex_sort"):
                domain = sorted(union)
            pairs.append(src.domain_entropy(domain))
        return src.spec.coefficient * h_ball + sum(tuple(pairs))


def traced_approx(tr: Tracer, src, m: int):
    with tr.span("approx.markov_approximation"):
        out = markov_approximation(src, m)
    tr.counts["approx.superstates"] += len(out.patterns)
    return out


def replay(tr: Tracer, req: dict, systems: dict, sources: dict):
    """The same request as ``execute``, broken into spans."""
    op = req["op"]
    if op == "empirical":
        ts = systems[req["system"]]
        with tr.span("measure.sample"):
            dom, rows = sample_indices(ts, req["radius"], req["sample_seed"], req["count"])
        with tr.span("measure.empirical"):
            emp = tr.wrap_source(EmpiricalSource(dom, ts.states, rows, ts.spec))
        return emp, traced_big_F(tr, emp, 1)
    src = sources[req["source"]]
    if op == "big_F":
        return traced_big_F(tr, src, req["n"])
    if op == "marginal":
        with tr.span("words.ball"):
            b = ball(src.spec, req["n"])
        return src.ball_marginal(b)
    if op == "approx":
        return traced_approx(tr, src, req["m"])
    raise ValueError(f"unknown request op {op!r}")


def cli_args(req: dict):
    """The CLI's own parse of a request's options (the input file aside)."""
    return cli_mod.build_parser().parse_args([req["cmd"]] + req["args"])


def cli_source(ts, args):
    """The source a CLI command builds: coarsened when ``--coarsen`` is given."""
    cmap = getattr(args, "coarsen", None)
    return make_source(ts, None if cmap is None else [c.strip() for c in cmap.split(",")])


def replay_cli(tr: Tracer, req: dict, runner: CliRunner) -> None:
    """The public calls behind one CLI command, in the order the CLI makes them."""
    cmd, args = req["cmd"], cli_args(req)
    if cmd == "check":
        with tr.span("verify.run_all"):
            run_all(seed=args.seed)
        return
    with tr.span("transition.json"):
        ts = from_json_dict(json.loads(Path(runner.paths[req["system"]]).read_text()))
    if cmd in ("validate", "finv"):
        with tr.span("transition.validate"):
            validate(ts, DEFAULT_TOL)
    if cmd == "finv":
        with tr.span("entropy.f_markov"):
            f_markov(ts)
        src = tr.wrap_source(MarkovSource(ts))
        for n in (0, 1):
            traced_big_F(tr, src, n)
    elif cmd == "sample":
        with tr.span("measure.sample"):
            sample_indices(ts, args.radius, args.seed, args.count)
    elif cmd in ("fseq", "marginal", "approx"):
        src = tr.wrap_source(cli_source(ts, args))
        if cmd == "fseq":
            for n in range(args.nmax + 1):
                traced_big_F(tr, src, n)
            if args.star:
                for n in range(args.nmax + 1):
                    with tr.span("entropy.big_F_star"):
                        big_F_star(src, n, args.star_m)
        elif cmd == "marginal":
            with tr.span("words.ball"):
                b = ball(src.spec, args.radius)
            src.ball_marginal(b).to_json_dict()
        else:
            system = traced_approx(tr, src, args.depth)
            with tr.span("transition.json"):
                json.dumps(to_json_dict(system.inner), indent=2)
            with tr.span("entropy.f_markov"):
                f_markov(system.inner)


def cli_main(argv: list[str]):
    """``freemarkov.cli.main`` in process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_mod.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Answer checks
# ---------------------------------------------------------------------------

def _close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


class Checker:
    """Checks answers against in-process references, computed once each."""

    def __init__(self, systems: dict, sources: dict):
        self.systems = systems
        self.sources = sources
        self._cache: dict = {}

    def _ref(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def ref_report(self, name, src, n: int):
        return self._ref(("F", name, n), lambda: big_F(src, n))

    def ref_F(self, name, src, n: int) -> float:
        return self.ref_report(name, src, n).big_f

    def is_known_miss(self, workload: str, req: dict, answer) -> bool:
        """Whether a failed answer is a listed miss, by no more than its limit."""
        limit = KNOWN_MISSES.get((workload, req.get("source"), req.get("n")))
        if limit is None or req["op"] != "big_F":
            return False
        f = self._ref(("f", req["source"]), lambda: f_markov(self.sources[req["source"]].ts))
        return _close(answer, f, limit)

    def check(self, req: dict, answer) -> str | None:
        """None when the answer passes, else why it failed."""
        op = req["op"]
        if op == "empirical":
            return self._check_empirical(req, *answer)
        name = req.get("source")
        src = self.sources.get(name)
        if op == "big_F" and isinstance(src, MarkovSource):
            f = self._ref(("f", name), lambda: f_markov(src.ts))
            if not _close(answer, f, ENTROPY_TOL):
                return f"|F - f_markov| = {abs(answer - f):.3e} > {ENTROPY_TOL:g}"
        elif op == "big_F":
            n = req["n"]
            prev = self.ref_F(name, src, n - 1) if n > 0 else math.inf
            if not (math.isfinite(answer) and answer <= prev + MONOTONE_TOL):
                return f"F({n}) = {answer!r} exceeds F({n - 1}) = {prev!r}"
        elif op == "marginal":
            total = answer.total()
            if answer.domain != tuple(ball(src.spec, req["n"])) or abs(total - 1.0) > 1e-9:
                return f"marginal on B(e,{req['n']}) sums to {total!r}"
        elif op == "approx":
            f = f_markov(answer.inner)
            ref = self.ref_F(name, src, req["m"])
            if not _close(f, ref, ENTROPY_TOL):
                return f"|f(approx) - F| = {abs(f - ref):.3e} > {ENTROPY_TOL:g}"
        else:
            return f"unknown op {op!r}"
        return None

    def _check_empirical(self, req: dict, emp, f_val: float) -> str | None:
        ts = self.systems[req["system"]]
        dom = ball(ts.spec, 1)
        exact = self._ref(("exact1", req["system"]),
                          lambda: MarkovSource(ts).ball_marginal(dom).dense)
        freq = emp.ball_marginal(dom).dense
        band = SIGMA * np.sqrt(exact * (1.0 - exact) / req["count"])
        worst = float((np.abs(freq - exact) - band).max())
        if worst > 0 or not math.isfinite(f_val):
            return f"empirical B(e,1) marginal leaves the {SIGMA:g}-sigma band by {worst:.3e}"
        return None

    # -- CLI ----------------------------------------------------------------

    def check_cli(self, req: dict, code: int, out: str, err: str) -> str | None:
        if req["expect"] == 3 and code == 3:
            return None if "refused:" in err else "exit 3 without a refusal message"
        if code != req["expect"] and not (req["expect"] == 3 and code == 0):
            return f"exit {code}, expected {req['expect']}: {err.strip()[-200:]}"
        try:
            return getattr(self, "_cli_" + req["cmd"])(req, out)
        except (ValueError, KeyError, IndexError) as exc:
            return f"unparseable {req['cmd']} output: {exc!r}"

    def _cli_source(self, req):
        args = cli_args(req)
        key = (req["system"], getattr(args, "coarsen", None))
        src = self._ref(("src",) + key, lambda: cli_source(self.systems[req["system"]], args))
        return key, src, args

    def _cli_validate(self, req, out):
        if not out.startswith("OK") or validate(self.systems[req["system"]], DEFAULT_TOL):
            return "validate disagrees with the in-process report"
        return None

    def _cli_finv(self, req, out):
        key, src, _ = self._cli_source(req)
        vals = dict(line.split(" = ") for line in out.splitlines())
        pairs = [(float(vals["f"]), self._ref(("f", key), lambda: f_markov(src.ts)))]
        pairs += [(float(vals[f"F(alpha^{n})"]), self.ref_F(key, src, n)) for n in (0, 1)]
        if not all(_close(a, b, ENTROPY_TOL) for a, b in pairs):
            return f"finv values {pairs} differ from in-process"
        return None

    def _cli_fseq(self, req, out):
        key, src, args = self._cli_source(req)
        rows = [line.split(",") for line in out.splitlines()[1:]]
        if len(rows) != args.nmax + 1:
            return f"{len(rows)} fseq rows"
        prev = math.inf
        for row in rows:
            n, big_f = int(row[0]), float(row[-2])
            rep = self.ref_report(key, src, n)
            want = (rep.h_ball,) + rep.pair_entropies + (rep.big_f,)
            if not all(_close(float(a), b, ENTROPY_TOL) for a, b in zip(row[1:-1], want)):
                return f"fseq row {n} differs from in-process {want}"
            if big_f > prev + MONOTONE_TOL:
                return f"fseq F({n}) increases"
            prev = big_f
            if args.star:
                star = self._ref(("star", key, n), lambda: big_F_star(src, n, args.star_m))
                if not _close(float(row[-1]), star, ENTROPY_TOL):
                    return f"fseq F*({n}) differs from in-process"
        return None

    def _cli_marginal(self, req, out):
        key, src, args = self._cli_source(req)
        ref = self._ref(("marg", key, args.radius),
                        lambda: src.ball_marginal(ball(src.spec, args.radius)).to_json_dict())
        doc = json.loads(out)
        if (doc["domain"], doc["states"]) != (ref["domain"], ref["states"]):
            return "marginal domain or states differ from in-process"
        got, want = _probs(doc), _probs(ref)
        if abs(math.fsum(got.values()) - 1.0) > 1e-9:
            return "marginal does not sum to 1"
        if max(abs(got.get(i, 0.0) - want.get(i, 0.0)) for i in set(got) | set(want)) > EXACT_TOL:
            return "marginal probabilities differ from in-process"
        return None

    def _cli_sample(self, req, out):
        args = cli_args(req)
        ts = self.systems[req["system"]]
        dom, rows = sample_indices(ts, args.radius, args.seed, args.count)
        want = [",".join(str(w) for w in dom)]
        want += [",".join(str(ts.states[i]) for i in row) for row in rows]
        return None if out.splitlines() == want else "samples differ from in-process"

    def _cli_approx(self, req, out):
        key, src, args = self._cli_source(req)
        f = f_markov(from_json_dict(json.loads(out)))
        ref = self.ref_F(key, src, args.depth)
        if not _close(f, ref, ENTROPY_TOL):
            return f"|f(approx) - F({args.depth})| = {abs(f - ref):.3e}"
        return None

    def _cli_check(self, req, out):
        seed = cli_args(req).seed
        results = self._ref(("run_all", seed), lambda: run_all(seed=seed))
        lines = out.splitlines()
        got = [(line.split()[0], line.split()[1].rstrip(":")) for line in lines[:-1]]
        want = [("PASS" if r.passed else "FAIL", r.name) for r in results]
        return None if got == want else "check results differ from in-process"


def _probs(doc: dict) -> dict:
    if doc["encoding"] == "dense":
        return {i: p for i, p in enumerate(doc["probs"]) if p}
    return {int(i): p for i, p in doc["probs"]}


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Outcome:
    """Latencies and failures of one run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.keys: list[str] = []
        self.failures: list[dict] = []
        self.peak_rss_mb = 0.0
        self.rounds = 0
        self.busy_s = 0.0

    def add(self, req: dict, secs: float, rss_mb: float = 0.0) -> None:
        self.latencies.append(secs)
        self.keys.append(request_key(req))
        self.busy_s += secs
        self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)

    @property
    def correct(self) -> bool:
        """No failures beyond the known misses."""
        return all(f["known"] for f in self.failures)

    def record(self, req: dict, reason: str | None, known: bool = False) -> None:
        if reason is not None:
            self.failures.append({"request": request_key(req), "reason": reason,
                                  "known": known})


def _answer(fn):
    """Run fn; an exception becomes a failure reason instead of an answer."""
    try:
        return fn(), None
    except Exception as exc:  # a crashing request is a failed one
        return None, f"{type(exc).__name__}: {exc}"


def serve(workload: str, doc: dict, systems: dict, sources: dict, seconds: float,
          runner: CliRunner | None, tracer: Tracer | None, between=None) -> Outcome:
    """Run whole rounds of the request list until ``seconds`` of busy time.

    Whole rounds keep the request mix identical between runs, so throughput
    and percentiles do not depend on where the clock stopped.  Busy time is
    the sum of request latencies; the answer checks run between requests
    and are not part of it.

    With a tracer, each in-process request is made through ``replay``, and
    each CLI request runs its process under ``-X importtime``, then
    ``cli.main`` in process, then the public calls behind the command.
    ``between(busy_s)``, if given, is called before each request.
    """
    res = Outcome()
    checker = Checker(systems, sources)
    traced_sources = {}
    if tracer is not None:
        traced_sources = {name: tracer.wrap_source(make_source(
            systems[s["system"]], s["coarsen"])) for name, s in doc["sources"].items()}
    rid = 0
    while res.busy_s < seconds or res.rounds == 0:
        for req in doc["requests"]:
            if between is not None:
                between(res.busy_s)
            if tracer is not None:
                tracer.request = rid
            if tracer is not None and req["op"] == "cli":
                res.record(req, _traced_cli(tracer, req, runner, checker, res))
            elif req["op"] == "cli":
                code, out, err, secs, rss, _ = runner.run(req)
                res.add(req, secs, rss)
                res.record(req, checker.check_cli(req, code, out, err))
            else:
                if tracer is not None:
                    ans, error = _traced(tracer, req, systems, traced_sources, res)
                else:
                    t0 = perf_counter()
                    ans, error = _answer(lambda: execute(req, systems, sources))
                    res.add(req, perf_counter() - t0)
                reason = error or checker.check(req, ans)
                res.record(req, reason, reason is not None and error is None
                           and checker.is_known_miss(workload, req, ans))
            rid += 1
        res.rounds += 1
    if runner is None:
        res.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return res


def _traced(tr: Tracer, req, systems, sources, res):
    """One in-process request with spans; (answer, error) as ``_answer``."""
    with tr.span("request") as rec:
        out = _answer(lambda: replay(tr, req, systems, sources))
        tr.probe()
    res.add(req, rec[2] - rec[1])
    return out


def _traced_cli(tr: Tracer, req, runner, checker, res) -> str | None:
    """One CLI request under tracing; checks run outside the request span."""
    with tr.span("request") as rec:
        with tr.span("cli.process"):
            code, out, err, secs, rss, import_us = runner.run(req, importtime=True)
        with tr.span("cli.main"):
            main_code, main_out, main_err = cli_main(runner.argv(req))
        with contextlib.suppress(CapabilityError):
            replay_cli(tr, req, runner)
        tr.probe()
    res.add(req, rec[2] - rec[1], rss)
    tr.counts["cli.import_us"] += import_us
    if code == cli_mod.EXIT_CAPABILITY:
        tr.counts["measure.refusals"] += 1
        tr.counts["refusal.process_s"] += secs
    return (checker.check_cli(req, code, out, err)
            or checker.check_cli(req, main_code, main_out, main_err))
