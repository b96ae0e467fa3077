"""The freemarkov benchmark: seeded, closed-loop, single-client workloads.

One run of one workload (the last line of stdout is the JSON result):

    python3 bench/run.py --workload markov_deep --seed 1 --seconds 25 --trace 0

Every workload, several seeds, one aggregate file (and a printed summary):

    python3 bench/run.py --all --runs 10 --seed 1 --out base.json

Compare two aggregate files against the bounds in BENCHMARK.json:

    python3 bench/run.py --compare base.json new.json

See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 21

sys.path.insert(0, str(HERE))

import report  # noqa: E402


def _import_library():
    """Import freemarkov from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import freemarkov
    except ImportError as exc:
        sys.exit(f"bench: cannot import freemarkov from {ROOT / 'src'}: {exc}")
    where = Path(freemarkov.__file__).resolve()
    if ROOT / "src" not in where.parents:
        sys.exit(f"bench: freemarkov was imported from {where}, not from {ROOT / 'src'}")


class SetupProbes:
    """Set-up times from fresh interpreters, taken between requests.

    The probes are spread over the run's busy time, so that a slow phase of
    the host does not decide the median on its own.
    """

    def __init__(self, inputs_path: Path, workload: str, seconds: float):
        from serve import child_env
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), str(inputs_path)]
        if workload == "cli":
            self.argv.append("--cli")
        self.env = child_env(ROOT)
        self.step = seconds / (SETUP_REPEATS - 1)
        self.times: list[float] = []

    def _once(self) -> None:
        proc = subprocess.run(self.argv, env=self.env, capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        self.times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])

    def __call__(self, busy_s: float) -> None:
        if len(self.times) < SETUP_REPEATS and busy_s >= self.step * len(self.times):
            self._once()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_REPEATS:
            self._once()
        return self.times


def single_run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy as np

    from inputs import TAIL_PERCENTILE, generate, load_inputs
    from serve import CliRunner, serve
    from tracing import Tracer, layer_metrics

    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        load_before = os.getloadavg()
        text = json.dumps(generate(workload, seed))
        inputs_path = work / "inputs.json"
        inputs_path.write_text(text, encoding="utf-8")
        tracer = Tracer() if trace else None
        probes = None if trace else SetupProbes(inputs_path, workload, seconds)
        doc, systems, sources = load_inputs(text, tracer.span if tracer else None)
        runner = CliRunner(ROOT, work, systems) if workload == "cli" else None
        res = serve(workload, doc, systems, sources, seconds, runner, tracer, probes)
        setup = probes.finish() if probes else []
        load_after = os.getloadavg()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lat = np.array(res.latencies)
    tail_p = TAIL_PERCENTILE[workload]
    if trace:
        metrics = layer_metrics(tracer, res.rounds, lat.size / res.busy_s)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "throughput_rps": {"value": lat.size / res.busy_s, "unit": "1/s"},
            "latency_p50_ms": {"value": float(np.percentile(lat, 50)) * 1e3, "unit": "ms"},
            "latency_tail_ms": {"value": float(np.percentile(lat, tail_p)) * 1e3,
                                "unit": "ms"},
            "peak_rss_mb": {"value": res.peak_rss_mb, "unit": "MB"},
        }
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": res.correct,
        "attempted": int(lat.size), "failed": len(res.failures),
        "metrics": metrics,
        "failures": res.failures,
        "rounds": res.rounds, "requests_per_round": len(doc["requests"]),
        "latency_tail": {"percentile": tail_p, "samples": int(lat.size),
                         "beyond": int(lat.size * (1 - tail_p / 100))},
        "setup_samples_s": setup,
        "latency_by_request_ms": {
            key: statistics.median(1e3 * t for k, t in zip(res.keys, res.latencies) if k == key)
            for key in dict.fromkeys(res.keys)},
        "env": {**report.environment(ROOT), "seed": seed,
                "loadavg_before": load_before, "loadavg_after": load_after},
    }


def _print_record(rec: dict) -> None:
    print(f"{rec['workload']} seed={rec['seed']} trace={rec['trace']}: "
          f"{rec['attempted']} attempted, {rec['failed']} failed, "
          f"{rec['rounds']} round(s) of {rec['requests_per_round']} requests")
    for f in rec["failures"][:10]:
        print(f"  failed{' (known)' if f['known'] else ''}: {f['request']}: {f['reason']}")
    for name, m in rec["metrics"].items():
        print(f"  {name:32} {m['value']:14.6g} {m['unit']}")
    t = rec["latency_tail"]
    if not rec["trace"]:
        print(f"  latency_tail_ms is p{t['percentile']:g} of {t['samples']} samples "
              f"({t['beyond']} beyond it{'' if t['beyond'] >= 10 else ', fewer than 10'})")


def all_workloads(seed: int, runs: int, seconds: int, out: Path) -> int:
    """``runs`` untraced runs and one traced run of every workload."""
    from inputs import WORKLOADS
    result = {"env": report.environment(ROOT), "seconds": seconds, "workloads": {}}
    for w in WORKLOADS:
        entry = result["workloads"][w] = {"runs": [], "traced": []}
        for i in range(runs + 1):
            trace = int(i >= runs)
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w,
                 "--seed", str(seed + i), "--seconds", str(seconds),
                 "--trace", str(trace)], capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            path = OUT / "runs" / f"{w}-seed{seed + i}-trace{trace}.json"
            rec = json.loads(path.read_text())
            entry["traced" if trace else "runs"].append(rec)
            _print_record(rec)
    print("\nMedians over runs:")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w, entry in result["workloads"].items():
        runs_ = entry["runs"]
        att = sum(r["attempted"] for r in runs_)
        fail = sum(r["failed"] for r in runs_)
        print(f"{w}: {att} attempted, {fail} failed over {len(runs_)} runs")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs_]
            q1, med, q3 = report.quartiles(vals)
            print(f"  {m['name']:16} {med:12.6g} {m['unit']:4} "
                  f"(quartiles {q1:.6g}, {q3:.6g}; spread {(q3 - q1) / med:.3f})")
        untraced = statistics.median(r["metrics"]["throughput_rps"]["value"] for r in runs_)
        traced = entry["traced"][0]["metrics"]["trace.throughput_rps"]["value"]
        print(f"  tracing overhead: throughput {traced:.4g} traced vs {untraced:.4g} "
              f"untraced ({1 - traced / untraced:.1%} lower)")
    out.write_text(json.dumps(result, indent=1))
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("markov_deep", "hidden_exact", "cli"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true", help="run every workload --runs times")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", type=Path, default=None, help="aggregate file for --all")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = p.parse_args(argv)

    if args.compare:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        print("\n".join(report.compare(*args.compare, spec)))
        return 0
    _import_library()
    if args.all:
        out = args.out or OUT / f"results-seed{args.seed}.json"
        return all_workloads(args.seed, args.runs, args.seconds, out)
    if args.workload is None:
        p.error("give --workload, --all or --compare")

    rec = single_run(args.workload, args.seed, args.seconds, bool(args.trace))
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    path = OUT / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(rec, indent=1))
    _print_record(rec)
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
