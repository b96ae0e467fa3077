"""The environment record of a run, and compare mode for result files."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

import numpy as np


def environment(root: Path) -> dict:
    """Git rev and dirty flag (when the checkout is a repository) and the host."""
    rev = dirty = None
    if (root / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=root, capture_output=True,
                                  text=True, check=True).stdout.strip()
        try:
            rev = git("rev-parse", "HEAD")
            dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"git_rev": rev, "git_dirty": dirty, "python": platform.python_version(),
            "numpy": np.__version__, "cpu_count": os.cpu_count()}


# ---------------------------------------------------------------------------
# Compare mode
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """worse / within / unresolved / better for one workload and metric.

    Unresolved when either side's quartile spread exceeds the bound, unless
    every new run beats every base run.  Better needs the medians to differ
    by more than the base runs' own quartile spread.
    """
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (nmed - bmed) / bmed
    all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    spread = max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed)
    if spread > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > (bq3 - bq1) / bmed:
        return "better"
    return "within"


def compare(base_path: Path, new_path: Path, spec: dict) -> list[str]:
    """Rows comparing two result files written by ``run.py --all``."""
    base = json.loads(Path(base_path).read_text())
    new = json.loads(Path(new_path).read_text())
    lines = [f"{'workload':13} {'metric':16} {'base median [q1, q3]':>30} "
             f"{'new median [q1, q3]':>30} {'new/base':>8}  verdict"]
    for w in base["workloads"]:
        if w not in new["workloads"]:
            lines.append(f"{w:13} missing from {new_path}")
            continue
        b_runs, n_runs = base["workloads"][w]["runs"], new["workloads"][w]["runs"]
        for m in spec["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in b_runs]
            nv = [r["metrics"][name]["value"] for r in n_runs]
            bq, nq = quartiles(bv), quartiles(nv)
            lines.append(
                f"{w:13} {name:16} {_fmt(bq):>30} {_fmt(nq):>30} "
                f"{nq[1] / bq[1]:8.3f}  {verdict(bv, nv, m['better'], m['bound'])}"
                f" (bound {m['bound']:g}, {m['unit']})")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in (b_runs, n_runs)]
        word = ("more failures" if shares[1] > shares[0]
                else "fewer failures" if shares[1] < shares[0] else "same")
        lines.append(f"{w:13} {'failed share':16} {shares[0]:>30.4f} {shares[1]:>30.4f}"
                     f" {'':8}  {word}")
        b_tr, n_tr = base["workloads"][w]["traced"], new["workloads"][w]["traced"]
        if b_tr and n_tr:
            for m in spec["per_layer"]:
                name = m["name"]
                bmed = statistics.median(r["metrics"][name]["value"] for r in b_tr)
                nmed = statistics.median(r["metrics"][name]["value"] for r in n_tr)
                ratio = f"{nmed / bmed:8.3f}" if bmed else f"{'n/a':>8}"
                lines.append(f"{w:13} {name:30} base {bmed:.6g} {m['unit']}, "
                             f"new {nmed:.6g}, new/base {ratio.strip()}")
    return lines


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
