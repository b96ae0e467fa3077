"""Command-line front end; all file I/O lives here.

Exit codes: 0 ok, 1 validation/check failure, 2 usage error,
3 capability/sizing refusal, 4 I/O or format error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace


from . import approx as approx_mod
from . import entropy as entropy_mod
from . import measure as measure_mod
from . import transition as transition_mod
from . import verify as verify_mod
from .errors import CapabilityError, FormatError
from .words import GROUP, GroupSpec, ball_domain

DEFAULT_SEED = verify_mod.DEFAULT_SEED

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CAPABILITY = 3
EXIT_IO = 4


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_system(path: str) -> transition_mod.TransitionSystem:
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    return transition_mod.from_json_dict(doc)


def _source_from_args(args) -> measure_mod.MeasureSource:
    ts = _load_system(args.file)
    if getattr(args, "coarsen", None):
        labels = [cell.strip() for cell in args.coarsen.split(",")]
        if len(labels) != ts.n_states:
            raise FormatError(
                f"--coarsen gives {len(labels)} labels for {ts.n_states} states")
        return measure_mod.CoarsenedSource(ts, labels)
    return measure_mod.MarkovSource(ts)


def _scale(args) -> float:
    return 1.0 / math.log(2.0) if args.log_base == "2" else 1.0


def _fmt(value: float, scale: float) -> str:
    return repr(value * scale)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_example(args) -> int:
    kind = args.kind
    spec = GroupSpec(args.rank, args.group_kind)
    if kind == "wsf":
        ts = transition_mod.wsf_system(args.rank)
    elif kind == "matching":
        ts = transition_mod.matching_system(args.rank)
    elif kind == "flip":
        ts = transition_mod.flip_system(args.rank, args.eps)
    elif kind == "bernoulli":
        p = [float(x) for x in args.p.split(",")]
        ts = transition_mod.bernoulli_system(spec, p)
    elif kind == "perm":
        assignments = {}
        if args.perms:
            for i, block in enumerate(args.perms.split(";"), start=1):
                assignments[i] = tuple(int(x) for x in block.split(","))
        ts = transition_mod.permutation_system(spec, args.n, assignments)
    else:  # pragma: no cover - argparse restricts choices
        raise FormatError(f"unknown example {kind!r}")
    _write_text(args.output, json.dumps(transition_mod.to_json_dict(ts), indent=2))
    return EXIT_OK


def _print_violations(report, tol: float) -> None:
    print(f"INVALID: {len(report)} violated condition(s) at {tol:g}")
    for v in report:
        print(f"  {v.condition} at {v.where}: residual {v.residual:.6g}")


def _cmd_validate(args) -> int:
    ts = _load_system(args.file)
    report = transition_mod.validate(ts, args.tol)
    if not report:
        print(f"OK: invariant transition system ({ts.n_states} states, "
              f"rank {ts.spec.rank} {ts.spec.kind}) within {args.tol:g}")
        return EXIT_OK
    _print_violations(report, args.tol)
    return EXIT_FAILURE


def _cmd_finv(args) -> int:
    ts = _load_system(args.file)
    report = transition_mod.validate(ts, args.tol)
    if report:
        print(f"INVALID: system fails validation at {args.tol:g}; "
              "run `validate` for the report")
        return EXIT_FAILURE
    scale = _scale(args)
    f_val = entropy_mod.f_markov(ts, validate_tol=None)  # validated above
    src = measure_mod.MarkovSource(ts)
    lines = [f"f = {_fmt(f_val, scale)}"]
    worst = 0.0
    for n in (0, 1):
        rep = entropy_mod.big_F(src, n)
        worst = max(worst, abs(rep.big_f - f_val))
        lines.append(f"F(alpha^{n}) = {_fmt(rep.big_f, scale)}")
    lines.append(f"max|F - f| = {worst:.3e}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_fseq(args) -> int:
    src = _source_from_args(args)
    scale = _scale(args)
    reports = entropy_mod.f_sequence(src, args.nmax)
    if args.star:
        reports = [replace(r, big_f_star=entropy_mod.big_F_star(src, r.n, args.star_m))
                   for r in reports]
    lines = [entropy_mod.EntropyReport.csv_header(src.spec.rank)]
    lines += [r.to_csv_row(scale) for r in reports]
    _write_text(args.output, "\n".join(lines))
    return EXIT_OK


def _cmd_marginal(args) -> int:
    src = _source_from_args(args)
    marg = src.ball_marginal(ball_domain(src.spec, args.radius))
    _write_text(args.output, json.dumps(marg.to_json_dict()))
    return EXIT_OK


def _cmd_sample(args) -> int:
    ts = _load_system(args.file)
    report = transition_mod.validate(ts)
    if report:
        _print_violations(report, transition_mod.DEFAULT_TOL)
        return EXIT_FAILURE
    dom, rows = measure_mod.sample_indices(ts, args.radius, args.seed, args.count)
    lines = [",".join(str(w) for w in dom)]
    lines += [",".join(str(ts.states[i]) for i in row) for row in rows.tolist()]
    _write_text(args.output, "\n".join(lines))
    return EXIT_OK


def _cmd_approx(args) -> int:
    src = _source_from_args(args)
    system = approx_mod.markov_approximation(src, args.depth)
    doc = json.dumps(transition_mod.to_json_dict(system.inner), indent=2)
    f_val = entropy_mod.f_markov(system.inner)
    if args.output and args.output != "-":
        _write_text(args.output, doc)
        print(f"f = {_fmt(f_val, _scale(args))}")
    else:
        _write_text(None, doc)
    return EXIT_OK


def _cmd_check(args) -> int:
    results = verify_mod.run_all(seed=args.seed, only=args.only)
    if not results:
        print(f"no checks match {args.only!r}", file=sys.stderr)
        return EXIT_USAGE
    for res in results:
        print(res.line())
    n_fail = sum(not r.passed for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed (seed {args.seed})")
    if args.json:
        _write_text(args.json,
                    json.dumps([r.to_json_dict() for r in results], indent=2))
    return EXIT_OK if n_fail == 0 else EXIT_FAILURE


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freemarkov",
        description="Markov chains over free groups/semigroups and the f-invariant")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_log_base(p):
        p.add_argument("--log-base", choices=("e", "2"), default="e",
                       help="rescale printed entropy/f values (default natural log)")

    p = sub.add_parser("example", help="write a built-in transition system as JSON")
    p.add_argument("kind", choices=("wsf", "matching", "flip", "bernoulli", "perm"))
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--kind", dest="group_kind", choices=(GROUP, "semigroup"),
                   default=GROUP, help="group or semigroup (bernoulli/perm only)")
    p.add_argument("--eps", type=float, default=0.5, help="flip stay-probability")
    p.add_argument("--p", default="0.5,0.5", help="bernoulli vector, comma separated")
    p.add_argument("--n", type=int, default=2, help="points of a perm system")
    p.add_argument("--perms", default="",
                   help="semicolon-separated permutations, one per positive generator")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_example)

    p = sub.add_parser("validate", help="report violated invariance conditions")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--tol", type=float, default=transition_mod.DEFAULT_TOL)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("finv", help="closed-form f with F(alpha^0), F(alpha^1) cross-check")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--tol", type=float, default=transition_mod.DEFAULT_TOL)
    add_log_base(p)
    p.set_defaults(func=_cmd_finv)

    p = sub.add_parser("fseq", help="CSV of the F sequence at depths 0..N")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--coarsen", default=None,
                   help="comma-separated new labels, one per state, making a hidden-Markov source")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--star", action="store_true", help="also compute truncated F*")
    p.add_argument("--star-m", type=int, default=3, help="F* truncation depth")
    p.add_argument("-o", "--output", default=None)
    add_log_base(p)
    p.set_defaults(func=_cmd_fseq)

    p = sub.add_parser("marginal", help="exact ball marginal as JSON")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--coarsen", default=None)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_marginal)

    p = sub.add_parser("sample", help="sampled ball configurations, one row per sample")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("approx", help="superstate Markov approximation and its f")
    p.add_argument("file", nargs="?", default="-")
    p.add_argument("--coarsen", default=None)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    add_log_base(p)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("check", help="run the verification suite")
    p.add_argument("--only", default=None, help="substring filter on check names")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--json", default=None, help="also write a JSON summary here")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CapabilityError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
