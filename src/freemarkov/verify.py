"""Executable desk-scale checks of the theory's identities, with residuals.

Each check returns a CheckResult whose ``passed`` flag is exactly
``residual <= tolerance``.  Negative controls run a detector against a
deliberately broken input and invert the outcome, so a fully passing run
also certifies that the detectors are sensitive.  Tolerances: 1e-9 for
entropy identities, 1e-10 for the monotonicity of F, 1e-12 for algebraic
and measure identities and for the entropy gap of a Markov chain to its
own approximation, 4-sigma bands for Monte Carlo.  Each check names its
result after itself; ``run_all`` renames it after its key.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .approx import approximation_sequence, markov_fixed_point_gap
from .entropy import big_F, f_markov, f_sequence
from .measure import (CoarsenedSource, MarkovSource, MeasureSource, check_shift_invariance,
                      empirical_source, sample_indices)
from .transition import (TransitionSystem, bernoulli_system, flip_system,
                         matching_system, permutation_system, product_system,
                         wsf_system)
from .words import GROUP, SEMIGROUP, GroupSpec, Word, ball, ball_domain

ENTROPY_TOL = 1e-9
EXACT_TOL = 1e-12
STRICT_DROP = 1e-3
MONOTONE_TOL = 1e-10
SIGMA = 4.0
DEFAULT_SEED = 1729


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    details: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name}: residual {self.residual:.3e} "
                f"(tol {self.tolerance:.3e}) {self.details}".rstrip())

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed,
                "residual": self.residual, "tolerance": self.tolerance,
                "details": self.details}


def _result(name, residual, tol, details="") -> CheckResult:
    residual, tol = float(residual), float(tol)
    return CheckResult(name=name, passed=residual <= tol, residual=residual,
                       tolerance=tol, details=details)


def negative_control(name: str, inner: CheckResult) -> CheckResult:
    """Pass exactly when the wrapped detector fired on broken input."""
    return CheckResult(
        name=name, passed=not inner.passed,
        residual=float(inner.tolerance - inner.residual), tolerance=0.0,
        details=f"wrapped {inner.name}: detector residual {inner.residual:.3e}")


# ---------------------------------------------------------------------------
# Fixture systems
# ---------------------------------------------------------------------------

def cycle_system(r: int = 2) -> TransitionSystem:
    """Deterministic 3-state cycle driven identically by every generator."""
    rotate = (1, 2, 0)
    return permutation_system(GroupSpec(r, GROUP), 3,
                              {s: rotate for s in range(1, r + 1)})


def cycle_coarsening(r: int = 2) -> CoarsenedSource:
    """The 3-state cycle observed through a 3 -> 2 quotient; not Markov."""
    return CoarsenedSource(cycle_system(r), [0, 1, 1])


def semigroup_example() -> TransitionSystem:
    """A rank-2 free-semigroup chain with a nonuniform stationary vector."""
    spec = GroupSpec(2, SEMIGROUP)
    pi = np.array([0.6, 0.4])
    mats = {1: np.array([[0.8, 0.2], [0.3, 0.7]]),
            2: np.array([[0.9, 0.1], [0.15, 0.85]])}
    return TransitionSystem(spec, (0, 1), pi, mats)


def perturbed_flip(eps: float = 0.0) -> TransitionSystem:
    """Flip matrices with a deliberately non-stationary pi; fails validation.

    Breaks shift invariance but, notably, not the f = F identity: every row
    of a flip matrix has the same entropy, so all tree-marginal entropies
    are independent of pi.  Use ``perturbed_wsf`` to break f = F.
    """
    good = flip_system(2, eps)
    return TransitionSystem(good.spec, good.states, np.array([0.6, 0.4]),
                            dict(good.matrices))


def perturbed_wsf() -> TransitionSystem:
    """Spanning-forest matrices with a non-stationary pi.

    Row entropies of these matrices differ between states, so the broken
    stationarity surfaces as a genuine gap between the closed-form f and
    the depth-1 value of F.
    """
    good = wsf_system(2)
    return TransitionSystem(good.spec, good.states,
                            np.array([0.4, 0.2, 0.2, 0.2]), dict(good.matrices))


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------

def check_f_equals_F(ts: TransitionSystem, n_max: int,
                     validate: bool = True) -> CheckResult:
    """Closed-form f against big_F at every depth up to n_max."""
    closed = f_markov(ts, validate_tol=ENTROPY_TOL if validate else None)
    src = MarkovSource(ts)
    gap = max(abs(big_F(src, n).big_f - closed) for n in range(n_max + 1))
    return _result("f_equals_F", gap, ENTROPY_TOL, f"f={closed:.7f}, depths 0..{n_max}")


def check_characterization(src: MeasureSource, expect_drop: bool = True) -> CheckResult:
    """Strict F(0) > F(1) for non-Markov sources, no drop for Markov ones."""
    f0 = big_F(src, 0).big_f
    f1 = big_F(src, 1).big_f
    drop = f0 - f1
    if expect_drop:
        return _result("characterization", STRICT_DROP - drop, 0.0,
                       f"drop {drop:.7f} must exceed {STRICT_DROP:g}")
    return _result("characterization", abs(drop), ENTROPY_TOL, "Markov, no drop expected")


def check_product_additivity(ts1: TransitionSystem, ts2: TransitionSystem) -> CheckResult:
    f1, f2 = f_markov(ts1), f_markov(ts2)
    fp = f_markov(product_system(ts1, ts2))
    return _result("product_additivity", abs(fp - f1 - f2), ENTROPY_TOL,
                   f"f(product)={fp:.7f}, f1+f2={f1 + f2:.7f}")


def check_finite_to_one(n_base: int, fiber: int, r: int) -> CheckResult:
    """f of a uniform n-point system against the n-to-1 factor relation.

    A fiber-to-1 factor map from the uniform (n_base * fiber)-point system
    onto the uniform n_base-point system satisfies
    f(base) = (r - 1) log(fiber) + f(total); both sides are evaluated with
    actual f computations on permutation systems.
    """
    spec = GroupSpec(r, GROUP)
    lhs = f_markov(permutation_system(spec, n_base))
    rhs = (r - 1) * np.log(fiber) + f_markov(permutation_system(spec, n_base * fiber))
    return _result("finite_to_one", abs(lhs - rhs), ENTROPY_TOL,
                   f"{lhs:.7f} vs {rhs:.7f} (n={n_base}, fiber={fiber}, r={r})")


def check_ow87() -> CheckResult:
    """The two-point extension identity log 2 = -log 2 + log 4 at rank 2.

    The uniform 2-symbol Bernoulli system factors through the constant-shift
    quotient onto the uniform 4-symbol Bernoulli system with 2-point fibers;
    its f splits as f(trivial 2-point system) + f(4-symbol system).
    """
    spec = GroupSpec(2, GROUP)
    whole = f_markov(bernoulli_system(spec, [0.5, 0.5]))
    fibers = f_markov(permutation_system(spec, 2))
    quotient = f_markov(bernoulli_system(spec, [0.25] * 4))
    return _result("ow87", abs(whole - fibers - quotient), ENTROPY_TOL,
                   f"{whole:.7f} = {fibers:.7f} + {quotient:.7f}")


def _letter_state_index(ts: TransitionSystem) -> dict[int, int | None]:
    gens = ts.spec.generators()
    by_name = {str(Word((s,))): s for s in gens}
    labels = [str(lbl) for lbl in ts.states]
    if set(labels) <= set(by_name):
        return {by_name[lbl]: i for i, lbl in enumerate(labels)}
    # fall back to positional interpretation: state i plays generator S[i]
    return {s: (i if i < ts.n_states else None)
            for i, s in enumerate(gens)}


def structural_violations(ts: TransitionSystem, kind: str, n: int,
                          seed: int, count: int) -> int:
    """Count forbidden adjacent state pairs in sampled ball configurations.

    kind 'wsf': a vertex pointing along s must not be answered by s^-1.
    kind 'matching': a vertex pointing along s must be answered by s^-1,
    in both directions across each tree edge.
    """
    if kind not in ("wsf", "matching"):
        raise ValueError(f"unknown structural kind {kind!r}")
    _, rows = sample_indices(ts, n, seed, count)
    gens = ts.spec.generators()
    state_of = _letter_state_index(ts)
    bad = 0
    for head, (tail, a) in enumerate(ball_domain(ts.spec, n).tree_edges(), start=1):
        ti, tii = state_of.get(gens[a]), state_of.get(-gens[a])
        if ti is None or tii is None:
            continue
        x_tail = rows[:, tail]
        x_head = rows[:, head]
        if kind == "wsf":
            bad += int(((x_tail == ti) & (x_head == tii)).sum())
        else:
            bad += int(((x_tail == ti) & (x_head != tii)).sum())
            bad += int(((x_head == tii) & (x_tail != ti)).sum())
    return bad


def check_structural_samples(ts: TransitionSystem, kind: str, n: int,
                             seed: int, count: int) -> CheckResult:
    bad = structural_violations(ts, kind, n, seed, count)
    return _result("structural", float(bad), 0.0,
                   f"{kind} constraints over {count} samples on B(e,{n})")


def check_shift_invariance_suite() -> CheckResult:
    """Max translation residual over built-in systems and feasible domains."""
    cases: list[tuple[TransitionSystem, int]] = [
        (wsf_system(2), 1), (matching_system(2), 1),
        (flip_system(2, 0.3), 2), (flip_system(2, 0.0), 2),
        (bernoulli_system(GroupSpec(2, GROUP), [0.3, 0.7]), 2),
        (permutation_system(GroupSpec(2, GROUP), 3, {1: (1, 2, 0)}), 1),
        (semigroup_example(), 2),
        (bernoulli_system(GroupSpec(2, SEMIGROUP), [0.2, 0.8]), 2),
    ]
    worst = 0.0
    for ts, n_max in cases:
        for n in range(n_max + 1):
            dom = ball(ts.spec, n)
            for s in ts.spec.generators():
                worst = max(worst, check_shift_invariance(ts, dom, s))
    return _result("shift_invariance", worst, EXACT_TOL, "all built-ins, all generators")


def check_markov_fixed_point(source, m: int) -> CheckResult:
    """H of the source on B(e, m+1) against its depth-m approximation on B(e, 1)."""
    gap = markov_fixed_point_gap(source, m)
    return _result("markov_fixed_point", gap, EXACT_TOL,
                   f"entropy gap on B(e,{m + 1}) at depth {m}")


def check_approx_cross_validation(src: MeasureSource, m_max: int) -> CheckResult:
    """f of the depth-m approximation against big_F(src, m) for m <= m_max."""
    seq = approximation_sequence(src, m_max)
    worst = max(abs(fm - big_F(src, m).big_f) for m, fm in seq)
    return _result("approx_cross_validation", worst, ENTROPY_TOL,
                   "; ".join(f"m={m}: {fm:.7f}" for m, fm in seq))


def check_monotonicity(src: MeasureSource, n_max: int) -> CheckResult:
    seq = [rep.big_f for rep in f_sequence(src, n_max)]
    worst = max((seq[i + 1] - seq[i] for i in range(len(seq) - 1)), default=0.0)
    return _result("monotonicity", max(worst, 0.0), MONOTONE_TOL,
                   "F sequence " + ", ".join(f"{v:.7f}" for v in seq))


def check_sampling_frequencies(ts: TransitionSystem, radius: int, seed: int,
                               count: int) -> CheckResult:
    """Empirical cylinder frequencies within SIGMA bands of exact values."""
    dom = ball_domain(ts.spec, radius)
    freq = empirical_source(ts, radius, seed, count).ball_marginal(dom).dense
    exact = MarkovSource(ts).ball_marginal(dom).dense
    band = SIGMA * np.sqrt(exact * (1.0 - exact) / count)
    worst = float((np.abs(freq - exact) - band).max())
    return _result("sampling", worst, 0.0,
                   f"{count} samples on B(e,{radius}), {SIGMA:g}-sigma bands")


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------

def run_all(seed: int = DEFAULT_SEED, only: str | None = None) -> list[CheckResult]:
    """Every check with default parameters; deterministic for a fixed seed."""
    streams = np.random.SeedSequence(seed).spawn(8)
    seeds = [int(s.generate_state(1)[0]) for s in streams]
    spec2 = GroupSpec(2, GROUP)

    # Each result is renamed after its key; only shift_invariance's key,
    # "shift_invariance/builtins", differs from the name it prints.
    builders = [
        ("f_equals_F/wsf2", lambda: check_f_equals_F(wsf_system(2), 1)),
        ("f_equals_F/matching2", lambda: check_f_equals_F(matching_system(2), 1)),
        ("f_equals_F/flip(0.3)", lambda: check_f_equals_F(flip_system(2, 0.3), 2)),
        ("f_equals_F/bernoulli",
         lambda: check_f_equals_F(bernoulli_system(spec2, [0.3, 0.7]), 1)),
        ("f_equals_F/semigroup", lambda: check_f_equals_F(semigroup_example(), 2)),
        ("characterization/coarsened_cycle",
         lambda: check_characterization(cycle_coarsening(), expect_drop=True)),
        ("characterization/identity_coarsening",
         lambda: check_characterization(CoarsenedSource(flip_system(2, 0.3), [0, 1]),
                                        expect_drop=False)),
        ("product_additivity/flip_x_flip",
         lambda: check_product_additivity(flip_system(2, 0.2), flip_system(2, 0.7))),
        ("product_additivity/bernoulli_x_bernoulli",
         lambda: check_product_additivity(bernoulli_system(spec2, [0.3, 0.7]),
                                          bernoulli_system(spec2, [0.5, 0.25, 0.25]))),
        ("finite_to_one/3x2_r2", lambda: check_finite_to_one(3, 2, 2)),
        ("finite_to_one/2x4_r3", lambda: check_finite_to_one(2, 4, 3)),
        ("ow87", check_ow87),
        ("shift_invariance/builtins", check_shift_invariance_suite),
        ("markov_fixed_point/flip(0.3)_m1",
         lambda: check_markov_fixed_point(flip_system(2, 0.3), 1)),
        ("markov_fixed_point/wsf2_m0", lambda: check_markov_fixed_point(wsf_system(2), 0)),
        ("approx_cross_validation/coarsened_cycle",
         lambda: check_approx_cross_validation(cycle_coarsening(), 1)),
        ("monotonicity/coarsened_cycle", lambda: check_monotonicity(cycle_coarsening(), 2)),
        ("monotonicity/flip(0.3)",
         lambda: check_monotonicity(MarkovSource(flip_system(2, 0.3)), 2)),
        ("sampling/flip(0.3)_4sigma",
         lambda: check_sampling_frequencies(flip_system(2, 0.3), 1, seeds[0], 100_000)),
        ("structural/wsf2",
         lambda: check_structural_samples(wsf_system(2), "wsf", 2, seeds[1], 10_000)),
        ("structural/matching2",
         lambda: check_structural_samples(matching_system(2), "matching", 2,
                                          seeds[2], 10_000)),
        ("negative_control/perturbed_pi_f_equals_F",
         lambda: negative_control("negative_control", replace(
             check_f_equals_F(perturbed_wsf(), 1, validate=False),
             name="f_equals_F/perturbed_pi_wsf"))),
        ("negative_control/perturbed_pi_shift",
         lambda: negative_control("negative_control", _result(
             "shift_invariance/perturbed_pi_flip",
             check_shift_invariance(perturbed_flip(0.0), [Word()], 1),
             EXACT_TOL, "translation residual on {e}"))),
        ("negative_control/matching_checker",
         lambda: negative_control("negative_control", replace(
             check_structural_samples(flip_system(2, 0.5), "matching", 1, seeds[3], 2_000),
             name="structural/iid_flip"))),
        ("negative_control/coarsened_fixed_point",
         lambda: negative_control("negative_control", replace(
             check_markov_fixed_point(cycle_coarsening(), 0),
             name="markov_fixed_point/coarsened_cycle_m0"))),
    ]
    return [replace(build(), name=key.removesuffix("/builtins"))
            for key, build in builders if only is None or only in key]
