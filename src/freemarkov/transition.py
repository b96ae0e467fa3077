"""Transition systems: one stochastic matrix per generator plus a stationary vector.

A transition system is *invariant* when pi is a steady-state vector of every
matrix and, in the group case, the pair condition
``pi_i P[s^-1][i, j] == pi_j P[s][j, i]`` holds for all s, i, j.  Invariance
is exactly what makes the induced tree-indexed chain shift-invariant.

Numeric invariance is never enforced at construction (negative controls need
broken systems); ``validate`` reports violations instead.  Construction only
rejects structural mismatches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import FormatError, InconsistentMarginalsError, StructuralError
from .words import GROUP, GroupSpec, Word

DEFAULT_TOL = 1e-9


def _frozen(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TransitionSystem:
    spec: GroupSpec
    states: tuple
    pi: np.ndarray
    matrices: dict[int, np.ndarray]

    def __post_init__(self):
        states = tuple(self.states)
        if not states:
            raise StructuralError("state space must be nonempty")
        if len(set(states)) != len(states):
            raise StructuralError("state labels must be distinct")
        k = len(states)
        pi = _frozen(self.pi)
        if pi.shape != (k,):
            raise StructuralError(f"pi has shape {pi.shape}, expected ({k},)")
        gens = set(self.spec.generators())
        mats = {s: _frozen(m) for s, m in self.matrices.items()}
        if set(mats) != gens:
            raise StructuralError(
                f"matrices keyed by {sorted(mats)} but generators are {sorted(gens)}"
            )
        for s, m in mats.items():
            if m.shape != (k, k):
                raise StructuralError(
                    f"matrix for generator {s} has shape {m.shape}, expected ({k}, {k})"
                )
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "matrices", mats)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state_index(self, label) -> int:
        try:
            return self.states.index(label)
        except ValueError:
            raise ValueError(f"unknown state label {label!r}") from None


class Violation(NamedTuple):
    """One violated invariance condition with its residual magnitude."""

    condition: str
    where: tuple
    residual: float


def _check_tol(tol: float) -> None:
    if not np.isfinite(tol) or tol < 0:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol!r}")


def validate(ts: TransitionSystem, tol: float = DEFAULT_TOL) -> list[Violation]:
    """Check all invariance conditions; an empty report means valid within tol.

    Non-finite entries are reported as ``non_finite`` at ``(i,)`` in pi or
    ``(s, i, j)`` in a matrix: NaN fails every comparison with tol, so the
    other conditions cannot see it.  A tolerance that is not finite and
    nonnegative is refused: NaN would pass every residual.
    """
    _check_tol(tol)
    out: list[Violation] = []
    pi, k = ts.pi, ts.n_states

    for i in np.nonzero(~np.isfinite(pi))[0]:
        out.append(Violation("non_finite", (int(i),), float("inf")))
    for s, m in sorted(ts.matrices.items()):
        for i, j in zip(*np.nonzero(~np.isfinite(m))):
            out.append(Violation("non_finite", (s, int(i), int(j)), float("inf")))

    for i in range(k):
        if pi[i] < -tol or pi[i] > 1 + tol:
            out.append(Violation("pi_entry_range", (i,), float(abs(pi[i] - 0.5)) - 0.5))
    if abs(pi.sum() - 1.0) > tol:
        out.append(Violation("pi_sum", (), float(abs(pi.sum() - 1.0))))

    for s, m in sorted(ts.matrices.items()):
        bad = (m < -tol) | (m > 1 + tol)
        for i, j in zip(*np.nonzero(bad)):
            out.append(Violation("matrix_entry_range", (s, int(i), int(j)),
                                 float(max(-m[i, j], m[i, j] - 1.0))))
        rows = np.abs(m.sum(axis=1) - 1.0)
        for i in np.nonzero(rows > tol)[0]:
            out.append(Violation("row_sum", (s, int(i)), float(rows[i])))
        steady = np.abs(pi @ m - pi)
        for i in np.nonzero(steady > tol)[0]:
            out.append(Violation("steady_state", (s, int(i)), float(steady[i])))

    if ts.spec.is_group:
        for s in ts.spec.positive_generators():
            lhs = pi[:, None] * ts.matrices[-s]
            rhs = (pi[:, None] * ts.matrices[s]).T
            gap = np.abs(lhs - rhs)
            for i, j in zip(*np.nonzero(gap > tol)):
                out.append(Violation("pair_consistency", (-s, int(i), int(j)),
                                     float(gap[i, j])))
    return out


def require_valid(ts: TransitionSystem, tol: float = DEFAULT_TOL) -> None:
    report = validate(ts, tol)
    if report:
        lines = ", ".join(f"{v.condition}{v.where}={v.residual:.3g}" for v in report[:5])
        more = "" if len(report) <= 5 else f" (+{len(report) - 5} more)"
        raise ValueError(f"transition system fails validation at {tol:g}: {lines}{more}")


# ---------------------------------------------------------------------------
# Built-in systems
# ---------------------------------------------------------------------------

def _generator_state_labels(spec: GroupSpec) -> tuple[str, ...]:
    return tuple(str(Word((s,))) for s in spec.generators())


def wsf_system(r: int) -> TransitionSystem:
    """Spanning-forest chain on the rank-r free group: states are directions.

    A sample x paints each vertex g with a direction x(g) in S; keeping the
    edge g -> x(g)g yields a forest.  The defining constraint is that a step
    never immediately doubles back: ``P[s][s, s^-1] = 0``.  Off that entry the
    matrices are as symmetric as possible and pi is uniform, which keeps every
    component of the forest infinite almost surely.
    """
    if r < 2:
        raise ValueError(f"wsf_system needs rank >= 2, got {r}")
    spec = GroupSpec(r, GROUP)
    gens = spec.generators()
    size = len(gens)  # |S| = 2r
    idx = {s: i for i, s in enumerate(gens)}
    mats = {}
    for s in gens:
        m = np.full((size, size), (size - 2) / (size - 1) ** 2)
        m[idx[s], :] = 1.0 / (size - 1)
        m[:, idx[-s]] = 1.0 / (size - 1)
        m[idx[s], idx[-s]] = 0.0
        mats[s] = m
    pi = np.full(size, 1.0 / size)
    return TransitionSystem(spec, _generator_state_labels(spec), pi, mats)


def matching_system(r: int) -> TransitionSystem:
    """Perfect-matching chain on the rank-r free group.

    Same state space as ``wsf_system`` but with the opposite hard constraint:
    ``P[s][s, s^-1] = 1``, so a vertex pointing along s forces its s-neighbor
    to point straight back and the kept edges form a perfect matching.
    """
    if r < 2:
        raise ValueError(f"matching_system needs rank >= 2, got {r}")
    spec = GroupSpec(r, GROUP)
    gens = spec.generators()
    size = len(gens)
    idx = {s: i for i, s in enumerate(gens)}
    mats = {}
    for s in gens:
        m = np.full((size, size), 1.0 / (size - 1))
        m[idx[s], :] = 0.0
        m[:, idx[-s]] = 0.0
        m[idx[s], idx[-s]] = 1.0
        mats[s] = m
    pi = np.full(size, 1.0 / size)
    return TransitionSystem(spec, _generator_state_labels(spec), pi, mats)


def flip_system(r: int, eps: float) -> TransitionSystem:
    """Two-state chain on the rank-r free group: stay with probability eps.

    Every generator carries the same symmetric matrix [[eps, 1-eps],
    [1-eps, eps]] with uniform pi.  At eps = 1/2 this is the uniform
    two-state Bernoulli system; at small eps its f-invariant is negative.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    spec = GroupSpec(r, GROUP)
    m = np.array([[eps, 1.0 - eps], [1.0 - eps, eps]])
    mats = {s: m.copy() for s in spec.generators()}
    return TransitionSystem(spec, (0, 1), np.array([0.5, 0.5]), mats)


def bernoulli_system(spec: GroupSpec, p: Sequence[float]) -> TransitionSystem:
    """Site-independent system: every row of every matrix equals p, which
    must be finite, nonnegative and sum to 1 within ``DEFAULT_TOL``."""
    p = np.array(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise StructuralError("p must be a nonempty probability vector")
    if not np.isfinite(p).all() or p.min() < 0 or abs(p.sum() - 1.0) > DEFAULT_TOL:
        raise ValueError(f"p must be a probability vector, got {p.tolist()}")
    m = np.tile(p, (p.size, 1))
    mats = {s: m.copy() for s in spec.generators()}
    return TransitionSystem(spec, tuple(range(p.size)), p.copy(), mats)


def permutation_system(spec: GroupSpec, n: int,
                       assignments: Mapping[int, Sequence[int]] | None = None
                       ) -> TransitionSystem:
    """Deterministic system: generator s moves state i to sigma_s(i), pi uniform.

    ``assignments`` maps positive generator letters to permutations of
    range(n); missing generators default to the identity permutation.  For
    group kind, inverse letters are filled in with the inverse permutations;
    supplying an inverse letter explicitly is allowed only if it matches.
    """
    if n < 1:
        raise ValueError(f"need at least one point, got {n}")
    assignments = dict(assignments or {})
    perms: dict[int, tuple[int, ...]] = {}
    for s in spec.positive_generators():
        sigma = tuple(assignments.pop(s, range(n)))
        if sorted(sigma) != list(range(n)):
            raise ValueError(f"assignment for generator {s} is not a permutation of {n} points")
        perms[s] = sigma
        if spec.is_group:
            inv = [0] * n
            for i, j in enumerate(sigma):
                inv[j] = i
            perms[-s] = tuple(inv)
    for s, sigma in assignments.items():
        if s > 0 or not spec.is_group:
            raise ValueError(f"unexpected generator {s} in assignments")
        if tuple(sigma) != perms[s]:
            raise ValueError(f"assignment for {s} must be the inverse of generator {-s}")
    mats = {}
    for s, sigma in perms.items():
        m = np.zeros((n, n))
        m[np.arange(n), sigma] = 1.0
        mats[s] = m
    return TransitionSystem(spec, tuple(range(n)), np.full(n, 1.0 / n), mats)


def product_system(ts1: TransitionSystem, ts2: TransitionSystem) -> TransitionSystem:
    """Independent product: tensor pi's and matrices, paired state labels."""
    if ts1.spec != ts2.spec:
        raise StructuralError(f"mismatched specs {ts1.spec} and {ts2.spec}")
    states = tuple(f"{a}|{b}" for a in ts1.states for b in ts2.states)
    pi = np.kron(ts1.pi, ts2.pi)
    mats = {s: np.kron(ts1.matrices[s], ts2.matrices[s]) for s in ts1.spec.generators()}
    return TransitionSystem(ts1.spec, states, pi, mats)


def _refuse_non_finite(a: np.ndarray, name: str) -> None:
    # NaN fails every comparison, so the mass checks below cannot see it
    at = np.argwhere(~np.isfinite(a))
    if at.size:
        raise InconsistentMarginalsError(
            f"{name} has non-finite entry {a[tuple(at[0])]} at {tuple(at[0].tolist())}")


def from_pair_marginals(spec: GroupSpec, pi: Sequence[float],
                        joints: Mapping[int, np.ndarray],
                        states=None, tol: float = DEFAULT_TOL) -> TransitionSystem:
    """Recover a transition system from single-site and pair statistics.

    ``joints[s][i, j]`` is the measure of seeing state i at a vertex and
    state j one s-step further; every entry must be finite, and rows must
    sum to pi within ``tol``, which must be finite and nonnegative.  States
    of zero mass are dropped (their conditional rows are 0/0 and the
    measure never visits them).
    """
    _check_tol(tol)
    pi = np.array(pi, dtype=float)
    _refuse_non_finite(pi, "pi")
    k = pi.size
    if states is None:
        states = tuple(range(k))
    states = tuple(states)
    if len(states) != k:
        raise StructuralError(f"{len(states)} state labels for a length-{k} vector")
    gens = spec.generators()
    if set(joints) != set(gens):
        raise StructuralError(
            f"joints keyed by {sorted(joints)} but generators are {sorted(gens)}")
    js = {}
    for s in gens:
        j = np.array(joints[s], dtype=float)
        if j.shape != (k, k):
            raise StructuralError(f"joint for generator {s} has shape {j.shape}")
        _refuse_non_finite(j, f"joint for generator {s}")
        if j.min() < -tol:
            raise InconsistentMarginalsError(
                f"joint for generator {s} has negative entry {j.min():.3g}")
        gap = np.abs(j.sum(axis=1) - pi).max()
        if gap > tol:
            raise InconsistentMarginalsError(
                f"rows of joint for generator {s} miss pi by {gap:.3g} (tol {tol:g})")
        js[s] = j

    keep = np.nonzero(pi > 0)[0]
    pi_kept = pi[keep]
    pi_kept = pi_kept / pi_kept.sum()
    mats = {s: np.clip(j[np.ix_(keep, keep)], 0.0, None) / pi_kept[:, None]
            for s, j in js.items()}
    return TransitionSystem(spec, tuple(states[i] for i in keep), pi_kept, mats)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------
#
# {"group": {"rank": r, "kind": "group"|"semigroup"},
#  "states": [...], "pi": [...],
#  "P": {"s1": [[...]], "s1_inv": [[...]], ...}}

def to_json_dict(ts: TransitionSystem) -> dict:
    return {
        "group": {"rank": ts.spec.rank, "kind": ts.spec.kind},
        "states": list(ts.states),
        "pi": ts.pi.tolist(),
        "P": {ts.spec.generator_name(s): m.tolist() for s, m in sorted(ts.matrices.items())},
    }


def from_json_dict(doc: Mapping) -> TransitionSystem:
    """The system a wire-format document describes; ``FormatError`` on any
    malformed document, a non-finite number included."""
    try:
        g = doc["group"]
        rank = g["rank"]
        if isinstance(rank, bool) or not isinstance(rank, int):
            raise ValueError(f"group rank must be a JSON integer, got {rank!r}")
        spec = GroupSpec(rank, str(g.get("kind", GROUP)))
        states, pi, raw = doc["states"], doc["pi"], doc["P"]
        if not isinstance(states, list):
            raise ValueError(f"states must be a JSON array, got {states!r}")
        mats = {spec.letter_from_name(name): np.array(m, dtype=float)
                for name, m in raw.items()}
        hashable = tuple(tuple(s) if isinstance(s, list) else s for s in states)
        ts = TransitionSystem(spec, hashable, np.array(pi, dtype=float), mats)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"malformed transition-system document: {exc}") from exc
    if not all(np.isfinite(a).all() for a in (ts.pi, *ts.matrices.values())):
        raise FormatError("transition-system document holds a non-finite number")
    return ts
