"""Markov approximation of a shift-invariant measure by superstate systems.

The depth-m approximation reads the measure's exact statistics on the
radius-m ball and its one-step translates, and builds the unique transition
system over *superstates* (positive-mass patterns on the ball) matching
them.  The f-invariant of the depth-m approximation equals F of the source
at depth m, which turns the F sequence into a sequence of honest Markov
systems converging to the source in distribution on every finite window.
A Markov source is its own approximation: ``markov_fixed_point_gap`` takes
the entropy of the source on B(e, m+1) against that of the approximation
on B(e, 1), whose superstates read the same base pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import f_markov
from .errors import CapabilityError
from .measure import MarkovSource, MeasureSource, PairStats
from .transition import TransitionSystem
from .words import GroupSpec, Word, ball_domain

ENTRY_LIMIT = 2 ** 26


def pattern_label(values) -> str:
    """State label of a superstate: the pattern's values in domain order."""
    parts = [str(v) for v in values]
    return "".join(parts) if all(len(p) == 1 for p in parts) else ",".join(parts)


@dataclass(frozen=True)
class SuperstateSystem:
    """A transition system whose states are patterns on B(e, m).

    ``patterns[k]`` holds the state-index tuple behind ``inner.states[k]``.
    """

    base: GroupSpec
    m: int
    domain: tuple[Word, ...]
    base_states: tuple
    patterns: tuple[tuple[int, ...], ...]
    inner: TransitionSystem


def _superstate_statistics(src: MeasureSource, m: int):
    """Positive patterns on B(e, m), their labels and masses, and pair joints."""
    marg = src.ball_marginal(ball_domain(src.spec, m))
    dom, codes = marg.domain, marg.codes
    n_super = codes.size
    gens = src.spec.generators()
    if n_super ** 2 * len(gens) > ENTRY_LIMIT:
        raise CapabilityError(
            f"{n_super} superstates need {n_super ** 2 * len(gens)} matrix "
            f"entries, past the guard ({ENTRY_LIMIT})",
            needed=n_super ** 2 * len(gens), limit=ENTRY_LIMIT)

    def superstates(sub_codes: np.ndarray) -> np.ndarray:
        at = np.minimum(np.searchsorted(codes, sub_codes), n_super - 1)
        if (codes[at] != sub_codes).any():
            raise ValueError("a pair pattern restricts to no superstate; "
                             "the source is not shift-invariant")
        return at

    joints = {}
    for s in gens:
        mu = src.ball_marginal(ball_domain(src.spec, m, s))
        pos = {w: a for a, w in enumerate(mu.domain)}
        lead = mu.codes // mu.n_states ** (len(mu.domain) - len(dom))  # the ball comes first
        za = superstates(lead.astype(codes.dtype))
        zb = superstates(mu.sub_codes([pos[w * Word((s,))] for w in dom]))
        j = np.zeros((n_super, n_super))
        np.add.at(j, (za, zb), mu.masses)
        joints[s] = j
    patterns = tuple(marg.patterns())
    labels = tuple(pattern_label(tuple(src.states[i] for i in pat)) for pat in patterns)
    return dom, patterns, labels, marg.masses, joints


def markov_approximation(src: MeasureSource, m: int) -> SuperstateSystem:
    """The unique superstate transition system matching depth-m statistics.

    Superstates are the positive-mass patterns on B(e, m); pi is the ball
    marginal and each P[s] conditions the joint of (pattern, s-translated
    pattern).  For Markov sources this reproduces the source; in general
    its f equals big_F(src, m).
    """
    dom, patterns, labels, masses, joints = _superstate_statistics(src, m)
    mats = {s: j / masses[:, None] for s, j in joints.items()}
    inner = TransitionSystem(src.spec, labels, masses, mats)
    return SuperstateSystem(base=src.spec, m=m, domain=dom,
                            base_states=tuple(src.states),
                            patterns=patterns, inner=inner)


def approximation_sequence(src: MeasureSource, m_max: int) -> list[tuple[int, float]]:
    """f of the depth-m approximations for m = 0..m_max.

    Computes each value through the superstate pipeline; entry-for-entry it
    equals the F sequence of the source, so the two are mutual oracles.
    """
    return [(m, f_markov(markov_approximation(src, m).inner))
            for m in range(m_max + 1)]


def base_level_stats(system: SuperstateSystem) -> PairStats:
    """Push superstate pair statistics down to the base alphabet.

    The root coordinate of a pattern at a vertex is the base state there,
    so summing joints over root values recovers base-level statistics; for
    an approximation of any source these equal the source's own pair stats.
    The root is the identity, which comes first in shortlex order.
    """
    k = len(system.base_states)
    roots = np.array([pat[0] for pat in system.patterns])
    pi = np.zeros(k)
    np.add.at(pi, roots, system.inner.pi)
    joints = {}
    for s, matrix in system.inner.matrices.items():
        j = np.zeros((k, k))
        np.add.at(j, (roots[:, None], roots[None, :]), system.inner.pi[:, None] * matrix)
        joints[s] = j
    return PairStats(system.base, system.base_states, pi, joints)


def markov_fixed_point_gap(source, m: int) -> float:
    """|H of the source on B(e, m+1) - H of its depth-m approximation on B(e, 1)|.

    Takes a measure source or a transition system.  The approximation's
    superstates on B(e, 1) read the base pattern on B(e, m+1), so the gap
    is zero (to rounding) exactly when the source has no memory past depth
    m there: always for a Markov source, not for a hidden-Markov one.
    """
    src = MarkovSource(source) if isinstance(source, TransitionSystem) else source
    approx = MarkovSource(markov_approximation(src, m).inner)
    return abs(src.domain_entropy(ball_domain(src.spec, m + 1))
               - approx.domain_entropy(ball_domain(src.spec, 1)))
