"""Markov approximation of a shift-invariant measure by superstate systems.

The depth-m approximation reads the measure's exact statistics on the
radius-m ball and its one-step translates, and builds the unique transition
system over *superstates* (positive-mass patterns on the ball) matching
them.  The f-invariant of the depth-m approximation equals F of the source
at depth m, which turns the F sequence into a sequence of honest Markov
systems converging to the source in distribution on every finite window.
The statistics are read by integer positions: a pattern on the pair domain
B(e, m) ∪ B(e, m)·s restricts to its superstate at the ball's leading
positions and to its s-translate's at the pair domain's ``translates``,
and each joint is one ``np.bincount`` of the pair marginal's masses.
Only the positive generators' pair marginals are formed: on a group the
joint of s^-1 is the transpose of that of s, as for any invariant measure.
A Markov source is its own approximation: ``markov_fixed_point_gap`` takes
the entropy of the source on B(e, m+1) against that of the approximation
on B(e, 1), whose superstates read the same base pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import f_markov
from .errors import CapabilityError
from .measure import MarkovSource, MeasureSource
from .transition import TransitionSystem
from .words import GroupSpec, Word, _depth, ball_domain

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
    """Positive patterns on B(e, m), their labels and masses, and pair joints.

    A pattern on the pair domain B(e, m) ∪ B(e, m)·s is read at the ball,
    its leading positions, for its superstate, and at ``translates``, the
    positions of the w·s, for its s-translate's; the superstates of every
    pair marginal are found by one ``np.searchsorted``.  Joint entry (a, b)
    adds the masses of the patterns with those two superstates in code
    order, as one ``np.bincount`` over a * |superstates| + b; on a group
    the joint of -s is the transpose of that of s.  A label joins its
    states' strings, with no separator when every state's string is one
    character, else as ``pattern_label`` joins it.
    """
    marg = src.ball_marginal(ball_domain(src.spec, m))
    dom, codes = marg.domain, marg.codes
    n_super = codes.size
    gens = src.spec.generators()
    if n_super ** 2 * len(gens) > ENTRY_LIMIT:
        raise CapabilityError(
            f"{n_super} superstates need {n_super ** 2 * len(gens)} matrix "
            f"entries, past the guard ({ENTRY_LIMIT})",
            needed=n_super ** 2 * len(gens), limit=ENTRY_LIMIT)

    pairs, reads = [], []
    for s in src.spec.positive_generators():
        pair = ball_domain(src.spec, m, s)
        mu = src.ball_marginal(pair)
        pairs.append((s, mu.masses))
        reads += [mu.sub_codes(range(len(dom))), mu.sub_codes(pair.translates)]  # the ball first
    sub_codes = np.concatenate(reads)
    at = np.minimum(np.searchsorted(codes, sub_codes), n_super - 1)
    if (codes[at] != sub_codes).any():
        raise ValueError("a pair pattern restricts to no superstate; "
                         "the source is not shift-invariant")
    joints, start = {}, 0
    for s, masses in pairs:
        za, zb = at[start:start + 2 * masses.size].reshape(2, -1)
        start += 2 * masses.size
        joints[s] = np.bincount(za * n_super + zb, weights=masses,
                                minlength=n_super ** 2).reshape(n_super, n_super)
        if src.spec.is_group:
            joints[-s] = joints[s].T  # pair consistency of an invariant measure
    patterns = tuple(marg.patterns())
    names = [str(v) for v in src.states]
    join = "".join if all(len(name) == 1 for name in names) else pattern_label
    labels = tuple(join(map(names.__getitem__, pat)) for pat in patterns)
    return dom, patterns, labels, marg.masses, joints


def markov_approximation(src: MeasureSource, m: int) -> SuperstateSystem:
    """The unique superstate transition system matching depth-m statistics.

    Superstates are the positive-mass patterns on B(e, m); pi is the ball
    marginal and each P[s] conditions the joint of (pattern, s-translated
    pattern); on a group P[s^-1] conditions the transpose of the joint of
    s, which is its joint for a shift-invariant source, as the definition
    assumes.  For Markov sources this reproduces the source; in general
    its f equals big_F(src, m).
    """
    m = _depth(m)
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
    m_max = _depth(m_max)
    return [(m, f_markov(markov_approximation(src, m).inner))
            for m in range(m_max + 1)]


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
