"""Markov approximation of a shift-invariant measure by superstate systems.

The depth-m approximation reads the measure's exact statistics on the
radius-m ball and its one-step translates, and builds the unique transition
system over *superstates* (positive-mass patterns on the ball) matching
them.  The f-invariant of the depth-m approximation equals F of the source
at depth m, which turns the F sequence into a sequence of honest Markov
systems converging to the source in distribution on every finite window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapabilityError
from .measure import MarkovSource, MeasureSource, PairStats, pair_stats, pattern_code
from .transition import TransitionSystem
from .words import BallDomain, GroupSpec, IDENTITY, Word, ball

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

    def overlap_violations(self, tol: float = 0.0) -> list[tuple]:
        """Positive transitions whose patterns disagree on the shared window.

        A transition z -> z' along s constrains the two patterns on the
        overlap of the ball with its s-translate; shift-invariant sources
        satisfy this automatically, so any entry here is diagnostic of a
        bad source.  Returns (s, z_index, z'_index) triples.
        """
        out = []
        pos = {w: a for a, w in enumerate(self.domain)}
        for s in self.base.generators():
            step = Word((s,))
            shared = [(pos[f * step], pos[f]) for f in self.domain
                      if f * step in pos]
            matrix = self.inner.matrices[s]
            for zi, zj in zip(*np.nonzero(matrix > tol)):
                z, zp = self.patterns[zi], self.patterns[zj]
                if any(z[a] != zp[b] for a, b in shared):
                    out.append((s, int(zi), int(zj)))
        return out


def _superstate_statistics(src: MeasureSource, m: int):
    """Positive patterns on B(e, m) with their masses and pair joints."""
    dom = tuple(ball(src.spec, m))
    k = len(src.states)
    md = len(dom)
    # weights of the vectorized dense encoding; Python ints, since K^md
    # itself may be past int64 when the tables are sparse
    weights = [k ** (md - 1 - a) for a in range(md)]

    marg = src.ball_marginal(dom)
    if marg.is_dense:
        flat = marg.dense.ravel()
        pos_idx = np.nonzero(flat > 0)[0]
        masses = flat[pos_idx]
        codes = pos_idx.tolist()
    else:
        keys = sorted(tuple(int(d) for d in key)
                      for key, p in marg.sparse.items() if p > 0)
        masses = np.array([marg.sparse[key] for key in keys])
        codes = [pattern_code(key, k) for key in keys]
    n_super = len(codes)
    gens = src.spec.generators()
    if n_super ** 2 * len(gens) > ENTRY_LIMIT:
        raise CapabilityError(
            f"{n_super} superstates need {n_super ** 2 * len(gens)} matrix "
            f"entries, past the guard ({ENTRY_LIMIT})",
            needed=n_super ** 2 * len(gens), limit=ENTRY_LIMIT)
    compact = {f: c for c, f in enumerate(codes)}

    def encode(digit_cols) -> np.ndarray:
        enc = np.zeros(digit_cols[0].shape, dtype=np.int64)
        for w_k, col in zip(weights, digit_cols):
            enc += w_k * col
        return enc

    joints = {}
    for s in gens:
        step = Word((s,))
        pair = BallDomain(src.spec, m, s)
        union = tuple(pair)
        pos_a = [union.index(w) for w in dom]
        pos_b = [union.index(w * step) for w in dom]
        mu = src.ball_marginal(pair)
        j = np.zeros((n_super, n_super))
        if mu.is_dense:
            uflat = mu.dense.ravel()
            nz = np.nonzero(uflat > 0)[0]
            ku = len(union)
            digits = [(nz // k ** (ku - 1 - a)) % k for a in range(ku)]
            za = encode([digits[a] for a in pos_a])
            zb = encode([digits[a] for a in pos_b])
            ca = np.array([compact[int(f)] for f in za])
            cb = np.array([compact[int(f)] for f in zb])
            np.add.at(j, (ca, cb), uflat[nz])
        else:
            for key, p in mu.sparse.items():
                if p <= 0:
                    continue
                za = pattern_code([key[a] for a in pos_a], k)
                zb = pattern_code([key[a] for a in pos_b], k)
                j[compact[za], compact[zb]] += p
        joints[s] = j

    if marg.is_dense:
        keys = [tuple(int(d) for d in np.unravel_index(f, (k,) * md))
                for f in pos_idx]
    return dom, tuple(keys), masses, joints


def superstate_pair_stats(src: MeasureSource, m: int) -> PairStats:
    """Pair statistics of the source read at the depth-m pattern alphabet."""
    dom, patterns, masses, joints = _superstate_statistics(src, m)
    labels = tuple(pattern_label(tuple(src.states[i] for i in pat))
                   for pat in patterns)
    return PairStats(src.spec, labels, masses, joints)


def markov_approximation(src: MeasureSource, m: int) -> SuperstateSystem:
    """The unique superstate transition system matching depth-m statistics.

    Superstates are the positive-mass patterns on B(e, m); pi is the ball
    marginal and each P[s] conditions the joint of (pattern, s-translated
    pattern).  For Markov sources this reproduces the source; in general
    its f equals big_F(src, m).
    """
    dom, patterns, masses, joints = _superstate_statistics(src, m)
    labels = tuple(pattern_label(tuple(src.states[i] for i in pat))
                   for pat in patterns)
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
    from .entropy import f_markov
    return [(m, f_markov(markov_approximation(src, m).inner))
            for m in range(m_max + 1)]


def base_level_stats(system: SuperstateSystem) -> PairStats:
    """Push superstate pair statistics down to the base alphabet.

    The root coordinate of a pattern at a vertex is the base state there,
    so summing joints over root values recovers base-level statistics; for
    an approximation of any source these equal the source's own pair stats.
    """
    root = system.domain.index(IDENTITY)
    k = len(system.base_states)
    roots = np.array([pat[root] for pat in system.patterns])
    pi = np.zeros(k)
    np.add.at(pi, roots, system.inner.pi)
    joints = {}
    for s, matrix in system.inner.matrices.items():
        joint_super = system.inner.pi[:, None] * matrix
        j = np.zeros((k, k))
        np.add.at(j, (roots[:, None].repeat(len(roots), axis=1),
                      roots[None, :].repeat(len(roots), axis=0)), joint_super)
        joints[s] = j
    return PairStats(system.base, system.base_states, pi, joints)


def markov_fixed_point_gap(ts: TransitionSystem, m: int) -> float:
    """d1 between a Markov source's depth-m statistics and its approximation's.

    Zero (to rounding) always: Markov measures are their own approximations.
    """
    from .measure import d1
    src = MarkovSource(ts)
    approx = markov_approximation(src, m)
    return d1(superstate_pair_stats(src, m), pair_stats(approx.inner))
