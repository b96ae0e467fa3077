"""Shannon entropies, the F functional, and the f-invariant.

For a measure on configurations over a rank-r free group or semigroup and
the single-site partition alpha,

    F(alpha) = (1 - 2r) H(alpha) + sum_i H(alpha v T_{s_i}^{-1} alpha),

and the f-invariant is the infimum of F over the ball refinements alpha^n.
The coordinate set of alpha^n is the radius-n ball; joining with the s-shift
adds the translated ball, so every term is the entropy of one exact marginal.
For the chain induced by an invariant transition system the infimum is
attained at every n and has a closed form in pi and the matrices.

``big_F`` and ``big_F_star`` hand their linear combination of domain
entropies to the source's ``entropy_sum`` in one call, so a Markov source
can add up its closed-form terms from merged integer edge counts.

All entropies are in nats; rescaling to other log bases is a presentation
concern left to callers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapabilityError
from .measure import MeasureSource, _check_masses, _closed_form, _plogp
from .transition import DEFAULT_TOL, TransitionSystem, require_valid
from .words import Word, ball_domain, check_radius

FSTAR_CONFIG_LIMIT = 2 ** 24


def shannon(dist: Sequence[float]) -> float:
    """Entropy -sum p log p in nats, with 0 log 0 = 0, of a probability
    vector that passes the mass checks of a marginal (``_check_masses``)."""
    p = np.asarray(dist, dtype=float)
    _check_masses(p)
    return _plogp(p)


def binary_entropy(eps: float) -> float:
    return shannon([eps, 1.0 - eps])


def conditional_entropy(joint: np.ndarray) -> float:
    """H(A | B) from a joint table with A on axis 0 and B on axis 1."""
    j = np.asarray(joint, dtype=float)
    return shannon(j.ravel()) - shannon(j.sum(axis=0))


@dataclass(frozen=True)
class EntropyReport:
    """F at one ball depth, with the entropies it is assembled from.

    ``big_f == (1 - 2r) * h_ball + sum(pair_entropies)`` exactly when every
    entropy comes from a table, and within rounding for rows with
    closed-form (tree-route) entropies, whose ``big_f`` is summed from
    merged edge counts; ``pair_entropies[i]`` is the joint entropy over the
    ball united with its translate by the (i+1)-th positive generator.
    """

    n: int
    h_ball: float
    pair_entropies: tuple[float, ...]
    big_f: float
    big_f_star: float | None = None

    @staticmethod
    def csv_header(rank: int) -> str:
        pairs = ",".join(f"H_pair_s{i}" for i in range(1, rank + 1))
        return f"n,H_ball,{pairs},F,Fstar"

    def to_csv_row(self, scale: float = 1.0) -> str:
        cells = [str(self.n), repr(self.h_ball * scale)]
        cells += [repr(h * scale) for h in self.pair_entropies]
        cells.append(repr(self.big_f * scale))
        cells.append("" if self.big_f_star is None else repr(self.big_f_star * scale))
        return ",".join(cells)


def big_F(src: MeasureSource, n: int) -> EntropyReport:
    """Evaluate F on the depth-n ball refinement from exact marginal entropies."""
    if n < 0:
        raise ValueError(f"depth must be nonnegative, got {n}")
    # Pairs first: a plain left-to-right sum then rounds exactly as
    # coefficient * h_ball + sum(pair_entropies).
    terms = [(1, ball_domain(src.spec, n, s)) for s in src.spec.positive_generators()]
    terms.append((src.spec.coefficient, ball_domain(src.spec, n)))
    f_val, entropies = src.entropy_sum(terms)
    return EntropyReport(n=n, h_ball=entropies[-1],
                         pair_entropies=tuple(entropies[:-1]), big_f=f_val)


def f_markov(ts: TransitionSystem, validate_tol: float | None = DEFAULT_TOL) -> float:
    """Closed-form f-invariant of the chain induced by a transition system.

        f = (2r - 1) sum_i pi_i log pi_i
            - sum_{s positive} sum_{i,j} pi_i P[s]_{ij} log(pi_i P[s]_{ij})

    Equals big_F of the induced source at every depth.  Refuses systems
    that fail validation unless ``validate_tol`` is None (deliberately
    broken systems are useful as negative controls), and at any tolerance
    what ``measure._closed_form``, the one source of its terms, refuses.
    """
    if validate_tol is not None:
        require_valid(ts, validate_tol)
    h_pi, h_pair = _closed_form(ts)
    total = ts.spec.coefficient * h_pi
    for s in ts.spec.positive_generators():
        total += h_pair[s]
    return total


def f_sequence(src: MeasureSource, n_max: int) -> list[EntropyReport]:
    """F at depths 0..n_max: a nonincreasing sequence of upper bounds for f.

    The final entry is the best bound available at this depth; it is the
    exact f only when the source is Markov.  The deepest ball is checked
    against the ball guard before any row is computed.
    """
    if n_max < 0:
        raise ValueError(f"depth must be nonnegative, got {n_max}")
    check_radius(src.spec, n_max)
    return [big_F(src, n) for n in range(n_max + 1)]


def big_F_star(src: MeasureSource, n: int = 0, m: int = 3) -> float:
    """Truncated alternative functional (1 - r) H(alpha^n) + sum_i h_m(T_{s_i}).

    The per-generator entropy rate is truncated at memory m via the
    conditional-entropy difference

        h_m = H(alpha^n translated m steps | previous m translates),

    whose coordinates are the union of the balls B(e,n) s^k for k <= m.
    Nonincreasing in m; for Markov sources at n = 0 it equals big_F at
    every m >= 1.
    """
    if m < 1:
        raise ValueError(f"truncation must be at least 1, got {m}")
    b = ball_domain(src.spec, n)
    words = list(b)
    k = len(src.states)
    terms = [(1 - src.spec.rank, b)]
    for s in src.spec.positive_generators():
        union: set[Word] = set()
        for j in range(m + 1):
            step = Word((s,) * j)
            union |= {w * step for w in words}
            if k ** len(union) > FSTAR_CONFIG_LIMIT:
                raise CapabilityError(
                    f"{k}^{len(union)} configurations exceed the F* guard "
                    f"({FSTAR_CONFIG_LIMIT})",
                    needed=k ** len(union), limit=FSTAR_CONFIG_LIMIT)
            if j == m - 1:
                prev = frozenset(union)
        terms += [(1, frozenset(union)), (-1, prev)]
    return src.entropy_sum(terms)[0]
