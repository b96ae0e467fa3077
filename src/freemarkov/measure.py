"""Exact ball marginals, sampling and pair statistics of tree-indexed measures.

The probability of a cylinder (a fixed pattern on a finite, left-connected
vertex set F containing the identity) under the chain induced by a transition
system is the stationary mass at the root times one matrix entry per induced
tree edge.  Everything here is built from that product: marginals on
arbitrary finite domains are computed exactly on the tree hull and then
marginalized down, never approximated.

Pattern storage is dense (one float per element of K^F, mixed-radix indexed
in shortlex domain order) up to ``DENSE_LIMIT`` configurations, and switches
to a sparse support map above that.

A Markov source takes one of three routes per domain, chosen from the size
of its tree hull: the dense table when K^|hull| fits ``DENSE_LIMIT``, else
the closed form H(pi) + sum_s c_s e_s when the domain is its own hull (c_s
counts the induced tree edges labelled s, e_s is the conditional entropy
of one s-step), else the sparse support.  ``MeasureSource.entropy_sum``
adds up a linear combination of domain entropies; the Markov override
merges the integer edge counts of all closed-form terms before the single
dot product with e, so coefficients that cancel do so exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapabilityError
from .transition import TransitionSystem, require_valid
from .words import (BallDomain, GroupSpec, IDENTITY, Word, ball,
                    induced_left_edges, is_left_connected, tree_hull)

DENSE_LIMIT = 2 ** 20       # largest dense configuration table
SPARSE_LIMIT = 2 ** 20      # largest enumerated sparse support

_NORM_TOL = 1e-9


def _plogp(values: np.ndarray) -> float:
    v = values[values > 0]
    return float(-(v * np.log(v)).sum())


def _sorted_domain(domain: Iterable[Word]) -> tuple[Word, ...]:
    out = tuple(sorted(set(domain), key=Word.shortlex_key))
    if not out:
        raise ValueError("domain must be nonempty")
    return out


def pattern_code(key: Sequence[int], k: int) -> int:
    """Exact mixed-radix index sum_a key[a] K^(n-1-a) of a state-index tuple.

    A Python int, so it neither wraps nor hits numpy's 64-axis limit.
    """
    code = 0
    for d in key:
        code = code * k + int(d)
    return code


@dataclass(frozen=True)
class Pattern:
    """An assignment of state labels to a shortlex-ordered finite vertex set."""

    domain: tuple[Word, ...]
    values: tuple

    def __post_init__(self):
        if len(self.domain) != len(self.values):
            raise ValueError(
                f"{len(self.values)} values for {len(self.domain)} vertices")
        if list(self.domain) != sorted(set(self.domain), key=Word.shortlex_key):
            raise ValueError("pattern domain must be shortlex-sorted and duplicate-free")

    def value_at(self, w: Word):
        return self.values[self.domain.index(w)]

    def restrict(self, subdomain: Iterable[Word]) -> "Pattern":
        sub = _sorted_domain(subdomain)
        return Pattern(sub, tuple(self.value_at(w) for w in sub))

    def __str__(self) -> str:
        return "{" + ", ".join(f"{w}:{v}" for w, v in zip(self.domain, self.values)) + "}"


class BallMarginal:
    """Exact distribution over patterns on a finite domain.

    Backed either by a dense array of shape (K,)*|domain| or by a sparse
    dict from state-index tuples to probabilities.  Flat indices follow
    C order over the shortlex-sorted domain.
    """

    def __init__(self, domain: Iterable[Word], states: Sequence,
                 dense: np.ndarray | None = None,
                 sparse: Mapping[tuple, float] | None = None):
        self.domain = _sorted_domain(domain)
        self.states = tuple(states)
        k, n = len(self.states), len(self.domain)
        if (dense is None) == (sparse is None):
            raise ValueError("exactly one of dense/sparse must be given")
        if dense is not None:
            dense = np.asarray(dense, dtype=float)
            if dense.shape != (k,) * n:
                raise ValueError(f"dense table has shape {dense.shape}, "
                                 f"expected {(k,) * n}")
            total = dense.sum()
            if not math.isfinite(total):
                raise ValueError("non-finite pattern probability in dense table")
            if dense.min() < -1e-12:
                raise ValueError(f"negative pattern probability {dense.min():.3g}")
        else:
            sparse = dict(sparse)
            if not all(map(math.isfinite, sparse.values())):
                raise ValueError("non-finite pattern probability in sparse table")
            total = math.fsum(sparse.values())
            if sparse and min(sparse.values()) < -1e-12:
                raise ValueError("negative pattern probability in sparse table")
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"pattern probabilities sum to {total!r}, not 1")
        self.dense = dense
        self.sparse = sparse

    @property
    def is_dense(self) -> bool:
        return self.dense is not None

    @property
    def n_states(self) -> int:
        return len(self.states)

    def total(self) -> float:
        if self.is_dense:
            return float(self.dense.sum())
        return math.fsum(self.sparse.values())

    def prob(self, pattern: Pattern) -> float:
        if pattern.domain != self.domain:
            pattern = pattern.restrict(self.domain) if set(self.domain) <= set(
                pattern.domain) else pattern
        if pattern.domain != self.domain:
            raise ValueError("pattern domain does not cover the marginal domain")
        idx = tuple(self.states.index(v) for v in pattern.values)
        if self.is_dense:
            return float(self.dense[idx])
        return self.sparse.get(idx, 0.0)

    def entropy(self) -> float:
        if self.is_dense:
            return _plogp(self.dense.ravel())
        return _plogp(np.array(list(self.sparse.values())))

    def marginalize(self, subdomain: Iterable[Word]) -> "BallMarginal":
        sub = _sorted_domain(subdomain)
        if not set(sub) <= set(self.domain):
            raise ValueError("subdomain is not contained in the marginal domain")
        keep = [self.domain.index(w) for w in sub]
        if self.is_dense:
            drop = tuple(a for a in range(len(self.domain)) if a not in keep)
            return BallMarginal(sub, self.states, dense=self.dense.sum(axis=drop))
        out: dict[tuple, float] = {}
        for key, p in self.sparse.items():
            sk = tuple(key[a] for a in keep)
            out[sk] = out.get(sk, 0.0) + p
        return BallMarginal(sub, self.states, sparse=out)

    def support(self) -> list[tuple[Pattern, float]]:
        """Positive-probability patterns with their masses, index order."""
        out = []
        if self.is_dense:
            flat = self.dense.ravel()
            shape = self.dense.shape
            for f in np.nonzero(flat > 0)[0]:
                key = np.unravel_index(f, shape)
                out.append((Pattern(self.domain,
                                    tuple(self.states[i] for i in key)),
                            float(flat[f])))
        else:
            for key in sorted(self.sparse):
                p = self.sparse[key]
                if p > 0:
                    out.append((Pattern(self.domain,
                                        tuple(self.states[i] for i in key)), p))
        return out

    def permuted_table(self, positions: Sequence[int]) -> np.ndarray:
        """Dense table reindexed so axis k reads coordinate positions[k]."""
        if self.is_dense:
            return np.transpose(self.dense, axes=tuple(positions))
        k, n = self.n_states, len(self.domain)
        if k ** n > DENSE_LIMIT:
            raise CapabilityError("sparse marginal too large to densify",
                                  needed=k ** n, limit=DENSE_LIMIT)
        arr = np.zeros((k,) * n)
        for key, p in self.sparse.items():
            arr[tuple(key[a] for a in positions)] = p
        return arr

    def to_json_dict(self) -> dict:
        doc = {"domain": [str(w) for w in self.domain], "states": list(self.states)}
        if self.is_dense:
            doc["encoding"] = "dense"
            doc["probs"] = self.dense.ravel().tolist()
        else:
            doc["encoding"] = "sparse"
            doc["probs"] = sorted([pattern_code(key, self.n_states), p]
                                  for key, p in self.sparse.items())
        return doc


# ---------------------------------------------------------------------------
# Measure sources
# ---------------------------------------------------------------------------

class MeasureSource:
    """Anything that can produce exact (or empirical) ball marginals."""

    spec: GroupSpec
    states: tuple

    def ball_marginal(self, domain: Iterable[Word]) -> BallMarginal:
        raise NotImplementedError

    def domain_entropy(self, domain: Iterable[Word]) -> float:
        """Shannon entropy of the marginal on ``domain``.

        Default route is the dense brute force; subclasses may add exact
        shortcuts for domains past the dense guard.
        """
        return self.ball_marginal(domain).entropy()

    def entropy_sum(self, terms: Sequence[tuple[float, Iterable[Word]]]
                    ) -> tuple[float, list[float]]:
        """sum(coef * H(domain)) over ``(coef, domain)`` terms, and each H.

        The default adds ``coef * domain_entropy(domain)`` in term order;
        subclasses may assemble the sum more exactly.
        """
        entropies = [self.domain_entropy(dom) for _, dom in terms]
        return sum(coef * h for (coef, _), h in zip(terms, entropies)), entropies


def _dense_fits(k: int, size: int) -> bool:
    return k ** size <= DENSE_LIMIT


def _edge_entropies(ts: TransitionSystem) -> np.ndarray:
    """e_s = H(x_e, x_s) - H(x_e) per generator, in ``spec.generators()`` order."""
    h_pi = _plogp(ts.pi)
    return np.array([_plogp((ts.pi[:, None] * ts.matrices[s]).ravel()) - h_pi
                     for s in ts.spec.generators()])


def _edge_label_counts(dom: Sequence[Word], spec: GroupSpec) -> np.ndarray:
    gens = spec.generators()
    counts = np.zeros(len(gens), dtype=np.int64)
    for edge in induced_left_edges(dom, spec):
        counts[gens.index(edge.label)] += 1
    return counts


def tree_entropy(ts: TransitionSystem, domain: Iterable[Word]) -> float:
    """Closed-form marginal entropy of a Markov chain on a tree-shaped domain.

    Valid for left-connected domains containing the identity, where the
    cylinder product formula applies directly: the entropy is H(pi) plus
    c_s e_s per generator s, where c_s counts the induced tree edges
    labelled s and e_s is the conditional entropy of one s-step.  Serves as
    the exact counterpart of the brute-force ``BallMarginal.entropy``.
    """
    if isinstance(domain, BallDomain):
        counts = domain.label_counts()
    else:
        dom = _sorted_domain(domain)
        if dom[0] != IDENTITY or not is_left_connected(dom, ts.spec):
            raise ValueError("tree_entropy needs a left-connected domain containing e")
        counts = _edge_label_counts(dom, ts.spec)
    return _plogp(ts.pi) + float(counts @ _edge_entropies(ts))


def _hull_tree(hull: Sequence[Word]) -> tuple[list[int], list[int]]:
    """Parent index and leading letter of each non-root vertex of a tree hull.

    ``hull`` is shortlex-sorted with the identity first, so every parent
    index is smaller than its child's.
    """
    pos = {w: a for a, w in enumerate(hull)}
    rest = hull[1:]
    return [pos[w.parent()] for w in rest], [w.first_letter() for w in rest]


class MarkovSource(MeasureSource):
    """Exact marginals of the chain induced by a transition system."""

    def __init__(self, ts: TransitionSystem):
        self.ts = ts
        self.spec = ts.spec
        self.states = ts.states

    @functools.cached_property
    def _root_and_edge_entropies(self) -> tuple[float, np.ndarray]:
        return _plogp(self.ts.pi), _edge_entropies(self.ts)

    def _hull(self, domain) -> tuple[tuple[Word, ...], tuple[Word, ...]]:
        if isinstance(domain, BallDomain):
            dom = tuple(domain)
            return dom, dom
        dom = _sorted_domain(domain)
        hull = tuple(sorted(tree_hull(dom), key=Word.shortlex_key))
        return dom, hull

    def _dense_hull_table(self, hull: tuple[Word, ...]) -> np.ndarray:
        k, n = len(self.states), len(hull)
        pos = {w: a for a, w in enumerate(hull)}
        arr = np.ones((k,) * n)
        shape = [1] * n
        shape[pos[IDENTITY]] = k
        arr = arr * self.ts.pi.reshape(shape)
        for edge in induced_left_edges(hull, self.spec):
            i, j = pos[edge.tail], pos[edge.head]
            shape = [1] * n
            shape[i] = shape[j] = k
            # tail axis precedes head axis (shortlex sorts parents first)
            arr = arr * self.ts.matrices[edge.label].reshape(shape)
        return arr

    @functools.cached_property
    def _positive_columns(self) -> dict[int, list[list[int]]]:
        """Per letter s and row i, the columns j with P[s][i, j] > 0."""
        return {s: [[j for j, p in enumerate(row) if p > 0] for row in m.tolist()]
                for s, m in self.ts.matrices.items()}

    def _support_count(self, parents: Sequence[int], letters: Sequence[int]) -> int:
        """Exact number of positive patterns on a tree hull, from ``_hull_tree``.

        One sum-product pass in the integer semiring, children before
        parents: m_v(i) = prod over children c of sum_j [P_c[i, j] > 0] m_c(j),
        and the count is sum_i [pi_i > 0] m_root(i).  It costs
        O(|hull| K^2) and counts exactly what ``_sparse_hull_support``
        would enumerate.
        """
        cols = self._positive_columns
        k = len(self.states)
        counts = [[1] * k for _ in range(len(parents) + 1)]
        for a in range(len(parents), 0, -1):
            child, up = counts[a].__getitem__, counts[parents[a - 1]]
            for i, row in enumerate(cols[letters[a - 1]]):
                up[i] *= sum(map(child, row))
        return sum(m for m, p in zip(counts[0], self.ts.pi.tolist()) if p > 0)

    def _sparse_hull_support(self, hull: tuple[Word, ...],
                             cap: int = SPARSE_LIMIT) -> dict[tuple, float]:
        """Positive patterns on a tree hull with their probabilities.

        Refuses before enumerating when the exact count exceeds ``cap``.
        """
        parents, letters = _hull_tree(hull)
        needed = self._support_count(parents, letters)
        if needed > cap:
            raise CapabilityError(
                f"support exceeds {cap} patterns on a {len(hull)}-vertex hull",
                needed=needed, limit=cap)
        pi = self.ts.pi
        pats: list[tuple] = [(i,) for i in np.nonzero(pi > 0)[0]]
        probs: list[float] = [float(pi[i]) for i in np.nonzero(pi > 0)[0]]
        for ip, letter in zip(parents, letters):
            matrix = self.ts.matrices[letter]
            new_pats, new_probs = [], []
            for pat, pr in zip(pats, probs):
                row = matrix[pat[ip]]
                for j in np.nonzero(row > 0)[0]:
                    new_pats.append(pat + (int(j),))
                    new_probs.append(pr * float(row[j]))
            if len(new_pats) > cap:  # only rows with no positive entry get here
                raise CapabilityError(
                    f"support exceeds {cap} patterns on a {len(hull)}-vertex hull",
                    needed=len(new_pats), limit=cap)
            pats, probs = new_pats, new_probs
        return dict(zip(pats, probs))

    def ball_marginal(self, domain: Iterable[Word]) -> BallMarginal:
        dom, hull = self._hull(domain)
        k = len(self.states)
        if _dense_fits(k, len(hull)):
            full = BallMarginal(hull, self.states,
                                dense=self._dense_hull_table(hull))
        else:
            full = BallMarginal(hull, self.states,
                                sparse=self._sparse_hull_support(hull))
        return full if hull == dom else full.marginalize(dom)

    def _entropy(self, domain) -> tuple[float, np.ndarray | None]:
        """H(domain), with its edge-label counts if it takes the closed form.

        Dense table if K^|hull| fits the guard, closed form if the domain
        is its own hull, sparse support otherwise.
        """
        k = len(self.states)
        if isinstance(domain, BallDomain):
            tree = not _dense_fits(k, len(domain))
            counts = domain.label_counts() if tree else None
        else:
            dom, hull = self._hull(domain)
            tree = not _dense_fits(k, len(hull)) and hull == dom
            counts = _edge_label_counts(dom, self.spec) if tree else None
        if counts is None:
            return self.ball_marginal(domain).entropy(), None
        h_root, edge = self._root_and_edge_entropies
        return h_root + float(counts @ edge), counts

    def domain_entropy(self, domain: Iterable[Word]) -> float:
        return self._entropy(domain)[0]

    def entropy_sum(self, terms: Sequence[tuple[float, Iterable[Word]]]
                    ) -> tuple[float, list[float]]:
        """As ``MeasureSource.entropy_sum``, with closed-form terms merged.

        Table-route terms are added as ``coef * H``.  Closed-form terms
        contribute ``(sum coef) H(pi) + (sum coef c) . e`` from their summed
        integer edge counts, so the sum loses no precision to cancellation.
        """
        total, entropies = 0.0, []
        root_coef, merged = 0, None
        for coef, domain in terms:
            h, counts = self._entropy(domain)
            entropies.append(h)
            if counts is None:
                total += coef * h
            else:
                root_coef += coef
                merged = coef * counts if merged is None else merged + coef * counts
        if merged is not None:
            h_root, edge = self._root_and_edge_entropies
            total += root_coef * h_root + float(merged @ edge)
        return total, entropies


class CoarsenedSource(MeasureSource):
    """Pushforward of a Markov chain through a state-space quotient.

    Generically not Markov; this is the stock of test measures with a
    strict gap between F at depth 0 and depth 1.
    """

    def __init__(self, ts: TransitionSystem, state_map):
        self.base = MarkovSource(ts)
        self.spec = ts.spec
        if isinstance(state_map, Mapping):
            images = [state_map[lbl] for lbl in ts.states]
        else:
            images = list(state_map)
            if len(images) != len(ts.states):
                raise ValueError(
                    f"state_map has {len(images)} entries for {len(ts.states)} states")
        seen: list = []
        for im in images:
            if im not in seen:
                seen.append(im)
        self.states = tuple(seen)
        self.index_map = tuple(self.states.index(im) for im in images)

    def ball_marginal(self, domain: Iterable[Word]) -> BallMarginal:
        raw = self.base.ball_marginal(domain)
        kp = len(self.states)
        if raw.is_dense:
            push = np.zeros((len(self.base.states), kp))
            push[np.arange(len(self.index_map)), self.index_map] = 1.0
            arr = raw.dense
            for axis in range(arr.ndim):
                arr = np.moveaxis(np.tensordot(arr, push, axes=([axis], [0])),
                                  -1, axis)
            return BallMarginal(raw.domain, self.states, dense=arr)
        out: dict[tuple, float] = {}
        for key, p in raw.sparse.items():
            mk = tuple(self.index_map[i] for i in key)
            out[mk] = out.get(mk, 0.0) + p
        return BallMarginal(raw.domain, self.states, sparse=out)


class EmpiricalSource(MeasureSource):
    """Frequency marginals over a fixed sample ball."""

    def __init__(self, domain: Iterable[Word], states: Sequence,
                 index_rows: np.ndarray, spec: GroupSpec):
        self.spec = spec
        self.states = tuple(states)
        self.domain = _sorted_domain(domain)
        rows = np.asarray(index_rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != len(self.domain):
            raise ValueError(f"index rows have shape {rows.shape}, "
                             f"expected (N, {len(self.domain)})")
        if rows.size and (rows.min() < 0 or rows.max() >= len(self.states)):
            raise ValueError("state index out of range in sample rows")
        if rows.shape[0] == 0:
            raise ValueError("need at least one sample")
        self.rows = rows

    @classmethod
    def from_patterns(cls, patterns: Sequence[Pattern], states: Sequence,
                      spec: GroupSpec) -> "EmpiricalSource":
        if not patterns:
            raise ValueError("need at least one sampled pattern")
        dom = patterns[0].domain
        states = tuple(states)
        rows = np.array([[states.index(v) for v in p.restrict(dom).values]
                         for p in patterns], dtype=np.int64)
        return cls(dom, states, rows, spec)

    def ball_marginal(self, domain: Iterable[Word]) -> BallMarginal:
        dom = _sorted_domain(domain)
        if not set(dom) <= set(self.domain):
            missing = min(set(dom) - set(self.domain), key=Word.shortlex_key)
            raise CapabilityError(
                f"empirical source sampled on radius-{len(self.domain[-1])} ball "
                f"cannot see {missing}")
        k = len(self.states)
        if k ** len(dom) > DENSE_LIMIT:
            raise CapabilityError("frequency table past the dense guard",
                                  needed=k ** len(dom), limit=DENSE_LIMIT)
        cols = [self.domain.index(w) for w in dom]
        counts = np.zeros((k,) * len(dom))
        np.add.at(counts, tuple(self.rows[:, c] for c in cols), 1.0)
        return BallMarginal(dom, self.states, dense=counts / self.rows.shape[0])


def coarsen(ts: TransitionSystem, state_map) -> CoarsenedSource:
    """Hidden-Markov source: observe states only through ``state_map``."""
    return CoarsenedSource(ts, state_map)


# ---------------------------------------------------------------------------
# Cylinder probabilities and invariance checks
# ---------------------------------------------------------------------------

def cylinder_prob(ts: TransitionSystem, pattern: Pattern) -> float:
    """Probability of a cylinder on a left-connected domain containing e.

    Root mass times one matrix entry per induced tree edge.  For any other
    domain, take ``MarkovSource(ts).ball_marginal`` over the tree hull and
    marginalize instead.
    """
    dom = pattern.domain
    if dom[0] != IDENTITY:
        raise ValueError("cylinder domain must contain the identity; "
                         "use ball_marginal on the tree hull and marginalize")
    if not is_left_connected(dom, ts.spec):
        raise ValueError("cylinder domain must be left-connected; "
                         "use ball_marginal on the tree hull and marginalize")
    idx = {w: ts.state_index(v) for w, v in zip(dom, pattern.values)}
    p = float(ts.pi[idx[IDENTITY]])
    for edge in induced_left_edges(dom, ts.spec):
        p *= float(ts.matrices[edge.label][idx[edge.tail], idx[edge.head]])
    return p


def check_shift_invariance(ts: TransitionSystem, domain: Iterable[Word],
                           s: int) -> float:
    """Max over patterns z of |mu(C_z) - mu(T_s^{-1} C_z)|.

    The translate of the cylinder on F lives on F*s with the same values,
    so this compares the marginal on F against the relabeled marginal on
    F*s.  Zero (to rounding) exactly when the system is invariant.
    """
    ts.spec.check_letter(s)
    src = MarkovSource(ts)
    dom = _sorted_domain(domain)
    step = Word((s,))
    translated = [w * step for w in dom]
    m1 = src.ball_marginal(dom)
    m2 = src.ball_marginal(translated)
    positions = [m2.domain.index(w * step) for w in dom]
    return float(np.abs(m1.permuted_table(range(len(dom)))
                        - m2.permuted_table(positions)).max())


def check_markov_property(src: MeasureSource, g: Word, s: int, depth: int) -> float:
    """Gap |H(x_sg | x on truncated past) - H(x_sg | x_g)| from exact marginals.

    Zero for Markov sources by definition; strictly positive gaps witness
    hidden-Markov memory.
    """
    from .words import past as past_set
    src.spec.check_letter(s)
    sg = Word((s,)) * g
    p = past_set(sg, g, depth, src.spec)
    h_big = src.domain_entropy(list(p) + [sg]) - src.domain_entropy(p)
    h_small = src.domain_entropy([g, sg]) - src.domain_entropy([g])
    return abs(h_big - h_small)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _as_ball_domain(ts: TransitionSystem, domain) -> tuple[Word, ...]:
    if isinstance(domain, int):
        return tuple(ball(ts.spec, domain))
    dom = _sorted_domain(domain)
    radius = len(dom[-1])
    if dom != tuple(ball(ts.spec, radius)):
        raise ValueError("sampling domain must be a ball B(e, n)")
    return dom


def sample_indices(ts: TransitionSystem, domain, seed: int,
                   count: int) -> tuple[tuple[Word, ...], np.ndarray]:
    """Draw configurations on a ball; rows of state indices in domain order.

    Root from pi, then outward breadth-first: the state at w is drawn from
    row x(parent(w)) of the matrix of w's leading letter.  Deterministic
    for a fixed seed.  Refuses systems that fail validation, so pi and the
    rows sum to 1 up to rounding, which is all the normalization of pi and
    the clamp to K-1 absorb.
    """
    require_valid(ts)
    dom = _as_ball_domain(ts, domain)
    rng = np.random.default_rng(seed)
    k = ts.n_states
    rows = np.empty((count, len(dom)), dtype=np.int64)
    if count == 0:
        return dom, rows
    pos = {w: a for a, w in enumerate(dom)}
    rows[:, 0] = rng.choice(k, size=count, p=ts.pi / ts.pi.sum())
    for a, w in enumerate(dom):
        if w.is_identity:
            continue
        matrix = ts.matrices[w.first_letter()]
        cum = np.cumsum(matrix[rows[:, pos[w.parent()]]], axis=1)
        u = rng.random(count)
        rows[:, a] = np.minimum((u[:, None] > cum).sum(axis=1), k - 1)
    return dom, rows


def sample(ts: TransitionSystem, domain, seed: int, count: int) -> list[Pattern]:
    dom, rows = sample_indices(ts, domain, seed, count)
    return [Pattern(dom, tuple(ts.states[i] for i in row)) for row in rows]


def empirical_source(ts: TransitionSystem, radius: int, seed: int,
                     count: int) -> EmpiricalSource:
    dom, rows = sample_indices(ts, radius, seed, count)
    return EmpiricalSource(dom, ts.states, rows, ts.spec)


# ---------------------------------------------------------------------------
# Pair statistics and the d1 discrepancy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairStats:
    """Single-site vector and per-generator pair joints of an ordered process."""

    spec: GroupSpec
    states: tuple
    pi: np.ndarray
    joints: dict[int, np.ndarray]  # joints[s][i, j] = mu(x(e)=i, x(s)=j)


def pair_stats(source) -> PairStats:
    """Exact pair statistics of a transition system or measure source."""
    if isinstance(source, TransitionSystem):
        return PairStats(source.spec, source.states, source.pi.copy(),
                         {s: source.pi[:, None] * m
                          for s, m in source.matrices.items()})
    src: MeasureSource = source
    pi = src.ball_marginal([IDENTITY]).dense
    joints = {}
    for s in src.spec.generators():
        step = Word((s,))
        marg = src.ball_marginal([IDENTITY, step])
        joints[s] = marg.permuted_table([marg.domain.index(IDENTITY),
                                         marg.domain.index(step)])
    return PairStats(src.spec, src.states, pi, joints)


def d1(a: PairStats, b: PairStats) -> float:
    """L1 discrepancy of pair statistics between two ordered processes.

    States are matched by position; the shorter list is padded with
    zero-mass states.  Symmetric, satisfies the triangle inequality, and
    vanishes exactly when the matched statistics coincide.
    """
    if a.spec != b.spec:
        raise ValueError(f"cannot compare processes over {a.spec} and {b.spec}")
    k = max(len(a.states), len(b.states))

    def padded(j: np.ndarray) -> np.ndarray:
        out = np.zeros((k, k))
        out[:j.shape[0], :j.shape[1]] = j
        return out

    total = 0.0
    for s in a.spec.generators():
        total += float(np.abs(padded(a.joints[s]) - padded(b.joints[s])).sum())
    return total
