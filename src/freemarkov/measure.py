"""Exact ball marginals, sampling and pair statistics of tree-indexed measures.

The probability of a cylinder (a fixed pattern on a finite, left-connected
vertex set F containing the identity) under the chain induced by a transition
system is the stationary mass at the root times one matrix entry per induced
tree edge.  Everything here is built from that product: marginals on
arbitrary finite domains are computed exactly on the tree hull and then
marginalized down, never approximated.  Every walk over that tree (table,
closed form, sample, cylinder) reads the parent and letter arrays of one
``words.Domain``.

A pattern is a tuple of state indices in shortlex domain order: marginals
decode to them and samples are rows of them; ``cylinder_prob``, the product
formula kept as an oracle, reads a mapping from words to labels.  A
marginal stores its positive patterns as exact mixed-radix codes in
shortlex domain order, ascending, with their masses, and is built from
them: ``BallMarginal(domain, states, codes, masses)``; ``patterns()`` is the
one decode of the codes into state-index tuples, and ``dense`` the one full
table, refused past ``DENSE_LIMIT`` cells.  Every source supplies one
hook, ``_table(dom, coded=True)``: the codes and masses of its positive
patterns on a ``Domain``; without ``coded`` the codes are None and the
masses may keep zeros.  ``MeasureSource`` builds every marginal from the
coded table and every table entropy from the uncoded masses, once they
pass the checks a marginal's masses pass (``_check_masses``), so an
entropy forms no codes.  A Markov source with
K >= 2 whose hull grid K^|hull| fits ``DENSE_LIMIT`` fills that grid one
hull vertex at a time; every other table is one leaves-to-root sum-product
over the hull's subtree classes (``Domain.subtree_classes``), with a
coarsening as a 0/1 emission at domain vertices, and refuses when the hull
holds more than ``SPARSE_LIMIT`` positive hidden patterns, counted first
over the same classes.  Isomorphic subtrees share one table and one
message per class and letter.  A marginal's tables carry class-local
codes, joined as code_a * K'^width_b + code_b, whose digits the root puts
at their shortlex positions (``Domain.preorder``).  Per domain a Markov
source's entropy takes the grid when it fits, else the closed form
H(pi) + sum_s c_s e_s when the domain is its own hull (c_s counts the
induced tree edges labelled s, e_s is the conditional entropy of one
s-step), else the sum-product; a coarsened source always takes the
sum-product.  ``_closed_form``, the one owner of the closed form's
terms, checks pi and each joint as a table's masses are checked, so no
route answers where another refuses.  ``MeasureSource.entropy_sum`` adds up
a linear combination of domain entropies; the Markov override merges the
integer edge counts of all closed-form terms before the single dot product
with e, so coefficients that cancel do so exactly; ``_plogp`` is the one
-sum p log p, shared by the closed form, the table entropies and
``entropy``, and adds its block sums with ``math.fsum``.  Samples are
drawn on a ball given by its radius: ``sample_indices(ts, radius, seed,
count)`` fills a vertex-major table, each vertex's column from its
parent's, with one uniform per sample compared against the cumulative
sums of the parent state's row and the count clamped to K-1, and returns
its transposed (count, |ball|) view; it refuses a table past
``SAMPLE_LIMIT`` cells.  An empirical source's table encodes that
table's vertex columns in place.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapabilityError
from .transition import TransitionSystem, require_valid
from .words import Domain, GroupSpec, IDENTITY, Word, ball_domain, past

DENSE_LIMIT = 2 ** 20       # largest dense configuration table
SPARSE_LIMIT = 2 ** 20      # most positive hidden patterns on a sum-product hull
SAMPLE_LIMIT = 2 ** 25      # most cells (samples times ball vertices) of a sample table

_NORM_TOL = 1e-9
_PLACE_FIRST = 2 ** 14     # root rows times digits past which its pieces are placed first
_PLOGP_BLOCK = 2 ** 15     # entries per block of a -sum p log p


def _plogp(values: np.ndarray) -> float:
    """-sum p log p over the positive entries, in C order, a block of
    ``_PLOGP_BLOCK`` at a time: each block's sum as a float, added exactly."""
    flat = np.ravel(values)
    blocks = (flat[i:i + _PLOGP_BLOCK] for i in range(0, flat.size or 1, _PLOGP_BLOCK))
    return -math.fsum(float((v * np.log(v)).sum()) for v in (b[b > 0] for b in blocks))


def _check_masses(masses: np.ndarray) -> float:
    """The smallest of the pattern probabilities, after refusing non-finite
    ones, any below -1e-12, and a total off 1 by more than ``_NORM_TOL``."""
    with np.errstate(invalid="ignore"):  # inf - inf is reported below
        total, low = masses.sum(), masses.min(initial=math.inf)
    if not math.isfinite(total):
        raise ValueError("non-finite pattern probability")
    if low < -1e-12:
        raise ValueError(f"negative pattern probability {low:.3g}")
    if abs(total - 1.0) > _NORM_TOL:
        raise ValueError(f"pattern probabilities sum to {float(total)!r}, not 1")
    return low


def _encode(digits: Iterable, k: int, n: int) -> np.ndarray:
    """Codes sum_a x_a K^(n-1-a) of the digit columns x_0 .. x_{n-1}, formed
    in place: int64 while K^n < 2^63, else exact ints in an object array."""
    dtype = np.int64 if k ** n < 2 ** 63 else object
    columns = iter(digits)
    codes = np.array(next(columns), dtype=dtype)
    for column in columns:
        codes *= k
        codes += np.asarray(column).astype(dtype, copy=False)  # object digits of int64 codes
    return codes


def _place(table: tuple, k: int, weights: np.ndarray) -> tuple:
    """A sum-product table with codes sum_a x_a weights[a] of the base-k
    digits x_0, x_1, .. of its codes, in the dtype of the weights, and width
    0, so that joins add them; a block of rows at a time."""
    rows, codes, width = table
    lead = k ** np.arange(width - 1, -1, -1, dtype=codes.dtype)[:, None]
    placed, step = [], 2 ** 16 // width + 1
    for i in range(0, len(codes) or 1, step):
        x = codes[i:i + step] // lead  # row a: the leading a + 1 digits
        x[1:] -= k * x[:-1]  # row a: digit a
        placed.append(weights @ x.astype(weights.dtype))
    return rows, np.concatenate(placed), 0


class BallMarginal:
    """Exact distribution over patterns on a finite domain.

    Stored as ``codes``, the positive patterns as ascending mixed-radix
    indices over the shortlex-sorted domain (see ``_encode``), and
    ``masses``, their probabilities.  ``BallMarginal(domain, states, codes,
    masses)`` takes the sorted domain's words and a mass per code, the codes
    strictly ascending in [0, K^|domain|), drops the zero masses, and keeps
    the two arrays, read-only.  ``dense`` and ``sparse`` return fresh tables
    of shape (K,)*|domain| in that C order and dicts from the ``patterns()``
    tuples to probabilities.
    """

    def __init__(self, domain: Sequence[Word], states: Sequence, codes: np.ndarray,
                 masses: np.ndarray):
        codes, masses = np.asarray(codes), np.asarray(masses, dtype=float)
        low = _check_masses(masses)  # a mass, so a codes[0] once the shapes agree
        if (codes.shape != masses.shape or codes[0] < 0 or (codes[1:] <= codes[:-1]).any()
                or int(codes[-1]) >= len(states) ** len(domain)):
            raise ValueError("codes must be one per mass, strictly ascending in [0, K^|domain|)")
        if low <= 0:
            codes, masses = codes[masses > 0], masses[masses > 0]
        self.domain, self.states = tuple(domain), tuple(states)
        self.codes, self.masses = codes, masses
        for stored in (codes, masses):
            stored.setflags(write=False)

    @property
    def is_dense(self) -> bool:
        """Whether the full table fits ``DENSE_LIMIT``; picks the JSON encoding."""
        return self.n_states ** len(self.domain) <= DENSE_LIMIT

    @property
    def n_states(self) -> int:
        return len(self.states)

    def _flat(self) -> np.ndarray:
        flat = np.zeros(self.n_states ** len(self.domain))
        flat[self.codes] = self.masses
        return flat

    @property
    def dense(self) -> np.ndarray:
        """A fresh table of shape (K,)*|domain|; refuses past ``DENSE_LIMIT``
        cells, and more axes than numpy's 64, which only K = 1 fits in that limit."""
        k, n = self.n_states, len(self.domain)
        if not self.is_dense:
            raise CapabilityError("sparse marginal too large to densify",
                                  needed=k ** n, limit=DENSE_LIMIT)
        if n > 64:
            raise CapabilityError(f"a table on {n} vertices has more axes "
                                  "than numpy's 64", needed=n, limit=64)
        return self._flat().reshape((k,) * n)

    def patterns(self) -> list[tuple[int, ...]]:
        """The positive patterns as tuples of state indices, in code order."""
        columns = [d.tolist() for d in self._digits(range(len(self.domain)))]
        return list(zip(*columns))

    @property
    def sparse(self) -> dict[tuple, float]:
        """A fresh map from positive patterns, as tuples of ints, to masses."""
        return dict(zip(self.patterns(), self.masses.tolist()))

    def _digits(self, positions: Iterable[int]) -> list[np.ndarray]:
        k, n = self.n_states, len(self.domain)  # a division by k is faster than a remainder
        return [(q := self.codes // k ** (n - 1 - a)) - q // k * k for a in positions]

    def sub_codes(self, positions: Sequence[int]) -> np.ndarray:
        """Codes of the patterns read at ``positions``, in that order, in
        ``_encode``'s dtype; the leading positions 0 .. p-1 by one division."""
        k, n, p = self.n_states, len(self.domain), len(positions)
        if list(positions) == list(range(p)):
            dtype = np.int64 if k ** p < 2 ** 63 else object
            return (self.codes // k ** (n - p)).astype(dtype, copy=False)
        return _encode(self._digits(positions), k, p)

    def total(self) -> float:
        return float(self.masses.sum())

    def entropy(self) -> float:
        return _plogp(self.masses)

    def marginalize(self, subdomain: Iterable[Word]) -> "BallMarginal":
        pos = {w: a for a, w in enumerate(self.domain)}
        keep = sorted({pos.get(w, -1) for w in subdomain})  # ascending, so in shortlex order
        if not keep or keep[0] < 0:
            raise ValueError("subdomain is not contained in the domain" if keep
                             else "domain must be nonempty")
        codes, inverse = np.unique(self.sub_codes(keep), return_inverse=True)
        return BallMarginal([self.domain[a] for a in keep], self.states, codes,
                            np.bincount(inverse, weights=self.masses))

    def to_json_dict(self) -> dict:
        doc = {"domain": [str(w) for w in self.domain], "states": list(self.states)}
        if self.is_dense:
            doc["encoding"] = "dense"
            doc["probs"] = self._flat().tolist()
        else:
            doc["encoding"] = "sparse"
            doc["probs"] = [list(cp) for cp in zip(self.codes.tolist(),
                                                   self.masses.tolist())]
        return doc


# ---------------------------------------------------------------------------
# Measure sources
# ---------------------------------------------------------------------------

class MeasureSource:
    """Anything that can produce exact (or empirical) ball marginals.

    A source supplies one hook, ``_table(dom, coded=True)``: the ascending
    codes of its positive patterns on a ``Domain`` (None without ``coded``)
    and their masses.  ``ball_marginal`` and ``domain_entropy`` read it.
    """

    spec: GroupSpec
    states: tuple

    def _table(self, dom: Domain, coded: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
        raise NotImplementedError

    def ball_marginal(self, domain: Iterable[Word]) -> BallMarginal:
        dom = Domain.of(domain, self.spec)
        return BallMarginal(dom.words, self.states, *self._table(dom))

    def domain_entropy(self, domain: Iterable[Word]) -> float:
        """H of the uncoded table's masses, which pass a marginal's checks."""
        masses = self._table(Domain.of(domain, self.spec), coded=False)[1]
        _check_masses(masses)
        return _plogp(masses)

    def entropy_sum(self, terms: Sequence[tuple[float, Iterable[Word]]]
                    ) -> tuple[float, list[float]]:
        """sum(coef * H(domain)) over ``(coef, domain)`` terms, and each H.

        The default adds ``coef * domain_entropy(domain)`` in term order;
        subclasses may assemble the sum more exactly.
        """
        entropies = [self.domain_entropy(dom) for _, dom in terms]
        return sum(coef * h for (coef, _), h in zip(terms, entropies)), entropies


def _grid_fits(k: int, size: int) -> bool:
    # a grid of K >= 2 has at least 2^size cells: test the size before K^size
    return k >= 2 and size < DENSE_LIMIT.bit_length() and k ** size <= DENSE_LIMIT


def _closed_form(ts: TransitionSystem) -> tuple[float, dict[int, float]]:
    """H(pi) and, per generator s, H(x_e, x_s) of the joint pi (x) P_s: the
    terms of the closed form, once pi and each joint pass ``_check_masses``."""
    joints = {s: ts.pi[:, None] * m for s, m in ts.matrices.items()}
    for masses in (ts.pi, *joints.values()):
        _check_masses(masses)
    return _plogp(ts.pi), {s: _plogp(j) for s, j in joints.items()}


def tree_entropy(ts: TransitionSystem, domain: Iterable[Word]) -> float:
    """Closed-form marginal entropy of a Markov chain on a tree-shaped domain.

    Valid for left-connected domains containing the identity, where the
    cylinder product formula applies directly: the entropy is H(pi) plus
    c_s e_s per generator s, where c_s counts the induced tree edges
    labelled s and e_s is the conditional entropy of one s-step, from
    ``_closed_form``.  Serves as the exact counterpart of the brute-force
    ``BallMarginal.entropy``.
    """
    domain = Domain.of(domain, ts.spec)
    if domain.keep is not None:
        raise ValueError("tree_entropy needs a left-connected domain containing e")
    h_root, edge = MarkovSource(ts)._root_and_edge_entropies
    return h_root + float(domain.label_counts @ edge)


def _support_refusal(needed: int, hull_size: int) -> CapabilityError:
    return CapabilityError(
        f"support exceeds {SPARSE_LIMIT} patterns on a {hull_size}-vertex hull",
        needed=needed, limit=SPARSE_LIMIT)


def _join(a: tuple, b: tuple, kp: int, hull_size: int) -> tuple:
    """Every pair of rows of two sum-product tables, zero rows dropped.

    A table is (rows, codes, width): a row per observed pattern on
    ``width`` domain vertices, with its code in base ``kp`` (None in a
    table without codes).  A pair's code is code_a * kp**width_b + code_b,
    int64 while kp**width < 2^63, else exact ints.  Past ``SPARSE_LIMIT``
    pairs they are formed for a block of ``a`` at a time, no block past
    that many, and the result is refused when its rows exceed the limit.
    """
    (ta, ca, wa), (tb, cb, wb) = a, b
    if ca is not None and kp ** (wa + wb) >= 2 ** 63:
        ca, cb = ca.astype(object, copy=False), cb.astype(object, copy=False)

    def pairs(block: slice) -> tuple[np.ndarray, np.ndarray | None]:
        table = (ta[block, None, :] * tb[None, :, :]).reshape(-1, ta.shape[1])
        rows = table.any(axis=1)
        codes = None if ca is None else ((ca[block] * kp ** wb)[:, None] + cb).ravel()[rows]
        return table[rows], codes

    if len(ta) * len(tb) <= SPARSE_LIMIT:
        rows, codes = pairs(slice(None))
        return rows, codes, wa + wb
    step, blocks, total = max(1, SPARSE_LIMIT // len(tb)), [], 0
    for i in range(0, len(ta), step):
        blocks.append(pairs(slice(i, i + step)))
        total += len(blocks[-1][0])
        if total > SPARSE_LIMIT:
            raise _support_refusal(total, hull_size)
    tables, codes = zip(*blocks)
    return np.concatenate(tables), None if ca is None else np.concatenate(codes), wa + wb


class MarkovSource(MeasureSource):
    """Exact marginals of the chain induced by a transition system."""

    def __init__(self, ts: TransitionSystem):
        self.ts = ts
        self.spec = ts.spec
        self.states = ts.states
        self._mats = np.stack([ts.matrices[s] for s in ts.spec.generators()])

    @functools.cached_property
    def _root_and_edge_entropies(self) -> tuple[float, np.ndarray]:
        """H(pi) and e_s = H(x_e, x_s) - H(pi) in ``spec.generators()`` order."""
        h_root, h_pair = _closed_form(self.ts)
        return h_root, np.array([h_pair[s] - h_root for s in self.spec.generators()])

    def _grid(self, dom: Domain, coded: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
        """Codes and masses of the patterns on the domain, via the hull grid.

        Each hull vertex adds an axis: the grid so far times the matrix
        entry from its parent's state to its own; axes off the domain are
        summed out.  Without ``coded`` the codes are None and the masses
        are the whole flat table, zeros kept.
        """
        k = len(self.states)
        table = self.ts.pi
        for v, (p, a) in enumerate(dom.tree_edges(), start=1):
            shape = [1] * (v + 1)
            shape[p] = shape[v] = k
            table = table[..., None] * self._mats[a].reshape(shape)
        if dom.keep is not None:
            table = table.sum(axis=tuple(sorted(set(range(table.ndim)) - set(dom.keep))))
        flat = table.ravel()
        if not coded:
            return None, flat
        codes = np.flatnonzero(flat)
        return codes, flat[codes]

    @functools.cached_property
    def _positive_columns(self) -> list[list[list[int]]]:
        """Per generator index a and row i, the columns j with P[a][i, j] > 0."""
        return [[[j for j, p in enumerate(row) if p > 0] for row in m.tolist()]
                for m in self._mats]

    def _support_count(self, dom: Domain) -> int:
        """Exact number of positive patterns on the hull of ``dom``.

        One sum-product pass in the integer semiring over the hull's subtree
        classes, children first: m_c(i) = prod over children (d, s) of
        sum_j [P_s[i, j] > 0] m_d(j), and the count is sum_i [pi_i > 0]
        m_root(i).  It costs O(classes K^2) after the class pass.
        """
        cols = self._positive_columns
        classes, root = dom.subtree_classes
        counts: list[list[int]] = []
        for _, children in classes:
            m = [1] * len(self.states)
            for c, a in children:
                child = counts[c].__getitem__
                for i, row in enumerate(cols[a]):
                    m[i] *= sum(map(child, row))
            counts.append(m)
        return sum(m for m, p in zip(counts[root], self.ts.pi.tolist()) if p > 0)

    def _sum_product(self, dom: Domain, emit: Sequence[int], coded: bool = True
                     ) -> tuple[np.ndarray | None, np.ndarray]:
        """Codes and masses of the observed states ``emit[x]`` on the domain.

        One pass over the hull's subtree classes, children first.  The
        table of a class has a row per observed pattern on the domain
        vertices below it, with its class-local code, and a column per
        hidden state there: the pattern's probability given that state.
        Domain vertices join the 0/1 emission table, as the leading digit;
        other vertices add no digit and so are summed out.  A class sends
        one message per letter it hangs by, shared by every parent that has
        it as a child.  The root's digits, in the order of
        ``dom.preorder``, are put at their shortlex positions: in the
        pieces it joins when their rows bound it past ``_PLACE_FIRST``
        cells, else in its own table.  The codes come back ascending.
        Without ``coded`` no code is formed, and the codes are None and the
        masses unordered.  Refuses past ``SPARSE_LIMIT`` hidden patterns on
        the hull, counted first, or rows in a table.
        """
        k, h, n = len(self.states), dom.hull_size, len(dom)
        if k ** h > SPARSE_LIMIT:
            needed = self._support_count(dom)
            if needed > SPARSE_LIMIT:
                raise _support_refusal(needed, h)
        kp = max(emit) + 1
        # emission[y, x] = [emit[x] == y], with code y on one vertex
        emitted = (np.eye(kp)[list(emit)].T, np.arange(kp) if coded else None, 1)
        classes, root = dom.subtree_classes
        uses = Counter(child for _, children in classes for child in children)
        sends: dict[int, list[int]] = {}
        for c, a in uses:
            sends.setdefault(c, []).append(a)
        weights = None  # at the root, the weight of each digit's shortlex position
        if coded and dom.preorder is not None:
            dtype = np.int64 if kp ** n < 2 ** 63 else object
            weights = kp ** (n - 1 - dom.preorder).astype(dtype)
        messages: dict[tuple[int, int], tuple] = {}
        for c, (own, children) in enumerate(classes):
            # the pieces' rows bound the root's: past _PLACE_FIRST cells, place them first
            placing = c == root and weights is not None and math.prod(
                len(messages[child][0]) for child in children) * kp * n > _PLACE_FIRST
            table, at = None, 1 if own else 0  # at: the digit a placed piece starts at
            for child in children:
                uses[child] -= 1  # a message is dropped after its last use
                message = messages[child] if uses[child] else messages.pop(child)
                if placing:
                    message, at = _place(message, kp, weights[at:at + message[2]]), at + message[2]
                table = message if table is None else _join(table, message, kp, h)
            if own:
                head = _place(emitted, kp, weights[:1]) if placing else emitted
                table = head if table is None else _join(head, table, kp, h)
            for a in sends.get(c, ()):
                messages[c, a] = (table[0] @ self._mats[a].T, table[1], table[2])
        if weights is not None and not placing:
            table = _place(table, kp, weights)
        masses, codes = table[0] @ self.ts.pi, table[1]  # the root's class is the last
        if not coded:
            return None, masses
        order = np.argsort(codes, kind="stable")
        return codes[order], masses[order]

    def _table(self, dom: Domain, coded: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
        """The hull grid if it fits, else the sum-product."""
        k = len(self.states)
        if _grid_fits(k, dom.hull_size):
            return self._grid(dom, coded)
        return self._sum_product(dom, range(k), coded)

    def _entropy(self, domain) -> tuple[float, np.ndarray | None]:
        """H(domain), with its edge-label counts if it takes the closed form.

        The table entropy (grid, else sum-product) if K >= 2 and K^|hull|
        fits the grid, or if the domain is not its own hull; else the
        closed form.
        """
        domain = Domain.of(domain, self.spec)
        if domain.keep is not None or _grid_fits(len(self.states), domain.hull_size):
            return super().domain_entropy(domain), None
        h_root, edge = self._root_and_edge_entropies
        return h_root + float(domain.label_counts @ edge), domain.label_counts

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
    strict gap between F at depth 0 and depth 1.  The quotient is the
    emission of the base chain's sum-product.
    """

    def __init__(self, ts: TransitionSystem, state_map):
        self.base = MarkovSource(ts)
        self.spec = ts.spec
        images = list(state_map)
        if len(images) != len(ts.states):
            raise ValueError(
                f"state_map has {len(images)} entries for {len(ts.states)} states")
        self.states = tuple(dict.fromkeys(images))
        self.index_map = tuple(self.states.index(im) for im in images)

    def _table(self, dom: Domain, coded: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
        return self.base._sum_product(dom, self.index_map, coded)


class EmpiricalSource(MeasureSource):
    """Frequency marginals over a fixed sample ball.

    Row columns follow the shortlex order of the sample domain, held as a
    ``Domain`` with a map from each of its words to its column.
    """

    def __init__(self, domain: Iterable[Word], states: Sequence,
                 index_rows: np.ndarray, spec: GroupSpec):
        self.spec = spec
        self.states = tuple(states)
        self.domain = Domain.of(domain, spec)
        self.column = {w: a for a, w in enumerate(self.domain.words)}
        raw = np.asarray(index_rows)
        if raw.ndim != 2 or raw.shape[1] != len(self.domain):
            raise ValueError(f"index rows have shape {raw.shape}, "
                             f"expected (N, {len(self.domain)})")
        if raw.shape[0] == 0:
            raise ValueError("need at least one sample")
        kind = raw.dtype.kind
        with np.errstate(invalid="ignore"):  # NaN and inf cast to values they differ from
            rows = raw.astype(np.int64, copy=False) if kind in "biuf" else None
        if rows is None or (kind == "f" and not (rows == raw).all()):
            raise ValueError("sample rows must hold integer state indices")
        if rows.min() < 0 or rows.max() >= len(self.states):
            raise ValueError("state index out of range in sample rows")
        self.rows = rows

    def _table(self, dom: Domain, coded: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
        missing = [w for w in dom.words if w not in self.column]
        if missing:
            raise CapabilityError(
                f"empirical source sampled on radius-{len(self.domain.words[-1])} "
                f"ball cannot see {missing[0]}")
        codes, counts = np.unique(_encode((self.rows[:, self.column[w]] for w in dom.words),
                                          len(self.states), len(dom)), return_counts=True)
        return codes if coded else None, counts / self.rows.shape[0]


def coarsen(ts: TransitionSystem, state_map) -> CoarsenedSource:
    """Hidden-Markov source: observe states only through ``state_map``."""
    return CoarsenedSource(ts, state_map)


# ---------------------------------------------------------------------------
# Cylinder probabilities and invariance checks
# ---------------------------------------------------------------------------

def cylinder_prob(ts: TransitionSystem, cylinder: Mapping[Word, object]) -> float:
    """Probability of the cylinder that fixes the state label ``cylinder[w]``
    at each word w, on a left-connected domain containing e.

    Root mass times one matrix entry per induced tree edge, the labels read
    in the shortlex order of ``Domain.of(cylinder)``, whatever the mapping's
    own order.  For any other domain, take ``MarkovSource(ts).ball_marginal``
    over the tree hull and marginalize instead.
    """
    dom = Domain.of(cylinder, ts.spec)
    if dom.keep is not None:
        raise ValueError("cylinder domain must be left-connected and contain the "
                         "identity; use ball_marginal on the tree hull and marginalize")
    x = [ts.state_index(cylinder[w]) for w in dom.words]
    mats = [ts.matrices[s] for s in ts.spec.generators()]
    p = float(ts.pi[x[0]])
    for v, (u, a) in enumerate(dom.tree_edges(), start=1):
        p *= float(mats[a][x[u], x[v]])
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
    m1, step = src.ball_marginal(domain), Word((s,))
    translated = [w * step for w in m1.domain]
    m2 = src.ball_marginal(translated)
    pos = {w: a for a, w in enumerate(m2.domain)}
    return float(np.abs(m1.dense - m2.dense.transpose([pos[w] for w in translated])).max())


def check_markov_property(src: MeasureSource, g: Word, s: int, depth: int) -> float:
    """Gap |H(x_sg | x on truncated past) - H(x_sg | x_g)| from exact marginals.

    Zero for Markov sources by definition; strictly positive gaps witness
    hidden-Markov memory.
    """
    src.spec.check_letter(s)
    sg = Word((s,)) * g
    p = past(sg, g, depth, src.spec)
    h_big = src.domain_entropy(list(p) + [sg]) - src.domain_entropy(p)
    h_small = src.domain_entropy([g, sg]) - src.domain_entropy([g])
    return abs(h_big - h_small)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def sample_indices(ts: TransitionSystem, radius: int, seed: int,
                   count: int) -> tuple[tuple[Word, ...], np.ndarray]:
    """Draw configurations on the ball B(e, radius): its words in shortlex
    order, and rows of state indices in that order.

    Root from pi, then outward breadth-first, one ``rng.random(count)`` per
    vertex: the state at w is min(#{j : u > cum[x(parent(w)), j]}, K-1),
    where cum holds the row cumulative sums of the matrix of w's leading
    letter, taken once per generator.  The table is vertex-major: each
    vertex's column is filled from its parent's column by contiguous
    compare-and-add passes, one per column of cum, and the (count, |ball|)
    rows are returned as its transposed view.  A generator whose last
    column of cum is at least 1 everywhere drops that column and the clamp,
    which u < 1 never passes; every other compare stays, so the draws are
    those of the row-wise comparison even where a cumulative sum is not
    monotone.  Deterministic for a fixed seed.
    Refuses systems that fail validation, so pi and the rows sum to 1 up to
    rounding, which is all the normalization of pi and the clamp absorb.
    Refuses a table of more than ``SAMPLE_LIMIT`` cells before allocating it.
    """
    if count < 0:
        raise ValueError(f"sample count must be nonnegative, got {count}")
    require_valid(ts)
    dom = ball_domain(ts.spec, radius)
    cells = count * len(dom)
    if cells > SAMPLE_LIMIT:
        raise CapabilityError(f"{count} samples on B(e,{radius}) need {cells} table "
                              f"cells, more than {SAMPLE_LIMIT}",
                              needed=cells, limit=SAMPLE_LIMIT)
    rng = np.random.default_rng(seed)
    k = ts.n_states
    cols = np.empty((len(dom), count), dtype=np.int64)
    cums = [np.cumsum(ts.matrices[s], axis=1).T.copy() for s in ts.spec.generators()]
    cums = [cum[:-1] if (cum[-1] >= 1.0).all() else cum for cum in cums]  # u < 1 passes none
    cols[0] = rng.choice(k, size=count, p=ts.pi / ts.pi.sum())
    for v, (p, a) in enumerate(dom.tree_edges(), start=1):
        u = rng.random(count)
        parent, x = cols[p], cols[v]
        x.fill(0)
        for cum_j in cums[a]:
            x += u > cum_j.take(parent)
        if len(cums[a]) == k:
            np.minimum(x, k - 1, out=x)
    return dom.words, cols.T


def empirical_source(ts: TransitionSystem, radius: int, seed: int,
                     count: int) -> EmpiricalSource:
    dom, rows = sample_indices(ts, radius, seed, count)
    return EmpiricalSource(dom, ts.states, rows, ts.spec)


# ---------------------------------------------------------------------------
# Pair statistics
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
    joints = {s: src.ball_marginal([IDENTITY, Word((s,))]).dense  # e comes first
              for s in src.spec.generators()}
    return PairStats(src.spec, src.states, pi, joints)

