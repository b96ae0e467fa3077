"""Exact ball marginals, sampling and pair statistics of tree-indexed measures.

The probability of a cylinder (a fixed pattern on a finite, left-connected
vertex set F containing the identity) under the chain induced by a transition
system is the stationary mass at the root times one matrix entry per induced
tree edge.  Everything here is built from that product: marginals on
arbitrary finite domains are computed exactly on the tree hull and then
marginalized down, never approximated.  Every walk over that tree (table,
closed form, sample, cylinder) reads the parent and letter arrays of one
``words.Domain``, and each letter's matrix from the system's one read-only
stack, ``ts.stacked[a]``, by the domain's letter index a.

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
coded table and every table entropy from the uncoded masses
(``_table_entropy``: ``_check_masses``, then ``_plogp``), so an entropy
forms no codes.  One chain source, ``CoarsenedSource``, sees a chain
``ts`` through an emission, the observed index of each hidden state;
``MarkovSource(ts)`` is its one-to-one coarsening.  A one-to-one emission
with K >= 2 and a hull grid K^|hull| within ``DENSE_LIMIT`` fills that grid
one hull vertex v at a time, a matrix column at a time: seen as (K^p, K,
K^(v-1-p)), p the parent of v, the grid so far times column j of v's matrix
is the new grid at state j of v, one ``np.multiply`` a column, so each
cell is the same product as a broadcast fill's.  Every other table is one
leaves-to-root sum-product over the hull's subtree classes
(``Domain.subtree_classes``), the emission a 0/1 table at domain vertices,
and refuses when the hull holds more than ``SPARSE_LIMIT`` positive hidden
patterns, counted first over the same classes.  Isomorphic subtrees share
one table and one message per class and letter; each class joins its
pieces, left to right, in one ``_join``: at a domain vertex the emission
first, then its children's messages, dropping zero rows once unless a
product would pass ``SPARSE_LIMIT``.  A marginal's tables carry
class-local codes, joined as code_a * K'^width_b + code_b, whose digits
the root puts at their shortlex positions (``Domain.preorder``).  A
one-to-one entropy past the grid, on a domain that is its own hull, takes
the closed form H(pi) + sum_s c_s e_s (c_s counts the induced tree edges
labelled s, e_s is the conditional entropy of one s-step); every other
entropy the table.
``_closed_form``, the one owner of the closed form's terms, takes the
``_table_entropy`` of pi and each joint, so no route answers where another
refuses.  ``MeasureSource`` owns the one entropy path, ``_entropy(dom)``
(H, with the edge-label counts of a closed-form H: the chain source's one
override), read by ``domain_entropy`` and by the one ``entropy_sum``,
which merges the integer edge counts of all closed-form terms before the
single dot product with e, so coefficients that cancel do so exactly.
``_plogp`` is the one -sum p log p, shared by ``_table_entropy``, which
``shannon`` calls too, and ``entropy``: one numpy sum for a table of one
``_PLOGP_BLOCK``, else its block sums added with ``math.fsum``; a zero
entropy is +0.0.  It sums the positive masses of each block, and skips that
filter, a copy, when every mass is positive: a marginal's masses, and a
table whose smallest mass, from ``_check_masses``, is positive.  A
sum-product's data-free constants are built once: the read-only 0/1
emission and ``_place``'s digit leads in small module-level caches
(``_emission_table``, ``_leads``), and the root's digit weights per K' on
the domain itself (``Domain.digit_constants``, filled by ``_root_digits``).
Samples are drawn on a ball given by its radius and an integer count:
``sample_indices(ts, radius, seed, count)`` fills a vertex-major table
with one uniform per sample and vertex, compared at the
root against the normalized cumulative sums of pi (numpy ``choice``'s
draws) and elsewhere against those of the parent state's row.  The passed
compares are counted in one reused buffer of the narrowest unsigned int
that holds K, clamped to K-1 at non-root vertices and cast once into the
vertex's int64 column; the table is returned as its transposed
(count, |ball|) view, and refused past ``SAMPLE_LIMIT`` cells.  An
empirical source's table encodes that table's vertex columns in place
and counts the codes with one ``np.bincount`` when the K^|domain| cells
are no more than the samples, else by a sort.  Exact-int codes are
decoded a run of up to 32 digits at a time (``BallMarginal._digits``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapabilityError
from .transition import TransitionSystem, require_valid
from .words import (Domain, GroupSpec, IDENTITY, Word, _frozen_ints, _integer,
                    ball_domain, past)

DENSE_LIMIT = 2 ** 20       # largest dense configuration table
SPARSE_LIMIT = 2 ** 20      # most positive hidden patterns on a sum-product hull
SAMPLE_LIMIT = 2 ** 25      # most cells (samples times ball vertices) of a sample table

_NORM_TOL = 1e-9
_PLACE_FIRST = 2 ** 14     # root rows times digits past which its pieces are placed first
_PLOGP_BLOCK = 2 ** 15     # entries per block of a -sum p log p


def _plogp(values: np.ndarray, all_positive: bool = False) -> float:
    """-sum p log p over the positive entries, in C order, a block of
    ``_PLOGP_BLOCK`` at a time: each block's sum as a float, added exactly
    (a table of one block is its one sum).  A zero entropy is +0.0.  With
    ``all_positive`` (every entry is positive) each block is summed as it
    is, with no filtered copy: the same values in the same order."""
    flat = np.ravel(values)
    if flat.size <= _PLOGP_BLOCK:
        v = flat if all_positive else flat[flat > 0]
        return 0.0 - float((v * np.log(v)).sum())
    blocks = (flat[i:i + _PLOGP_BLOCK] for i in range(0, flat.size, _PLOGP_BLOCK))
    if not all_positive:
        blocks = (b[b > 0] for b in blocks)
    return 0.0 - math.fsum(float((v * np.log(v)).sum()) for v in blocks)


def _check_masses(masses: np.ndarray) -> float:
    """The smallest of the pattern probabilities, after refusing non-finite
    ones, any below -1e-12, and a total off 1 by more than ``_NORM_TOL``.
    Masses in [-1e-12, 2] cannot overflow or meet inf - inf; any others are
    refused, and summed with numpy's warnings off, so the refusal is the one report."""
    low = np.minimum.reduce(masses, axis=None, initial=math.inf)
    if low >= -1e-12 and np.maximum.reduce(masses, axis=None, initial=0.0) <= 2.0:
        total = np.add.reduce(masses, axis=None)
    else:  # NaN fails the test above
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.reduce(masses, axis=None)
        if not math.isfinite(total):
            raise ValueError("non-finite pattern probability")
        if low < -1e-12:
            raise ValueError(f"negative pattern probability {low:.3g}")
    if abs(total - 1.0) > _NORM_TOL:
        raise ValueError(f"pattern probabilities sum to {float(total)!r}, not 1")
    return low


def _table_entropy(masses: np.ndarray) -> float:
    """-sum p log p of masses that pass a marginal's checks (``_check_masses``),
    with no positive filter when the smallest mass is positive."""
    return _plogp(masses, all_positive=_check_masses(masses) > 0)


def _code_dtype(k: int, n: int) -> type:
    """Codes of n base-k digits are int64 while K^n < 2^63, else exact ints."""
    return np.int64 if k ** n < 2 ** 63 else object


def _encode(digits: Iterable, k: int, n: int) -> np.ndarray:
    """Codes sum_a x_a K^(n-1-a) of the digit columns x_0 .. x_{n-1}, formed
    in place, in ``_code_dtype``."""
    dtype, columns = _code_dtype(k, n), iter(digits)
    codes = np.array(next(columns), dtype=dtype)
    for column in columns:
        codes *= k
        codes += np.asarray(column).astype(dtype, copy=False)  # object digits of int64 codes
    return codes


def _root_digits(dom: Domain, kp: int) -> np.ndarray:
    """The read-only weights of the sum-product's root codes on ``dom`` over
    ``kp`` observed states, kept in ``dom.digit_constants[kp]``: the weight
    kp^(n-1-p) of each ``dom.preorder`` digit's shortlex position p, in
    ``_code_dtype(kp, n)``."""
    weights = dom.digit_constants.get(kp)
    if weights is None:
        n = len(dom)
        weights = dom.digit_constants[kp] = kp ** (n - 1 - dom.preorder).astype(_code_dtype(kp, n))
        weights.setflags(write=False)
    return weights


@functools.lru_cache(maxsize=32)
def _leads(k: int, width: int) -> np.ndarray:
    """The read-only column k^(width-1-a), a = 0 .. width-1, in ``_code_dtype(k, width)``."""
    lead = k ** np.arange(width - 1, -1, -1, dtype=_code_dtype(k, width))[:, None]
    lead.setflags(write=False)
    return lead


def _place(table: tuple, k: int, weights: np.ndarray) -> tuple:
    """A sum-product table with codes sum_a x_a weights[a] of the base-k
    digits x_0, x_1, .. of its codes, in the dtype of the weights, and width
    0, so that joins add them; a block of rows at a time, the digits read
    by the column of ``_leads``."""
    rows, codes, width = table
    lead = _leads(k, width)
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
        """The int64 digit columns at ``positions``.  Exact-int codes are cut
        into int64 runs of up to 32 digits, one division a run, and each
        run's digits come from one ``np.unravel_index``."""
        k, n, codes = self.n_states, len(self.domain), self.codes
        if codes.dtype != object:  # a division by k is faster than a remainder
            return [(q := codes // k ** (n - 1 - a)) - q // k * k for a in positions]
        width = min(32, 62 // (k - 1).bit_length())  # K^width < 2^63, and numpy 1's 32 axes
        runs, out = {}, []
        for a in positions:
            lo = a - a % width
            if lo not in runs:
                hi = min(n, lo + width)
                run = (codes // k ** (n - hi) % k ** (hi - lo)).astype(np.int64)
                runs[lo] = np.unravel_index(run, (k,) * (hi - lo))
            out.append(runs[lo][a - lo])
        return out

    def sub_codes(self, positions: Sequence[int]) -> np.ndarray:
        """Codes of the patterns read at ``positions``, in that order, in
        ``_code_dtype``; the leading positions 0 .. p-1 by one division.
        Positions may be Python or numpy ints."""
        positions = list(map(operator.index, positions))  # exact powers of K
        k, n, p = self.n_states, len(self.domain), len(positions)
        if positions == list(range(p)):
            return (self.codes // k ** (n - p)).astype(_code_dtype(k, p), copy=False)
        return _encode(self._digits(positions), k, p)

    def total(self) -> float:
        return float(self.masses.sum())

    def entropy(self) -> float:
        return _plogp(self.masses, all_positive=True)

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
    and their masses.  ``ball_marginal`` reads it, and ``_entropy``, the one
    route of ``domain_entropy`` and ``entropy_sum``, its uncoded masses.
    """

    spec: GroupSpec
    states: tuple

    def _table(self, dom: Domain, coded: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
        raise NotImplementedError

    def _entropy(self, dom: Domain) -> tuple[float, np.ndarray | None]:
        """H(dom), with the edge-label counts of a closed-form H, else None:
        here the table entropy.  A source that returns counts supplies
        ``_root_and_edge_entropies``, H(pi) and the e_s the counts weigh."""
        return _table_entropy(self._table(dom, coded=False)[1]), None

    def ball_marginal(self, domain: Iterable[Word]) -> BallMarginal:
        dom = Domain.of(domain, self.spec)
        return BallMarginal(dom.words, self.states, *self._table(dom))

    def domain_entropy(self, domain: Iterable[Word]) -> float:
        return self._entropy(Domain.of(domain, self.spec))[0]

    def entropy_sum(self, terms: Sequence[tuple[float, Iterable[Word]]]
                    ) -> tuple[float, list[float]]:
        """sum(coef * H(domain)) over ``(coef, domain)`` terms, and each H:
        table terms added as ``coef * H`` in term order, closed-form terms as
        ``(sum coef) H(pi) + (sum coef c) . e`` from their summed integer edge
        counts, so the sum loses no precision to cancellation."""
        total, entropies, root_coef, merged = 0.0, [], 0, None
        for coef, domain in terms:
            h, counts = self._entropy(Domain.of(domain, self.spec))
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


def _grid_fits(k: int, size: int) -> bool:
    # a grid of K >= 2 has at least 2^size cells: test the size before K^size
    return k >= 2 and size < DENSE_LIMIT.bit_length() and k ** size <= DENSE_LIMIT


def _closed_form(ts: TransitionSystem) -> tuple[float, np.ndarray]:
    """H(pi) and, in ``spec.generators()`` order, H(x_e, x_s) of each joint pi (x) P_s:
    the terms of the closed form, each a ``_table_entropy``."""
    h_root, *h_pair = (_table_entropy(m) for m in (ts.pi, *ts.pi[:, None] * ts.stacked))
    return h_root, np.array(h_pair)


def tree_entropy(ts: TransitionSystem, domain: Iterable[Word]) -> float:
    """Closed-form marginal entropy of a Markov chain on a tree-shaped domain.

    Valid for left-connected domains containing the identity, where the
    cylinder product formula applies directly: the entropy is H(pi) plus
    c_s e_s per generator s, where c_s counts the induced tree edges
    labelled s and e_s = H(x_e, x_s) - H(pi) is the conditional entropy of
    one s-step, from ``_closed_form``.  Serves as the exact counterpart of
    the brute-force ``BallMarginal.entropy``.
    """
    domain = Domain.of(domain, ts.spec)
    if domain.keep is not None:
        raise ValueError("tree_entropy needs a left-connected domain containing e")
    h_root, h_pair = _closed_form(ts)
    return h_root + float(domain.label_counts @ (h_pair - h_root))


def _support_refusal(needed: int, hull_size: int) -> CapabilityError:
    return CapabilityError(
        f"support exceeds {SPARSE_LIMIT} patterns on a {hull_size}-vertex hull",
        needed=needed, limit=SPARSE_LIMIT)


def _nonzero(rows: np.ndarray, codes: np.ndarray | None, width: int) -> tuple:
    keep = np.logical_or.reduce(rows, axis=1)  # rows.any(axis=1)
    if np.logical_and.reduce(keep):
        return rows, codes, width
    return rows[keep], None if codes is None else codes[keep], width


def _pairs(a: tuple, b: tuple, kp: int, rows: slice = slice(None)) -> tuple:
    """Each of the ``rows`` of table a with every row of table b, zero rows kept."""
    (ta, ca, wa), (tb, cb, wb) = a, b
    products = (ta[rows, None] * tb).reshape(-1, ta.shape[1])
    return products, None if ca is None else (ca[rows, None] * kp ** wb + cb).ravel(), wa + wb


def _join(pieces: Sequence[tuple], kp: int, hull_size: int) -> tuple:
    """The table of one subtree class: every row of each piece with every
    row of the next, left to right; zero rows dropped, but a lone piece
    returned as it is.

    A table is (rows, codes, width): a row per observed pattern on ``width``
    domain vertices, with its code in base ``kp`` (None in a table without
    codes).  A pair's code is code_a * kp**width_b + code_b, in ``_code_dtype``.
    A product of at most ``SPARSE_LIMIT`` rows is formed whole, zero rows
    kept, and cannot be refused, as its nonzero rows are fewer.  The zero
    rows are dropped at the end, or before a product that would pass the
    limit: a zero row stays zero, so the rows and their order are those of
    dropping them after every product.  Past the limit the pairs are formed
    a block of the left table at a time, no block past ``SPARSE_LIMIT``
    pairs, and refused once their nonzero rows exceed the limit.
    """
    table, *rest = pieces
    raw = False  # whether the table still has the zero rows of its products
    for b in rest:
        if raw and len(table[0]) * len(b[0]) > SPARSE_LIMIT:
            table, raw = _nonzero(*table), False
        a = table
        if a[1] is not None and _code_dtype(kp, a[2] + b[2]) is object:
            a, b = ((rows, codes.astype(object, copy=False), w) for rows, codes, w in (a, b))
        raw = len(a[0]) * len(b[0]) <= SPARSE_LIMIT
        if raw:
            table = _pairs(a, b, kp)
            continue
        step, blocks, total = max(1, SPARSE_LIMIT // len(b[0])), [], 0
        for i in range(0, len(a[0]), step):
            blocks.append(_nonzero(*_pairs(a, b, kp, slice(i, i + step))))
            total += len(blocks[-1][0])
            if total > SPARSE_LIMIT:
                raise _support_refusal(total, hull_size)
        tables, codes, _ = zip(*blocks)
        table = np.concatenate(tables), None if a[1] is None else np.concatenate(codes), a[2] + b[2]
    return _nonzero(*table) if raw else table


@functools.lru_cache(maxsize=16)
def _emission_table(index_map: tuple[int, ...], kp: int) -> np.ndarray:
    """The read-only 0/1 table emission[y, x] = [index_map[x] == y]."""
    table = np.eye(kp)[np.array(index_map, dtype=np.int64)].T
    table.setflags(write=False)
    return table


class CoarsenedSource(MeasureSource):
    """Exact marginals of a chain ``ts`` seen through a state-space quotient.

    ``index_map`` is the emission, the observed index of each hidden state,
    the observed states in order of first appearance: a one-to-one emission
    is the identity, and only it takes the grid and the closed form.
    Generically not Markov.  ``base`` is the chain as a ``MarkovSource``.
    """

    def __init__(self, ts: TransitionSystem, state_map):
        images = list(state_map)
        if len(images) != len(ts.states):
            raise ValueError(
                f"state_map has {len(images)} entries for {len(ts.states)} states")
        index: dict = {}  # observed label -> its index, by first appearance
        self.index_map = tuple(index.setdefault(im, len(index)) for im in images)
        self.ts, self.spec, self.states = ts, ts.spec, tuple(index)
        self._observed = _frozen_ints(range(len(index)))  # the emission's codes
        self._one_to_one = len(index) == len(images)
        if not isinstance(self, MarkovSource):  # a Markov source is its own chain
            self.base = MarkovSource(ts)

    @functools.cached_property
    def _root_and_edge_entropies(self) -> tuple[float, np.ndarray]:
        """H(pi) and e_s = H(x_e, x_s) - H(pi) in ``spec.generators()`` order."""
        h_root, h_pair = _closed_form(self.ts)
        return h_root, h_pair - h_root

    def _grid(self, dom: Domain, coded: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
        """Codes and masses of the patterns on the domain, via the hull grid.

        Each hull vertex v adds an axis: the grid so far times the matrix
        entry from its parent p's state to its own.  Seen as (K^p, K,
        K^(v-1-p)), the grid is multiplied by column j of the matrix into
        the cells of state j at v, one ``np.multiply`` a column, so numpy's
        inner loop runs over the K^(v-1-p) cells between parent and child.
        Axes off the domain are summed out.  Without ``coded`` the codes are
        None and the masses are the whole flat table, zeros kept.
        """
        k, grid = self.ts.n_states, self.ts.pi
        for v, (p, a) in enumerate(dom.tree_edges(), start=1):
            grid = grid.reshape(k ** p, k, k ** (v - 1 - p))
            new, matrix = np.empty(grid.shape + (k,)), self.ts.stacked[a]
            for j in range(k):
                np.multiply(grid, matrix[:, j, None], out=new[..., j])
            grid = new
        table = grid.reshape((k,) * dom.hull_size)
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
                for m in self.ts.stacked]

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
            m = [1] * self.ts.n_states
            for c, a in children:
                child = counts[c].__getitem__
                for i, row in enumerate(cols[a]):
                    m[i] *= sum(map(child, row))
            counts.append(m)
        return sum(m for m, p in zip(counts[root], self.ts.pi.tolist()) if p > 0)

    def _sum_product(self, dom: Domain, *, coded: bool = True
                     ) -> tuple[np.ndarray | None, np.ndarray]:
        """Codes and masses of the observed states ``index_map[x]`` on the domain.

        One pass over the hull's subtree classes, children first.  The
        table of a class has a row per observed pattern on the domain
        vertices below it, with its class-local code, and a column per
        hidden state there: the pattern's probability given that state.
        A class's table is one ``_join`` of its pieces, left to right: at a
        domain vertex the 0/1 emission table first, as the leading digit,
        then its children's messages; other vertices add no digit and so
        are summed out.  The emission is built from the source's 1-D arrays.
        A class sends one message per letter it hangs by, shared by every
        parent that has it as a child and dropped after its last read, as
        ``dom.class_messages`` lists them.  The root's digits, in the order of
        ``dom.preorder``, are put at their shortlex positions: in the
        pieces it joins when their rows bound it past ``_PLACE_FIRST``
        cells, else in its own table, and then sorted; codes with no digit
        to place come out of the joins ascending.
        Without ``coded`` no code is formed, and the codes are None and the
        masses unordered.  Refuses past ``SPARSE_LIMIT`` hidden patterns on
        the hull, counted first, or rows in a table.
        """
        kp, h, n = len(self.states), dom.hull_size, len(dom)
        if self.ts.n_states ** h > SPARSE_LIMIT:
            needed = self._support_count(dom)
            if needed > SPARSE_LIMIT:
                raise _support_refusal(needed, h)
        # emission[y, x] = [index_map[x] == y], with code y on one vertex
        emitted = (_emission_table(self.index_map, kp), self._observed if coded else None, 1)
        classes, root = dom.subtree_classes
        sends, last_reads = dom.class_messages
        weights = None  # at the root, the weight of each digit's shortlex position
        if coded and dom.preorder is not None:
            weights = _root_digits(dom, kp)
        messages: dict[tuple[int, int], tuple] = {}
        for c, (own, children) in enumerate(classes):
            pieces = [emitted] if own else []
            pieces += [messages.pop(child) if last else messages[child]
                       for child, last in zip(children, last_reads[c])]
            # the pieces' rows bound the root's: past _PLACE_FIRST cells, place them first
            placing = c == root and weights is not None and math.prod(
                len(piece[0]) for piece in pieces) * n > _PLACE_FIRST
            if placing:  # each piece's digits start where the previous piece's end
                starts = itertools.accumulate((piece[2] for piece in pieces), initial=0)
                pieces = [_place(piece, kp, weights[at:at + piece[2]])
                          for piece, at in zip(pieces, starts)]
            table = _join(pieces, kp, h)
            for a in sends[c]:
                messages[c, a] = (table[0] @ self.ts.stacked[a].T, table[1], table[2])
        if weights is not None and not placing:
            table = _place(table, kp, weights)
        masses, codes = table[0] @ self.ts.pi, table[1]  # the root's class is the last
        if weights is None:  # no codes, or class-local codes in shortlex order: ascending
            return codes, masses
        order = np.argsort(codes, kind="stable")
        return codes[order], masses[order]

    def _table(self, dom: Domain, coded: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
        """The hull grid if one-to-one and it fits, else the sum-product."""
        if self._one_to_one and _grid_fits(len(self.states), dom.hull_size):
            return self._grid(dom, coded)
        return self._sum_product(dom, coded=coded)

    def _entropy(self, dom: Domain) -> tuple[float, np.ndarray | None]:
        """The closed form, with its edge-label counts, when one-to-one on a
        domain that is its own hull, past the grid; else the table entropy."""
        if (not self._one_to_one or dom.keep is not None
                or _grid_fits(len(self.states), dom.hull_size)):
            return super()._entropy(dom)
        h_root, edge = self._root_and_edge_entropies
        return h_root + float(dom.label_counts @ edge), dom.label_counts


class MarkovSource(CoarsenedSource):
    """The chain induced by a transition system: its one-to-one coarsening."""

    def __init__(self, ts: TransitionSystem):
        super().__init__(ts, ts.states)


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
        if rows.view(np.uint64).max() >= len(self.states):  # a negative index reads >= 2^63
            raise ValueError("state index out of range in sample rows")
        self.rows = rows

    def _table(self, dom: Domain, coded: bool = True) -> tuple[np.ndarray | None, np.ndarray]:
        missing = [w for w in dom.words if w not in self.column]
        if missing:
            raise CapabilityError(
                f"empirical source sampled on radius-{len(self.domain.words[-1])} "
                f"ball cannot see {missing[0]}")
        k, n, count = len(self.states), len(dom), self.rows.shape[0]
        codes = _encode((self.rows[:, self.column[w]] for w in dom.words), k, n)
        if k ** n <= count:  # a count per cell costs less than the sort
            counts = np.bincount(codes, minlength=k ** n)
            codes = np.flatnonzero(counts)
            counts = counts[codes]
        else:
            codes, counts = np.unique(codes, return_counts=True)
        return codes if coded else None, counts / count


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
    p = float(ts.pi[x[0]])
    for v, (u, a) in enumerate(dom.tree_edges(), start=1):
        p *= float(ts.stacked[a, x[u], x[v]])
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

    One ``rng.random(count)`` per vertex, outward breadth-first.  The root
    state is #{j < K-1 : u >= cdf_j}, cdf being the cumulative sum of
    pi / sum(pi) divided by its last entry: numpy ``Generator.choice``'s
    arithmetic and draws, defined also where a pi entry in [-tol, 0) makes
    cdf not monotone.  The state at w is
    min(#{j : u > cum[x(parent(w)), j]}, K-1), where cum holds the row
    cumulative sums of the matrix of w's leading letter, all taken by one
    ``np.cumsum`` of ``ts.stacked``.  The table is vertex-major: each
    vertex's column is filled from its parent's column by contiguous
    compare passes, one per column of cum, added into one reused buffer
    of the narrowest unsigned int that holds K (uint8 up to K = 255) and
    cast once into the vertex's int64 column; the (count, |ball|) rows
    are returned as the table's transposed view.  A generator whose last
    column of cum is at least 1 everywhere drops that column and the clamp,
    which u < 1 never passes; every other compare stays, so the draws are
    those of the row-wise comparison even where a cumulative sum is not
    monotone.  Deterministic for a fixed seed.
    Refuses systems that fail validation, so pi and the rows sum to 1 up to
    rounding, which is all the normalization of pi and the clamp absorb.
    Refuses a count that is not an integer, and a table of more than
    ``SAMPLE_LIMIT`` cells before allocating it.
    """
    count = _integer(count, "sample count")
    if count < 0:
        raise ValueError(f"sample count must be nonnegative, got {count}")
    require_valid(ts)
    dom = ball_domain(ts.spec, radius)
    cells = count * len(dom)
    if cells > SAMPLE_LIMIT:
        raise CapabilityError(f"{count} samples on B(e,{radius}) need {cells} table "
                              f"cells, more than {SAMPLE_LIMIT}",
                              needed=cells, limit=SAMPLE_LIMIT)
    rng, k = np.random.default_rng(seed), ts.n_states
    cols = np.empty((len(dom), count), dtype=np.int64)
    cums = np.cumsum(ts.stacked, axis=2).transpose(0, 2, 1).copy()  # cums[a, j, i] = sum P_a[i, :j+1]
    drop = (cums[:, -1] >= 1.0).all(axis=1)  # a last column that u < 1 passes nowhere
    passed = np.zeros(count, dtype=np.min_scalar_type(k))  # counts 0 .. K compares
    u, cdf = rng.random(count), np.cumsum(ts.pi / ts.pi.sum())
    for cdf_j in cdf[:-1] / cdf[-1]:  # numpy's choice: searchsorted(cdf, u, 'right')
        passed += u >= cdf_j
    cols[0] = passed
    for v, (p, a) in enumerate(dom.tree_edges(), start=1):
        u, parent = rng.random(count), cols[p]
        passed.fill(0)
        for cum_j in cums[a, :k - 1] if drop[a] else cums[a]:
            passed += u > cum_j.take(parent)
        if not drop[a]:
            np.minimum(passed, k - 1, out=passed)
        cols[v] = passed
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

