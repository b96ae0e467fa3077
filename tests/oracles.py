"""Independent brute-force oracles for the test suite.

Everything here recomputes measure-theoretic quantities from first
principles with plain Python (itertools enumeration, dict accumulation,
math.fsum), sharing no code path with the library's numpy implementation.
The exceptions are ``oracle_sample_rows``: seeded draws are defined by
numpy's random stream, so it uses numpy, on a row-major table with a
row-wise comparison, where the library fills a vertex-major one; and
``oracle_grid``, the hull grid filled by numpy broadcasting, the reference
for the bytes of the library's grid, which is filled a matrix column at a
time.
Words are bare tuples of signed ints; the letter order matches the
library's shortlex convention so pattern encodings agree.
"""

import itertools
import math

import numpy as np


def letter_key(letter):
    return (abs(letter), 0 if letter > 0 else 1)


def word_key(word):
    return (len(word), tuple(letter_key(l) for l in word))


def alphabet(rank, group=True):
    out = []
    for i in range(1, rank + 1):
        out.append(i)
        if group:
            out.append(-i)
    return sorted(out, key=letter_key)


def mul(w1, w2):
    out = list(w1)
    for l in w2:
        if out and out[-1] == -l:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def oracle_ball(rank, n, group=True):
    words = [()]
    level = [()]
    for _ in range(n):
        nxt = []
        for l in alphabet(rank, group):
            for w in level:
                if group and w and w[0] == -l:
                    continue
                nxt.append((l,) + w)
        nxt.sort(key=word_key)
        words.extend(nxt)
        level = nxt
    return words


def oracle_hull(domain):
    hull = {()}
    for w in domain:
        for i in range(len(w)):
            hull.add(w[i:])
    return sorted(hull, key=word_key)


def oracle_edges(vertices):
    members = set(vertices)
    return [(w[1:], w, w[0]) for w in sorted(members, key=word_key)
            if w and w[1:] in members]


def oracle_left_connected(domain):
    """Whether the word set contains the identity and every word's suffix
    without its first letter: the left-connected sets that contain e."""
    members = set(domain)
    return () in members and all(w[1:] in members for w in members if w)


def oracle_marginal(pi, mats, domain, coarsen_map=None):
    """Exact marginal over ``domain`` as a dict pattern-tuple -> probability.

    pi: list of floats; mats: dict letter -> nested lists; coarsen_map:
    optional list mapping underlying state index -> observed value.
    """
    dom = sorted(set(domain), key=word_key)
    hull = oracle_hull(dom)
    pos = {w: a for a, w in enumerate(hull)}
    keep = [pos[w] for w in dom]
    edges = [(pos[p], pos[w], l) for p, w, l in oracle_edges(hull)]
    k = len(pi)
    out = {}
    for config in itertools.product(range(k), repeat=len(hull)):
        p = pi[config[pos[()]]]
        for a, b, l in edges:
            if p == 0.0:
                break
            p *= mats[l][config[a]][config[b]]
        if p == 0.0:
            continue
        key = tuple(config[a] for a in keep)
        if coarsen_map is not None:
            key = tuple(coarsen_map[i] for i in key)
        out[key] = out.get(key, 0.0) + p
    return out


def oracle_grid(pi, edges, keep=None):
    """The flat hull grid, filled by broadcasting: pi, then for each hull
    vertex v = 1, 2, .. with ``edges[v - 1] = (parent, matrix)`` a new last
    axis, the grid times ``matrix[x_parent, x_v]``; then summed over the axes
    not in ``keep`` (None keeps all).  Every cell is a product of the same
    floats, in the same order, as the library's grid."""
    table, k = np.asarray(pi, dtype=float), len(pi)
    for v, (parent, matrix) in enumerate(edges, start=1):
        shape = [1] * (v + 1)
        shape[parent] = shape[v] = k
        table = table[..., None] * np.asarray(matrix, dtype=float).reshape(shape)
    if keep is not None:
        table = table.sum(axis=tuple(sorted(set(range(table.ndim)) - set(keep))))
    return table.ravel()


def oracle_support_count(pi, mats, domain):
    """Positive-probability configurations on the tree hull of ``domain``.

    Counts every configuration whose root mass and edge entries are all
    positive, by direct enumeration of K^|hull| configurations.
    """
    hull = oracle_hull(domain)
    pos = {w: a for a, w in enumerate(hull)}
    edges = [(pos[p], pos[w], l) for p, w, l in oracle_edges(hull)]
    return sum(1 for config in itertools.product(range(len(pi)), repeat=len(hull))
               if pi[config[pos[()]]] > 0
               and all(mats[l][config[a]][config[b]] > 0 for a, b, l in edges))


def oracle_entropy(dist):
    vals = dist.values() if isinstance(dist, dict) else dist
    return -math.fsum(p * math.log(p) for p in vals if p > 0.0)


def oracle_big_F(pi, mats, rank, n, group=True, coarsen_map=None):
    """F at ball depth n by direct enumeration; nothing shared with big_F."""
    b = oracle_ball(rank, n, group)
    h_ball = oracle_entropy(oracle_marginal(pi, mats, b, coarsen_map))
    total = (1 - 2 * rank) * h_ball
    for s in range(1, rank + 1):
        union = sorted(set(b) | {mul(w, (s,)) for w in b}, key=word_key)
        total += oracle_entropy(oracle_marginal(pi, mats, union, coarsen_map))
    return total


def as_lists(ts):
    """Pull plain-Python pi and matrices out of a TransitionSystem."""
    pi = [float(x) for x in ts.pi]
    mats = {s: [[float(x) for x in row] for row in m]
            for s, m in ts.matrices.items()}
    return pi, mats


def oracle_pushdown(roots, k, pi, mats):
    """Single-site vector and pair joints over k base states of a system on
    superstates whose root states are ``roots``: its masses summed by root."""
    base_pi = [0.0] * k
    joints = {s: [[0.0] * k for _ in range(k)] for s in mats}
    for a, ra in enumerate(roots):
        base_pi[ra] += pi[a]
        for s, m in mats.items():
            for b, rb in enumerate(roots):
                joints[s][ra][rb] += pi[a] * m[a][b]
    return base_pi, joints


def oracle_sample_rows(pi, mats, rank, radius, seed, count, group=True):
    """Seeded sample rows on the oracle ball, drawn row-major.

    The root takes ``choice`` on the normalized pi; then each word, in
    shortlex order, takes one ``random(count)`` and the state
    min(#{j : u > cum[x(parent), j]}, K-1), where cum is the cumulative
    sum of the rows of its leading letter's matrix and its parent is the
    word without that letter.
    """
    words = oracle_ball(rank, radius, group)
    pos = {w: a for a, w in enumerate(words)}
    pi = np.asarray(pi, dtype=float)
    k = len(pi)
    cums = {s: np.cumsum(np.asarray(m, dtype=float), axis=1) for s, m in mats.items()}
    rng = np.random.default_rng(seed)
    rows = np.empty((count, len(words)), dtype=np.int64)
    rows[:, 0] = rng.choice(k, size=count, p=pi / pi.sum())
    for v, word in enumerate(words[1:], start=1):
        u = rng.random(count)
        parent = rows[:, pos[word[1:]]]
        rows[:, v] = np.minimum((u[:, None] > cums[word[0]][parent]).sum(axis=1), k - 1)
    return rows
