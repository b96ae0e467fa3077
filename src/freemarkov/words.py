"""Words, balls and tree structure of free groups and free semigroups.

Elements of the rank-``r`` free group (or free semigroup with identity) are
stored as reduced letter tuples: the letter ``+i`` is the i-th generator,
``-i`` its inverse (group case only).  The left-Cayley graph has a directed
edge ``g -> s*g`` for every letter ``s``; restricted to a ball around the
identity it is a tree, and every word's unique tree path to the identity
is its chain of proper suffixes.

Enumeration order is shortlex throughout: first by word length, then
letter-by-letter with each generator's inverse ranked directly after the
generator itself (``a < a^-1 < b < b^-1 < ...``).  All downstream pattern
encodings inherit this order.

Every finite vertex set the measure layer reads is a ``Domain``: it
iterates as its words and holds the tree of its hull as integer arrays of
parent index and leading letter in shortlex order, with the edge-label
counts.  ``ball_domain`` caches the ball B(e,n) and each pair domain
B(e,n) ∪ B(e,n)·s, whose size and label counts are read without building
any word, once ``check_radius`` has refused, from the closed-form
``ball_size``, any ball past ``BALL_LIMIT`` vertices.  A pair domain's
``translates``, built on first read, holds the position of w·s for each
word w of the ball, those ending in s^-1 included; ``Domain.of`` takes
any other word set, and returns the cached ball for the words of a whole
ball; ``ball`` lists the ball's words, built once from its arrays.
``Domain.subtree_classes`` groups hull vertices whose subtrees are alike,
and ``Domain.preorder`` gives the digit order of their class-local codes,
once per domain, for the measure layer's table passes.  ``tree_hull`` and
``induced_left_edges`` (edges as plain (tail, head, label) tuples) read the
domain of their word set.  ``Word`` products and ``reduce_word`` share one
free reduction.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapabilityError

GROUP = "group"
SEMIGROUP = "semigroup"

# Printable generator names.  'e' is reserved for the identity, so the
# generator alphabet skips it: a, b, c, d, f, g, ...
_LETTER_CHARS = "abcdfghijklmnopqrstuvwxyz"

BALL_LIMIT = 2 ** 22        # most vertices of a ball B(e, n) that is built


def _letter_key(letter: int) -> tuple[int, int]:
    return (abs(letter), 0 if letter > 0 else 1)


@dataclass(frozen=True)
class GroupSpec:
    """Rank and kind (group vs semigroup-with-identity) of the acting monoid."""

    rank: int
    kind: str = GROUP

    def __post_init__(self):
        object.__setattr__(self, "rank", int(_integer(self.rank, "rank")))  # np.int64(2), True: ints
        if self.rank < 1:
            raise ValueError(f"rank must be a positive integer, got {self.rank}")
        if self.kind not in (GROUP, SEMIGROUP):
            raise ValueError(f"kind must be {GROUP!r} or {SEMIGROUP!r}, got {self.kind!r}")

    @property
    def is_group(self) -> bool:
        return self.kind == GROUP

    def generators(self) -> tuple[int, ...]:
        """The generator alphabet S in shortlex letter order."""
        if self.is_group:
            out = []
            for i in range(1, self.rank + 1):
                out.extend((i, -i))
            return tuple(out)
        return tuple(range(1, self.rank + 1))

    def positive_generators(self) -> tuple[int, ...]:
        return tuple(range(1, self.rank + 1))

    @property
    def coefficient(self) -> int:
        """Leading weight 1 - 2r of the single-site entropy in F."""
        return 1 - 2 * self.rank

    def check_letter(self, letter: int) -> None:
        if letter == 0 or abs(letter) > self.rank:
            raise ValueError(f"letter {letter} outside alphabet of rank {self.rank}")
        if letter < 0 and not self.is_group:
            raise ValueError(f"inverse letter {letter} not allowed in a semigroup")

    def generator_name(self, letter: int) -> str:
        """JSON key for a generator: 's1'..'sr' and 's1_inv'..'sr_inv'."""
        self.check_letter(letter)
        return f"s{letter}" if letter > 0 else f"s{-letter}_inv"

    def letter_from_name(self, name: str) -> int:
        """The letter ``generator_name`` writes as ``name``; "s01" aliases none."""
        base, sign = (name[:-4], -1) if name.endswith("_inv") else (name, 1)
        if not base.startswith("s") or not base[1:].isdecimal() or (  # int() reads any decimal
                self.generator_name(sign * int(base[1:])) != name):  # checks the letter first
            raise ValueError(f"bad generator name {name!r}")
        return sign * int(base[1:])


def _free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    """Cancel adjacent inverse pairs.  Semigroup letters are all positive,
    so they never cancel."""
    stack: list[int] = []
    for l in letters:
        if stack and stack[-1] == -l:
            stack.pop()
        else:
            stack.append(l)
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A reduced word; the empty tuple is the identity.

    Raw (unreduced) letter sequences exist only at the ``reduce_word``
    boundary; construction reads the letters as a tuple of ints, and
    rejects a letter that is not an integer, letter 0 and adjacent inverse
    pairs.
    """

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(_integer(l, "letter") for l in self.letters))
        if 0 in self.letters:
            raise ValueError(f"letters {self.letters} hold 0, which names no generator")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError(
                    f"letters {self.letters} are not reduced; use reduce_word")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def shortlex_key(self):
        return (len(self.letters), tuple(_letter_key(l) for l in self.letters))

    def __lt__(self, other: "Word") -> bool:
        return self.shortlex_key() < other.shortlex_key()

    def __mul__(self, other: "Word") -> "Word":
        """Concatenate and freely reduce."""
        return Word(_free_reduce(self.letters + other.letters))

    def __str__(self) -> str:
        if self.is_identity:
            return "e"
        out = []
        for l in self.letters:
            if abs(l) > len(_LETTER_CHARS):
                raise ValueError(f"no printable name for generator {abs(l)}; "
                                 f"serialization covers ranks up to {len(_LETTER_CHARS)}")
            ch = _LETTER_CHARS[abs(l) - 1]
            out.append(ch if l > 0 else ch.upper())
        return "".join(out)

    def __repr__(self) -> str:
        return f"Word({self})"


IDENTITY = Word()


def parse_word(text: str, spec: GroupSpec) -> Word:
    """Inverse of ``str(word)``: 'e' is the identity, uppercase = inverse."""
    if text == "e":
        return IDENTITY
    letters = []
    for ch in text:
        low = ch.lower()
        if low not in _LETTER_CHARS:
            raise ValueError(f"unknown word character {ch!r} in {text!r}")
        idx = _LETTER_CHARS.index(low) + 1
        letters.append(-idx if ch.isupper() else idx)
    return reduce_word(letters, spec)


def reduce_word(letters: Sequence[int], spec: GroupSpec) -> Word:
    """Free reduction of a raw letter sequence to its normal form.

    Supplying an inverse letter under semigroup kind is an error.
    """
    for l in letters:
        spec.check_letter(l)
    return Word(_free_reduce(letters))


class Domain:
    """A finite vertex set in shortlex order, with the tree of its hull.

    Iterates as its words.  The hull, the smallest left-connected superset
    containing the identity, is held as read-only integer arrays in
    shortlex order: hull vertex v is ``gens[letter[v]] * (vertex parent[v])``
    with ``gens = spec.generators()``, so parents come first, and vertex 0
    is the identity, with parent and letter -1.  ``keep`` lists the
    domain's hull positions, or is None when the domain is its own hull;
    ``label_counts[a]`` counts the hull tree edges labelled ``gens[a]``, so
    the hull has ``label_counts.sum() + 1`` vertices.

    ``tree`` returns (parent, letter) and is called on first use, which
    lets ``ball_domain`` build a pair domain's tree only when one is read;
    a pair domain's ``translates`` builder is likewise called with the
    domain on the first read of ``translates``.  Balls and pair domains come from there, cached, so that their words,
    subtree classes (``subtree_classes``: hull vertices grouped by the
    shape, letters and domain vertices of the subtree below them) and
    ``preorder`` are found once; any other word set comes from ``of``.
    ``digit_constants`` holds, per observed alphabet size K', the digit
    weights the sum-product's root codes read on this domain, filled by
    ``measure`` on first use and dropped with the domain.
    """

    def __init__(self, spec: GroupSpec, label_counts: np.ndarray, tree,
                 keep: np.ndarray | None = None, words: tuple[Word, ...] | None = None,
                 translates=None):
        self.spec, self.label_counts, self.keep = spec, label_counts, keep
        self.hull_size = int(label_counts.sum()) + 1
        self._build, self._translate = tree, translates
        self.digit_constants: dict[int, np.ndarray] = {}
        if words is not None:
            self.words = words

    @classmethod
    def of(cls, words: Iterable[Word], spec: GroupSpec) -> "Domain":
        """The domain of any word iterable: the cached ``ball_domain`` when
        the words are a whole ball, else a hull found on letter tuples."""
        if isinstance(words, Domain):
            return words
        given = {w.letters: w for w in words}
        if not given:
            raise ValueError("domain must be nonempty")
        for s in {s for x in given for s in x}:
            spec.check_letter(s)
        n = max(map(len, given))
        if len(given) == ball_size(spec, n) <= BALL_LIMIT:  # every word of length <= n
            return ball_domain(spec, n)
        hull = {()}
        for x in given:
            hull.update(x[i:] for i in range(len(x)))
        index = {s: a for a, s in enumerate(spec.generators())}  # in shortlex order
        hull = sorted(hull, key=lambda x: (len(x), tuple(map(index.__getitem__, x))))
        pos = {x: v for v, x in enumerate(hull)}
        parent = _frozen_ints([-1] + [pos[x[1:]] for x in hull[1:]])
        letter = _frozen_ints([-1] + [index[x[0]] for x in hull[1:]])
        keep = [v for v, x in enumerate(hull) if x in given]
        counts = _frozen_ints(np.bincount(letter[1:], minlength=len(index)))
        return cls(spec, counts, lambda: (parent, letter),
                   None if len(keep) == len(hull) else _frozen_ints(keep),
                   tuple(given[hull[v]] for v in keep))

    @functools.cached_property
    def _tree(self) -> tuple[np.ndarray, np.ndarray]:
        return self._build()

    @property
    def parent(self) -> np.ndarray:
        return self._tree[0]

    @property
    def letter(self) -> np.ndarray:
        return self._tree[1]

    def tree_edges(self) -> list[tuple[int, int]]:
        """(parent, letter) of hull vertices 1, 2, ... as Python ints."""
        return list(zip(self.parent[1:].tolist(), self.letter[1:].tolist()))

    def hull_words(self) -> tuple[Word, ...]:
        """The hull's words in shortlex order, built afresh from the arrays."""
        gens = self.spec.generators()
        out = [IDENTITY]
        for p, a in self.tree_edges():
            out.append(Word((gens[a],) + out[p].letters))
        return tuple(out)

    @functools.cached_property
    def words(self) -> tuple[Word, ...]:
        """The words in shortlex order; for a ball or pair domain, which is
        its own hull, built on first use."""
        return self.hull_words()

    @functools.cached_property
    def translates(self) -> np.ndarray:
        """In a pair domain B(e, n) ∪ B(e, n)·s, the position of w·s for each
        word w of the ball, in the ball's order; built on first read.  Other
        domains have none."""
        if self._translate is None:
            raise ValueError("only a pair domain B(e, n) ∪ B(e, n)·s has translates")
        return self._translate(self)

    def kept(self) -> list[int]:
        """The domain's hull positions, ascending."""
        return list(range(self.hull_size)) if self.keep is None else self.keep.tolist()

    @functools.cached_property
    def subtree_classes(self) -> tuple[list[tuple], int]:
        """The hull's subtree classes, children first, and the root's class.

        Class c is ``classes[c] = (own, ((child class, child letter), ...))``,
        the children in descending vertex order; ``own`` is True for a
        domain vertex and None for a hull vertex outside the domain.
        Vertices share a class exactly when their subtrees have the same
        shape, letters and domain vertices (Aho, Hopcroft and Ullman's
        bottom-up labelling).  The root's class is the last.  One pass over
        the hull, on first use.
        """
        parent, letter = self.parent.tolist(), self.letter.tolist()
        members = set(self.kept())
        kids: list[list] = [[] for _ in parent]
        ids: dict[tuple, int] = {}
        for v in range(len(parent) - 1, -1, -1):
            c = ids.setdefault((True if v in members else None, tuple(kids[v])), len(ids))
            if v:
                kids[parent[v]].append((c, letter[v]))
        return list(ids), c

    @functools.cached_property
    def class_messages(self) -> tuple[list[list[int]], list[list[bool]]]:
        """Per subtree class, the letters it hangs by, a sum-product message
        each, and per child whether it reads that message for the last time."""
        classes, _ = self.subtree_classes
        reads = [child for _, children in classes for child in children]
        last = {child: i for i, child in enumerate(reads)}  # the position of its last read
        sends: list[list[int]] = [[] for _ in classes]
        for c, a in last:
            sends[c].append(a)
        ends = iter([last[child] == i for i, child in enumerate(reads)])
        return sends, [[next(ends) for _ in children] for _, children in classes]

    @functools.cached_property
    def preorder(self) -> np.ndarray | None:
        """The domain positions in the digit order of the sum-product's
        class-local codes: depth first from the identity, each vertex
        before its children, those in descending vertex order, that is by
        descending letter.  None when that is the shortlex order."""
        rank = {s: -a for a, s in enumerate(self.spec.generators())}
        words = self.words
        order = sorted(range(len(words)), key=lambda a: [rank[s] for s in words[a].letters[::-1]])
        return None if order == sorted(order) else _frozen_ints(order)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __len__(self) -> int:
        return self.hull_size if self.keep is None else self.keep.size


def _frozen_ints(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def _integer(value, name: str) -> int:
    """``value`` as an int; a float, NaN or other non-integer is refused
    with a message naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _depth(value) -> int:
    """``value`` as a depth: an integer, refused when negative."""
    depth = _integer(value, "depth")
    if depth < 0:
        raise ValueError(f"depth must be nonnegative, got {depth}")
    return depth


def check_radius(spec: GroupSpec, n: int) -> None:
    """Refuse a negative radius, and a ball B(e, n) past ``BALL_LIMIT``
    vertices, from its closed-form size before anything is built."""
    if n < 0:
        raise ValueError(f"radius must be nonnegative, got {n}")
    # past rank 1 a ball holds at least 2^n vertices: past 2^22 it is not counted
    size = ball_size(spec, n) if spec.rank == 1 or n < BALL_LIMIT.bit_length() else None
    if size is None or size > BALL_LIMIT:
        raise CapabilityError(f"ball B(e,{n}) has more than {BALL_LIMIT} vertices",
                              needed=size, limit=BALL_LIMIT)


def ball_domain(spec: GroupSpec, n: int, s: int | None = None) -> Domain:
    """B(e, n), or with ``s`` the pair domain B(e, n) ∪ B(e, n)·s; cached.

    The pair domain appends to the ball the words w·s for the w of length
    n whose last letter is not s^-1 (the identity alone when n = 0), in
    order, which keeps the appended words in shortlex order.  The parent of
    w·s is parent(w)·s, and its letter is that of w.  Its label counts are
    read off the ball's outer level at once; its tree is built on first use.
    A cache miss calls ``check_radius`` first, and a refusal is not cached.
    """
    return _ball_domain(spec, _integer(n, "radius"), s)  # one cache key whether or not s is passed


@functools.lru_cache(maxsize=128)
def _ball_domain(spec: GroupSpec, n: int, s: int | None) -> Domain:
    check_radius(spec, n)
    gens = spec.generators()
    # inverse[a]: index of gens[a]^-1; -2 matches no letter (semigroups)
    inverse = np.array([gens.index(-l) if spec.is_group else -2 for l in gens])
    if s is None:
        parents, letters = [np.array([-1])], [np.array([-1])]
        level = np.array([0])  # indices of the outer level
        for _ in range(n):
            # the a-th block holds gens[a] * w for the w where that stays reduced
            keeps = [np.nonzero(letters[-1] != inverse[a])[0] for a in range(len(gens))]
            parents.append(np.concatenate([level[k] for k in keeps]))
            letters.append(np.concatenate([np.full(k.size, a) for a, k in enumerate(keeps)]))
            level = np.arange(level[-1] + 1, level[-1] + 1 + parents[-1].size)
        parent = _frozen_ints(np.concatenate(parents))
        letter = _frozen_ints(np.concatenate(letters))
        counts = _frozen_ints(np.bincount(letter[1:], minlength=len(gens)))
        return Domain(spec, counts, lambda: (parent, letter))
    spec.check_letter(s)
    ball, a = _ball_domain(spec, n, None), gens.index(s)
    ends = [ball_size(spec, d) for d in range(n + 1)]
    outer = np.arange(ends[-2] if n else 0, ends[-1])
    first = outer
    for _ in range(n - 1):
        first = ball.parent[first]  # ancestor of length 1, whose letter is w's last
    if n:
        outer = outer[ball.letter[first] != inverse[a]]
    lead = ball.letter[outer] if n else np.array([a])
    counts = _frozen_ints(ball.label_counts + np.bincount(lead, minlength=len(gens)))
    return Domain(spec, counts, lambda: _pair_tree(ball, ends, outer, lead, a),
                  translates=lambda pair: _frozen_ints(_shifted(*pair._tree, ends, a, len(gens))))


def _shifted(parent: np.ndarray, letter: np.ndarray, ends: list[int], a: int,
             n_gens: int) -> np.ndarray:
    """Position of w·s, s = gens[a], in the tree (parent, letter) for each
    word w below position ``ends[-1]``, where ``ends`` holds the ball sizes
    by radius and every w·s is in the tree.  For v = gens[b]·w, v·s is
    gens[b]·(w·s): the child of w·s by letter b, or, where gens[b] cancels
    the leading letter of w·s (only for v = s^-1), the parent of w·s."""
    child = np.full((parent.size, n_gens), -1)  # child[i, b]: gens[b] * word i
    child[parent[1:], letter[1:]] = np.arange(1, parent.size)
    shift = np.empty(ends[-1], dtype=np.int64)
    shift[0] = child[0, a]
    for lo, hi in zip(ends[:-1], ends[1:]):
        up = shift[parent[lo:hi]]
        step = child[up, letter[lo:hi]]
        shift[lo:hi] = np.where(step >= 0, step, parent[up])
    return shift


def _pair_tree(ball: Domain, ends: list[int], outer: np.ndarray, lead: np.ndarray,
               a: int) -> tuple[np.ndarray, np.ndarray]:
    """Parent and letter arrays of the ball followed by the words w·s, s =
    gens[a], for the w at ``outer``, whose leading letters are ``lead``;
    ``ends`` holds the ball sizes by radius.  The parent of w·s is
    parent(w)·s, which is in the ball."""
    parent, letter = ball.parent, ball.letter
    up = [0]  # n = 0: s hangs off the identity
    if len(ends) > 1:
        up = _shifted(parent, letter, ends[:-1], a, ball.label_counts.size)[parent[outer]]
    return (_frozen_ints(np.concatenate([parent, up])),
            _frozen_ints(np.concatenate([letter, lead])))


def ball(spec: GroupSpec, n: int) -> list[Word]:
    """All words of length <= n in shortlex order; index 0 is the identity."""
    return list(ball_domain(spec, n))


def ball_size(spec: GroupSpec, n: int) -> int:
    """Closed-form cardinality of ``ball(spec, n)``."""
    r = spec.rank
    if not spec.is_group:
        return n + 1 if r == 1 else (r ** (n + 1) - 1) // (r - 1)
    if r == 1:
        return 2 * n + 1
    return 1 + 2 * r * ((2 * r - 1) ** n - 1) // (2 * r - 2)


def induced_left_edges(F: Iterable[Word], spec: GroupSpec) -> list[tuple[Word, Word, int]]:
    """Edges of the left-Cayley graph with both endpoints in F, as
    (tail, head, label) with ``head = label * tail``.

    Each adjacent pair appears once, oriented from the endpoint closer to
    the identity, in shortlex order of the farther one; for left-connected F
    containing the identity the result is a spanning tree of F rooted there.
    """
    words = list(F)
    if not words:
        return []
    dom = Domain.of(words, spec)
    hull, gens, kept = dom.hull_words(), spec.generators(), dom.kept()
    parent, letter, members = dom.parent.tolist(), dom.letter.tolist(), set(kept)
    return [(hull[parent[v]], hull[v], gens[letter[v]]) for v in kept if parent[v] in members]


def tree_hull(F: Iterable[Word]) -> set[Word]:
    """Smallest left-connected superset of F containing the identity.

    The union of tree geodesics from each element to the identity, i.e.
    all suffixes of all members.  No rank or kind is needed: the hull in
    the free group whose alphabet holds every letter is the same set.
    """
    if not isinstance(F, Domain):
        words = list(F) or [IDENTITY]
        rank = max((abs(l) for w in words for l in w.letters), default=1)
        F = Domain.of(words, GroupSpec(rank))
    return set(F.hull_words())


def past(sg: Word, g: Word, n: int, spec: GroupSpec) -> list[Word]:
    """Past(sg; g) truncated to the ball of radius n, in shortlex order.

    All words in the ball whose unique tree path to ``sg`` passes through
    ``g`` (``g`` itself included): everything outside the branch hanging
    off ``sg`` away from the identity.
    """
    for l in sg.letters + g.letters:
        spec.check_letter(l)
    if len(sg) != len(g) + 1 or sg.letters[1:] != g.letters:
        raise ValueError(
            f"{sg} is not of the form s*{g} with length {len(g) + 1}; "
            "past(sg, g, ...) needs a tree edge from g to sg"
        )
    tail = sg.letters
    k = len(tail)
    out = []
    for w in ball(spec, n):
        if len(w) >= k and w.letters[len(w) - k:] == tail:
            continue  # w descends from sg, so its path to sg avoids g
        out.append(w)
    return out
